"""No module under src/, tests/ or scripts/ imports a name it never uses, and
no private top-level name in src/ is left without a reader.  Every module
that tests/ and scripts/ import is in the standard library, is geoslice or a
sibling test module, or is declared in pyproject.toml's dependencies or its
``test`` extra, so ``pip install -e ".[test]"`` can collect the whole suite.
Every module parses with the grammar of the oldest Python that pyproject.toml
declares (``requires-python``); that checks syntax only, not the standard
library's API, and no interpreter at that floor runs here.

Importing geoslice loads numpy only.  No src/ module imports scipy at module
level: each function that calls scipy.special or scipy.spatial imports it
in its own body, so a process loads only the scipy modules it calls.  A vMF
or uniform chain loads none, and neither does a verify on the disk, whose
bin masses come from a numpy Gauss-Legendre rule, nor any sample, bounds or
verify on an S^2 cap, nor bounds on an S^2 vMF: on S^2 a cap's share and its
inverse are the identity.  One table test pins which scipy subpackages each
of these workflows loads.  No src/ function imports
scipy.integrate: every bin mass comes from the target preset.  A test pins
which src/ function imports which scipy module, the list the README gives.
src/ never imports scipy.stats at all, whose import costs about a third of
a second; tests may.  src/ calls instead the two scipy.special functions
that scipy.stats itself evaluates, and a test here checks that they agree
with scipy.stats bit for bit.

The scalar hot path (the manifolds' exp maps, tangent projections and
tangent draws, and the presets' scalar densities) takes 1-D products with
``ndarray.dot``, which calls the same BLAS routine as ``@`` without the
matmul dispatch; an AST check keeps ``@`` out of it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)
SRC = sorted((ROOT / "src").rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_check_flags_an_unused_import():
    tree = ast.parse("import os.path\nimport sys\nfrom math import pi as p, tau\nsys.exit(tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "p")]


def _undeclared_imports(tree: ast.Module, allowed: set) -> list:
    """(line, top-level module) of each absolute import, function-local ones included,
    whose module is neither in the standard library nor in ``allowed``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods = [node.module]
        else:
            continue
        found += [(node.lineno, m.split(".")[0]) for m in mods]
    return sorted((line, m) for line, m in found if m not in sys.stdlib_module_names and m not in allowed)


def _declared_modules() -> set:
    """The packages pyproject.toml declares in [project] dependencies and the test extra,
    as module names."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in reqs}


def test_every_third_party_import_of_tests_and_scripts_is_declared():
    # a clean `pip install -e ".[test]"` must be able to collect every test module
    siblings = {p.stem for p in (ROOT / "tests").glob("*.py")}
    allowed = {"geoslice"} | siblings | _declared_modules()
    for path in FILES:
        if path.is_relative_to(ROOT / "src"):
            continue
        assert _undeclared_imports(ast.parse(path.read_text(), str(path)), allowed) == [], path


def _python_floor() -> tuple:
    """pyproject.toml's ``requires-python`` floor as (major, minor)."""
    tomllib = pytest.importorskip("tomllib")
    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    return tuple(int(v) for v in re.fullmatch(r">=\s*(\d+)\.(\d+)", spec).groups())


def test_every_module_parses_at_the_declared_python_floor():
    floor = _python_floor()
    for path in sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_check_flags_syntax_newer_than_the_floor():
    ast.parse("try:\n    pass\nexcept ValueError:\n    pass\n", feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_check_flags_an_undeclared_import():
    tree = ast.parse(
        "import os.path, mpmath\nfrom geoslice import bounds\nimport oracles\n"
        "def f():\n    from yaml.loader import Loader\n    import numpy.linalg\n"
        "from . import helpers\n"
    )
    assert _undeclared_imports(tree, {"geoslice", "oracles", "numpy"}) == [(1, "mpmath"), (5, "yaml")]


def _unused_private(trees: dict) -> list:
    """(module, name) of each top-level ``_private`` function, class or assignment
    that no other top-level statement of any module in ``trees`` refers to."""
    defined, reads = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            refs = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    refs.add(n.id)
                elif isinstance(n, ast.Attribute):
                    refs.add(n.attr)
                elif isinstance(n, ast.alias):  # from .module import _name
                    refs.add(n.name)
            reads.append((stmt, refs))
    return [(module, name) for module, name, stmt in defined
            if not any(name in refs for other, refs in reads if other is not stmt)]


def test_no_unused_private_names_in_src():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p)) for p in SRC}
    assert _unused_private(trees) == []


def test_check_flags_an_unused_helper():
    a = ast.parse("def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\n_LIMIT = 3\n")
    b = ast.parse("from a import _used\n_used()\n")
    assert _unused_private({"a": a, "b": b}) == [("a", "_dead"), ("a", "_LIMIT")]


def _scipy_stats_imports(tree: ast.Module) -> list:
    """Line numbers of every import of scipy.stats or a submodule of it,
    function-local imports included, and of every ``scipy.stats`` attribute
    (scipy loads its submodules lazily on attribute access)."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "stats"
                and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            lines.append(node.lineno)
            continue
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            mods = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in mods):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_does_not_import_scipy_stats(path):
    assert _scipy_stats_imports(ast.parse(path.read_text(), str(path))) == []


def test_check_flags_a_scipy_stats_import():
    tree = ast.parse(
        "import scipy.special\nfrom scipy import integrate\n"
        "def f():\n    from scipy import stats\n"
        "import scipy.stats as st\nfrom scipy.stats import norm\nfrom scipy.stats._x import y\n"
        "from .scipy import stats\nimport scipy\np = scipy.stats.norm.sf(1.0)\n"
    )
    assert _scipy_stats_imports(tree) == [4, 5, 6, 7, 10]


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def _module_level_scipy_imports(tree: ast.Module) -> list:
    """Line numbers of the scipy imports that run when the module is imported:
    every one outside a function body (class bodies and if/try blocks included)."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import) and any(_is_scipy(a.name) for a in child.names):
                lines.append(child.lineno)
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                  and child.module and _is_scipy(child.module)):
                lines.append(child.lineno)
            visit(child)

    visit(tree)
    return sorted(lines)


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_scipy_only_inside_functions(path):
    assert _module_level_scipy_imports(ast.parse(path.read_text(), str(path))) == []


def test_check_flags_a_module_level_scipy_import():
    tree = ast.parse(
        "from scipy import special\n"
        "def f():\n    from scipy import special\n    return special\n"
        "import numpy, scipy.integrate as si\n"
        "class C:\n    from scipy.spatial.distance import cdist\n"
        "    def g(self):\n        import scipy\n"
        "try:\n    import scipy\nexcept ImportError:\n    pass\n"
        "from .scipy import special\nimport scipyx\n"
    )
    assert _module_level_scipy_imports(tree) == [1, 5, 7, 11]


def _scipy_modules_loaded_after(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return the scipy modules it loaded
    (the last line it prints)."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


_HEMISPHERE = "cap:sphere:2:psi=1.5707963267948966"

# workflow -> the scipy subpackages it loads.  The S^2 cap and vMF need none:
# on S^2 a cap's share I_s(1, 1) and its inverse are the identity.  The S^3
# cap is the other side of that branch.
_WORKFLOW_SCIPY = {
    "import": ("import geoslice, geoslice.cli", []),
    "vmf-chain": (
        "from geoslice import kernel, targets\n"
        "from geoslice.manifolds import Point\n"
        "from geoslice.rng import make_stream\n"
        "t = targets.from_spec('vmf:sphere:2:kappa=2.0')\n"
        "x0 = Point(targets.reference_samples(t, 1, make_stream(1, 7))[0])\n"
        "assert len(kernel.run_chain(x0, 100, kernel.GssConfig(t, w=1.0, m=1, seed=1)).states) == 100",
        [],
    ),
    # the disk's bin masses come from a numpy Gauss-Legendre rule and its certificate is analytic
    "disk-verify": (
        "import math\n"
        "from geoslice import harness, kernel, targets\n"
        "t = targets.from_spec('convex-uniform:ball:2:r=1.0')\n"
        "cfg = kernel.GssConfig(t, w=1.0, m=math.inf, seed=3)\n"
        "curve = harness.verify_uniform_ergodicity(t, cfg, harness.worst_start(t), [1], 1000)\n"
        "assert len(curve.points) == 1",
        [],
    ),
    "s2-cap-verify": (
        "import math\n"
        "from geoslice import harness, kernel, targets\n"
        f"t = targets.from_spec({_HEMISPHERE!r})\n"
        "cfg = kernel.GssConfig(t, w=2.0 * math.pi, m=1, seed=3)\n"
        "curve = harness.verify_uniform_ergodicity(t, cfg, harness.worst_start(t), [1], 1000,\n"
        "                                          threads=1, epsilon_mode='corollary')\n"
        "assert curve.certified and len(curve.points) == 1",
        [],
    ),
    "s2-cap-bounds": (
        f"from geoslice import cli\nassert cli.main(['bounds', '--target', {_HEMISPHERE!r}]) == 0",
        [],
    ),
    "s2-vmf-bounds": (
        "from geoslice import cli\nassert cli.main(['bounds', '--target', 'vmf:sphere:2:kappa=2.0']) == 0",
        [],
    ),
    # its probes start from exact draws of the cap
    "s2-cap-monte-carlo": (
        "from geoslice import bounds, targets\n"
        "from geoslice.rng import make_stream\n"
        f"t = targets.from_spec({_HEMISPHERE!r})\n"
        "r = bounds.full_report(t, 4, 1.0, 'monte-carlo', rng=make_stream(3, 0), mc_probes=2, mc_runs=50)\n"
        "assert r.epsilon > 0",
        [],
    ),
    "s3-cap-bounds": (
        "from geoslice import cli\nassert cli.main(['bounds', '--target', 'cap:sphere:3:psi=1.0']) == 0",
        ["scipy.special"],
    ),
}


@pytest.mark.parametrize("code,expected", _WORKFLOW_SCIPY.values(), ids=_WORKFLOW_SCIPY.keys())
def test_scipy_modules_a_workflow_loads(code, expected):
    loaded = ast.literal_eval(_scipy_modules_loaded_after(code))
    assert bool(loaded) == bool(expected), loaded
    assert sorted({m for m in loaded if re.fullmatch(r"scipy\.[a-z]+", m)} - {"scipy.version"}) == expected


def test_ball_gauss_binning_loads_no_scipy_integrate():
    code = "from geoslice import harness, targets\n" + "".join(
        f"assert harness.make_binning(targets.from_spec({spec!r})).bin_count == {bins}\n"
        for spec, bins in [("ball-gauss:2:sigma=0.5:r=1.0", 856),
                           ("cap:sphere:1:psi=2.0", 42), ("vmf:sphere:1:kappa=2.0", 64)]
    )
    assert "scipy.integrate" not in _scipy_modules_loaded_after(code)


def _scipy_users(trees: dict) -> dict:
    """``module.function`` -> sorted scipy modules its body imports, for every
    top-level function (nested functions and methods count for their outer one)."""
    users = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            mods = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    mods |= {a.name for a in node.names if _is_scipy(a.name)}
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module or ""):
                    mods |= {f"scipy.{a.name}" for a in node.names} if node.module == "scipy" else {node.module}
            if mods:
                users[f"{module}.{stmt.name}"] = sorted(mods)
    return users


def _readme_scipy_users() -> dict:
    """The same map, read from README's list of which function loads which scipy
    module (the bullets of "Install and test" that start with a scipy module)."""
    section = (ROOT / "README.md").read_text().split("## Install and test", 1)[1]
    users = {}
    for module, body in re.findall(r"^- `(scipy[.\w]*)`(.*?)(?=\n- |\n\n)", section, re.M | re.S):
        for name in re.findall(r"`(\w+\.\w+)`", body):
            users.setdefault(name, []).append(module)
    return {name: sorted(mods) for name, mods in users.items()}


def test_scipy_users_in_src_are_the_ones_the_readme_lists():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC}
    assert _scipy_users(trees) == _readme_scipy_users() == {
        "targets._cap_share": ["scipy.special"],
        "targets._cap_share_inv": ["scipy.special"],
        "targets.ball_gaussian_target": ["scipy.special"],
        "harness.energy_distance": ["scipy.spatial.distance"],
        "harness.energy_permutation_test": ["scipy.spatial.distance", "scipy.special"],
    }


def test_check_maps_functions_to_scipy_modules():
    tree = ast.parse(
        "def f():\n    from scipy import special, integrate\n"
        "def g():\n    def h():\n        import scipy.spatial.distance\n"
        "class C:\n    def m(self):\n        from scipy.linalg import expm\n"
        "def k():\n    from .scipy import special\n    import numpy\n"
    )
    assert _scipy_users({"m": tree}) == {
        "m.f": ["scipy.integrate", "scipy.special"],
        "m.g": ["scipy.spatial.distance"],
        "m.C": ["scipy.linalg"],
    }


def test_special_functions_match_scipy_stats_bit_for_bit():
    # norm.sf(z) is ndtr(-z) and chi2.cdf(x, df=d) is chdtr(d, x), as arrays and as scalars
    from scipy import special, stats

    def bits(v):
        return np.asarray(v, dtype=np.float64).tobytes()

    z = np.linspace(-40.0, 40.0, 80_001)
    assert bits(special.ndtr(-z)) == bits(stats.norm.sf(z))
    for v in z[::100]:
        assert bits(special.ndtr(-v)) == bits(stats.norm.sf(v))
    x = np.linspace(0.0, 120.0, 24_001)
    for d in range(1, 11):
        assert bits(special.chdtr(d, x)) == bits(stats.chi2.cdf(x, df=d))
        for v in x[::300]:
            assert bits(special.chdtr(d, v)) == bits(stats.chi2.cdf(v, df=d))


_HOT_METHODS = ("exp_array", "project_tangent", "sample_tangent_array")


def _hot_path_matmuls(tree: ast.Module) -> tuple:
    """(functions checked, (name, line) of each ``@`` in them): the methods in
    ``_HOT_METHODS`` of every class and each ``density`` function nested in a
    function, as the target presets define their scalar densities."""
    checked, hits = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = _HOT_METHODS
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = ("density",)
        else:
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                checked.append(f"{node.name}.{fn.name}")
                hits += [(fn.name, n.lineno) for n in ast.walk(fn)
                         if isinstance(getattr(n, "op", None), ast.MatMult)]  # a @ b and a @= b
    return checked, sorted(hits, key=lambda h: h[1])


def test_scalar_hot_path_has_no_matmul():
    trees = {name: ast.parse((ROOT / "src" / "geoslice" / name).read_text(), name)
             for name in ("manifolds.py", "targets.py")}
    checked, hits = _hot_path_matmuls(trees["manifolds.py"])
    assert {"Manifold.sample_tangent_array", "Sphere.exp_array", "Sphere.project_tangent",
            "Euclidean.exp_array", "Torus.exp_array"} <= set(checked)
    assert hits == []
    checked, hits = _hot_path_matmuls(trees["targets.py"])
    assert {"cap_target.density", "vmf_target.density", "ball_target.density",
            "ball_gaussian_target.density"} <= set(checked)
    assert hits == []


def test_check_flags_a_matmul_in_the_hot_path():
    tree = ast.parse(
        "class S:\n    def exp_array(self, x, v, t):\n        return x @ v\n"
        "    def exp_batch(self, x, v, t):\n        return x @ v\n"
        "def vmf(mu):\n    def density(x):\n        return x @ mu\n"
        "    def density_batch(x):\n        return x @ mu\n"
        "    return density\n"
        "def density(x, mu):\n    x @= mu\n"
    )
    checked, hits = _hot_path_matmuls(tree)
    assert checked == ["S.exp_array", "vmf.density"]
    assert hits == [("exp_array", 3), ("density", 8)]
