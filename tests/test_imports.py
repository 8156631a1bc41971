"""No module under src/, tests/ or scripts/ imports a name it never uses, and
no private top-level name in src/ is left without a reader."""

import ast
from pathlib import Path

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
