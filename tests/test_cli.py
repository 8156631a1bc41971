import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import oracles
from geoslice import cli, harness


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_bounds_config():
    cfg = cli.parse_config(
        ["bounds", "--target", "uniform:sphere:1", "--m", "1", "--w", "6.2831853"]
    )
    assert cfg.command == "bounds"
    assert cfg.m == 1 and cfg.w == pytest.approx(6.2831853)
    assert cfg.seed is not None  # fresh seed recorded


def test_parse_m_inf_and_bad_values():
    cfg = cli.parse_config(["sample", "--target", "convex-uniform:ball:2:r=1.0", "--m", "inf"])
    assert math.isinf(cfg.m)
    with pytest.raises(cli.UsageError):
        cli.parse_config(["sample", "--target", "uniform:sphere:2", "--m", "2.5"])
    with pytest.raises(cli.UsageError):
        cli.parse_config(["sample", "--target", "uniform:sphere:2", "--w", "-1"])


def test_sample_with_unbounded_budget_on_sphere_is_usage_error(capsys):
    code, out, err = run_cli(
        ["sample", "--target", "uniform:sphere:2", "--m", "inf", "--seed", "3"], capsys
    )
    assert code == 2
    assert "bounded" in err and "finite m" in err


def test_config_file_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("w = 2.5\nm = 1\nseed = 99  # fixed\n")
    cfg = cli.parse_config(
        ["bounds", "--target", "uniform:sphere:1", "--config", str(cfgfile), "--w", "7.0"]
    )
    assert cfg.w == 7.0  # flag wins
    assert cfg.m == 1 and cfg.seed == 99  # file fills the rest
    code, out, _ = run_cli(
        ["bounds", "--target", "uniform:sphere:1", "--config", str(cfgfile), "--w", "7.0"],
        capsys,
    )
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# config:")][0]
    assert json.loads(header.split("# config: ")[1])["w"] == 7.0


def test_config_file_unknown_key_rejected(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("frobnicate = 3\n")
    with pytest.raises(cli.UsageError):
        cli.parse_config(["bounds", "--target", "uniform:sphere:1", "--config", str(cfgfile)])


# one value per option, none of them its default
_OPTION_VALUES = {
    "target": "uniform:sphere:2", "m": "3", "w": "1.5", "seed": "42", "out": "run.out",
    "steps": "7", "burn-in": "2", "thin": "2", "x0": "0,1,0",
    "epsilon-mode": "analytic", "n-list": "1,2", "replicates": "2000", "bins": "9",
    "samples": "50", "quick": "yes", "gnuplot": "true",
}


def test_config_file_value_parses_like_the_flag(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    cfgfile = tmp_path / "run.cfg"
    for cmd, names in cli._COMMANDS.items():
        for i, name in enumerate(names):
            value = _OPTION_VALUES[name]
            key = name.replace("-", "_") if i % 2 else name  # both spellings
            cfgfile.write_text(f"{key} = {value}\n")
            dest = name.replace("-", "_")
            parsed = lambda *args: getattr(cli.parse_config([cmd, "--config", *args]), dest)
            via_file = parsed(str(cfgfile))
            via_flag = parsed(str(empty), f"--{name}", value)
            default = parsed(str(empty))
            assert via_file == via_flag, (cmd, name)
            assert via_flag != default or name == "seed", (cmd, name)  # the seed default is fresh
    # a boolean key with no value means true, as the bare flag does
    cfgfile.write_text("quick =\n")
    assert cli.parse_config(["lemmas", "--config", str(cfgfile)]).quick is True


def test_help_for_every_command(capsys):
    for cmd in ("sample", "bounds", "verify", "invariance", "lemmas", "hyperopt"):
        assert cli.main([cmd, "--help"]) == 0, cmd
        assert capsys.readouterr().out.startswith(f"usage: geoslice {cmd}"), cmd


def test_unknown_flag_is_usage_error(capsys, tmp_path):
    assert run_cli(["bounds", "--target", "uniform:sphere:1", "--frob", "1"], capsys)[0] == 2
    # malformed or out-of-range values are usage errors too, caught before any output
    sphere2 = ["--target", "uniform:sphere:2", "--m", "1", "--seed", "1"]
    cases = [
        ["sample", *sphere2, "--x0", "1,0"],
        ["sample", *sphere2, "--x0", "a,b,c"],
        ["sample", *sphere2, "--x0", "nan,0,0"],
        ["verify", *sphere2, "--x0", "1,0"],
        ["sample", *sphere2, "--steps", "-1"],
        ["sample", *sphere2, "--thin", "0"],
        ["sample", *sphere2, "--w", "inf"],  # stepping out would never end
        ["sample", *sphere2, "--burn-in", "-5"],
        ["sample", *sphere2, "--seed=-1"],
        ["sample", *sphere2, "--seed", str(2**64 + 5)],  # would alias seed 5
        ["verify", *sphere2, "--replicates", "10"],
        ["verify", *sphere2, "--bins", "-4"],
        ["verify", *sphere2, "--bins", "0"],
        ["verify", *sphere2, "--n-list", "0"],
        ["verify", *sphere2, "--n-list", "-3"],
        # a bias >= 1 would make every TV check pass
        ["verify", "--target", "uniform:sphere:1", "--m", "1", "--replicates", "1000",
         "--n-list", "1", "--seed", "1", "--bins", "100000"],
        ["verify", *sphere2, "--gnuplot"],  # the script goes next to --out
        ["invariance", *sphere2, "--samples", "0"],
        # inputs the certificate or the binning does not cover, as bounds rejects them
        ["verify", "--target", "cap:sphere:3:psi=1.0", "--m", "1", "--w", "1", "--seed", "1"],
        ["verify", "--target", "vmf:sphere:3:kappa=1", "--m", "1",
         "--w", str(2 * math.pi), "--seed", "1"],
        ["verify", "--target", "convex-uniform:ball:3:r=1", "--m", "inf", "--w", "1",
         "--seed", "1"],
    ]
    # options a command does not read are rejected, not ignored
    for cmd, option, value in [
        ("sample", "threads", "2"), ("bounds", "threads", "2"), ("verify", "threads", "2"),
        ("invariance", "threads", "2"), ("invariance", "out", "x.txt"),
        ("lemmas", "target", "uniform:sphere:2"), ("lemmas", "m", "1"),
        ("lemmas", "w", "1.0"), ("lemmas", "threads", "2"),
        ("hyperopt", "m", "1"), ("hyperopt", "w", "1.0"),
        ("hyperopt", "threads", "2"), ("hyperopt", "out", "x.txt"),
    ]:
        base = ["--seed", "1", "--quick"] if cmd == "lemmas" else sphere2
        cases.append([cmd, *base, f"--{option}", value])
    # config-file values are checked like flags, and the error names the file and line
    for cmd, line in [
        ("bounds", "seed = 1.5"), ("bounds", "w = abc"), ("bounds", "m = 2.5"),
        ("lemmas", "quick = maybe"), ("bounds", "threads = 2"), ("verify", "threads = 2"),
        ("bounds", "epsilon_mode = bogus"),
    ]:
        cfgfile = tmp_path / f"bad{len(cases)}.cfg"
        cfgfile.write_text(line + "\n")
        target = [] if cmd == "lemmas" else ["--target", "uniform:sphere:1"]
        cases.append([cmd, *target, "--config", str(cfgfile)])
    for args in cases:
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert "runtime error" not in err and len(err.splitlines()) == 1, args
        if "--config" in args:
            assert f"{args[-1]}:1" in err, args


def test_bounds_stdout_contains_rho(capsys):
    code, out, _ = run_cli(
        ["bounds", "--target", "uniform:sphere:1", "--m", "1",
         "--w", str(2 * math.pi), "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert "rho = 0.5" in out
    assert "# seed: 5" in out
    code, out, _ = run_cli(
        ["bounds", "--target", "vmf:sphere:2:kappa=2.0", "--m", "1", "--w", str(2 * math.pi)],
        capsys,
    )
    assert code == 0
    assert "rho = 0.97" in out and "np." not in out


def test_bounds_json_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["bounds", "--target", "convex-uniform:ball:2:r=1.0", "--m", "inf", "--w", "1.0",
         "--seed", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# geoslice ")
    payload = json.loads(lines[-1])
    assert payload["rho"] == pytest.approx(0.875)


def test_sample_writes_jsonl_with_header(tmp_path, capsys):
    out = tmp_path / "chain.jsonl"
    code, _, _ = run_cli(
        ["sample", "--target", "uniform:sphere:1", "--m", "1", "--w", str(2 * math.pi),
         "--seed", "11", "--steps", "20", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 11
    assert header["geoslice_chain"]["target"] == "uniform:sphere:1"
    # the caps are module constants, still recorded with each chain
    assert header["geoslice_chain"]["max_expansions"] == 1_000_000
    assert header["geoslice_chain"]["max_shrink_iters"] == 100_000
    assert len(lines) == 21
    rec = json.loads(lines[1])
    assert set(rec) == {"i", "x", "t", "w_int", "k_shrink"}


def _strip_timestamps(text: str):
    kept = []
    for line in text.splitlines():
        if line.startswith("# timestamp"):
            continue
        if line.startswith("{"):
            obj = json.loads(line)
            obj.pop("timestamp", None)
            kept.append(json.dumps(obj, sort_keys=True))
        else:
            kept.append(line)
    return kept


def test_sample_deterministic_across_runs(tmp_path, capsys, monkeypatch):
    # identical invocations (same relative --out) from two directories
    args = ["sample", "--target", "vmf:sphere:2:kappa=2.0", "--m", "1",
            "--w", str(2 * math.pi), "--seed", "31", "--steps", "40",
            "--out", "chain.jsonl"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    monkeypatch.chdir(d1)
    assert run_cli(args, capsys)[0] == 0
    monkeypatch.chdir(d2)
    assert run_cli(args, capsys)[0] == 0
    assert _strip_timestamps((d1 / "chain.jsonl").read_text()) == _strip_timestamps(
        (d2 / "chain.jsonl").read_text()
    )


def test_verify_circle_uniform_pass_and_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        ["verify", "--target", "uniform:sphere:1", "--m", "1", "--w", str(2 * math.pi),
         "--seed", "21", "--n-list", "1", "--replicates", "3000",
         "--out", str(out), "--gnuplot"],
        capsys,
    )
    assert code == 0
    assert "verify: PASS" in stdout
    text = out.read_text().splitlines()
    assert "n,tv,se,envelope,pass" in text
    data_row = text[text.index("n,tv,se,envelope,pass") + 1].split(",")
    assert data_row[0] == "1" and data_row[4] == "1"
    assert all(math.isfinite(float(cell)) for cell in data_row)  # plain floats gnuplot reads
    assert (tmp_path / "curve.csv.gp").exists()


def test_invariance_command(capsys):
    code, out, _ = run_cli(
        ["invariance", "--target", "uniform:sphere:1", "--m", "1", "--w", str(2 * math.pi),
         "--seed", "23", "--samples", "3000"],
        capsys,
    )
    assert code == 0
    assert "invariance: PASS" in out


def test_invariance_default_samples_are_what_the_energy_test_reads():
    # the energy test reads at most its subsample per side, so a larger default would
    # step transitions and draw points that are never read
    cfg = cli.parse_config(["invariance", "--target", "uniform:sphere:2"])
    subsample = inspect.signature(harness.energy_permutation_test).parameters["subsample"].default
    assert cfg.samples == subsample == harness.ENERGY_SUBSAMPLE


def test_lemmas_quick_command(capsys):
    code, out, _ = run_cli(["lemmas", "--seed", "20260810", "--quick"], capsys)
    assert code == 0
    assert "battery: PASS" in out
    assert "stepout-covering" in out


def test_hyperopt_command(capsys):
    code, out, _ = run_cli(["hyperopt", "--seed", "1"], capsys)
    assert code == 0
    assert "regime" in out
    assert "convex-uniform:ball:2:r=1.0" in out
    # every sphere preset proves the most at full winding
    rows = [line.split()[:5] for line in out.splitlines() if ":sphere:" in line]
    assert rows and all(r[2:] == ["1", repr(2 * math.pi), "0.159155"] for r in rows)


def test_bad_target_spec_is_usage_error(capsys):
    for cmd in ("bounds", "hyperopt"):
        code, out, err = run_cli([cmd, "--target", "wat:sphere:2", "--seed", "1"], capsys)
        assert code == 2, cmd
        assert "preset" in err and out == "", cmd
    spec = "vmf:sphere:2:kappa=2.0:kapa=3"
    code, _, err = run_cli(["bounds", "--target", spec, "--seed", "1"], capsys)
    assert code == 2
    assert "kapa" in err
    # vector fields must match the declared dimension
    for spec in ["convex-uniform:box:3:extents=1,2", "cap:sphere:2:psi=1.0:pole=1,0"]:
        code, _, err = run_cli(["bounds", "--target", spec, "--seed", "1"], capsys)
        assert code == 2, spec
    # a repeated key would otherwise let the last value win
    code, out, err = run_cli(["bounds", "--target", "cap:sphere:2:psi=1:psi=2", "--seed", "1"], capsys)
    assert (code, out) == (2, "") and "'psi' given twice" in err
    # a cap below the colatitude floor; exp(kappa) past ~709.78 overflows
    for spec, word in [("cap:sphere:2:psi=1e-10", "colatitude"), ("vmf:sphere:2:kappa=800", "concentration")]:
        for cmd in ("bounds", "sample"):
            code, out, err = run_cli([cmd, "--target", spec, "--m", "1", "--w", "1", "--seed", "1"], capsys)
            assert code == 2 and word in err and out == "", (cmd, spec)


@pytest.mark.parametrize("args,word", [
    ("bounds --target convex-uniform:ball:2:r=1e200 --m inf --w 1", "r=1e+200"),
    ("bounds --target convex-uniform:ball:2:r=1e-320 --m inf --w 1", "r=1e-320"),
    ("verify --target convex-uniform:ball:2:r=inf --m 1 --w 1 --replicates 1000 --n-list 1",
     "radius"),
    ("bounds --target ball-gauss:2:sigma=1e-200:r=1 --m inf --w 1", "sigma=1e-200"),
    ("bounds --target ball-gauss:2:sigma=1e200:r=1 --m inf --w 1", "sigma=1e+200"),
    ("bounds --target uniform:torus:2:inf --m 1 --w 1", "period"),
    ("invariance --target convex-uniform:box:2:extents=inf,1 --m 1 --w 1 --samples 10", "extent"),
    ("hyperopt --target convex-uniform:box:2:extents=inf,1", "extent"),
], ids=lambda v: v.split(" --m")[0] if " " in v else v)
def test_preset_parameters_out_of_range_are_usage_errors(args, word, capsys):
    # infinite, overflowing or underflowing radii, widths, periods and extents
    code, out, err = run_cli([*args.split(), "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("geoslice: error:") and len(err.splitlines()) == 1, err
    assert word in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    "bounds --target uniform:sphere:400 --m 1 --w 1",
    "bounds --target cap:sphere:400:psi=1 --m 1 --w 1",
    "bounds --target vmf:sphere:400:kappa=2 --m 1 --w 1",
    "bounds --target uniform:torus:400:1 --m 1 --w 1",
    "hyperopt --target uniform:sphere:400",
    "bounds --target convex-uniform:ball:400:r=1 --m inf --w 1",
    "bounds --target uniform:sphere:100000 --m 1 --w 6.283185307179586",
], ids=lambda v: v.split(" --target ")[1].split(" ")[0])
def test_large_dimensions_are_not_runtime_errors(args, capsys):
    # math.gamma overflows past d = 340 or so; areas and volumes fall back to logs.
    # A worst start is one basis vector, not a row of a d x d identity (75 GiB at d = 1e5)
    code, out, err = run_cli([*args.split(), "--seed", "1"], capsys)
    assert code in (0, 2), err
    assert "Traceback" not in err and "runtime error" not in err
    assert (out == "") == (code == 2) and len(err.splitlines()) == (code == 2)


def test_invariance_on_a_30_dimensional_ball_finishes():
    # the ball's reference sampler once proposed from the cube [-1, 1]^30 and
    # kept about one draw in 5e13; a subprocess bounds the run if that returns
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    args = "invariance --target convex-uniform:ball:30:r=1 --m inf --w 1 --samples 10 --seed 1"
    proc = subprocess.run([sys.executable, "-m", "geoslice.cli", *args.split()],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "invariance: PASS" in proc.stdout


@pytest.mark.parametrize("args", [
    "sample --target convex-uniform:ball:2:r=1e-200 --m 1 --w 1 --steps 3",
    "sample --target convex-uniform:box:2:extents=5e-324,1.0 --m 1 --w 1 --steps 3",
    "invariance --target ball-gauss:2000:sigma=1.0:r=5 --m inf --w 1 --samples 10",
], ids=lambda v: v.split(" --target ")[1].split(" ")[0])
def test_degenerate_targets_are_refused_not_hung(args):
    # r^2 or a half-extent that underflows makes the density 0 everywhere, and a ball-Gaussian
    # whose P underflows at r^2 / sigma^2 >= 8.5 could only thin with a vanishing yield: no
    # exact draw would ever come back, so a subprocess bounds the run if one is attempted
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "geoslice.cli", *args.split(), "--seed", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert "is not a positive normal float" in proc.stderr and "Traceback" not in proc.stderr


def _printed(out: str, name: str) -> float:
    return float(next(line for line in out.splitlines() if line.startswith(f"{name} = ")).split()[2])


def _certificate(args: str, capsys) -> float:
    """e^log_gap = 1 - rho of a certified `bounds` run, checked against its printed rho."""
    code, out, err = run_cli(["bounds", "--target", *args.split(), "--seed", "1"], capsys)
    assert (code, err) == (0, "") and out.splitlines()[-1].endswith(" [certified]")
    log_gap = _printed(out, "log_gap")
    assert _printed(out, "rho") == -math.expm1(log_gap)
    return math.exp(log_gap)


@pytest.mark.parametrize("dim", [438, 440, 450, 454, 456, 700, 10_000])
def test_sphere_areas_past_the_float_range_print_their_values(dim, capsys):
    # past d = 437 the level set and then the area underflow a float; their logs do not.
    # 1 - rho = area(S^d) / (2 pi area(S^(d-1))): 0.01902963619445154 at d = 440
    gap = _certificate(f"uniform:sphere:{dim} --m 1 --w 6.283185307179586", capsys)
    exact = mpmath.exp(oracles.log_sphere_area(dim + 1) - oracles.log_sphere_area(dim)) / (2 * mpmath.pi)
    assert gap == pytest.approx(float(exact), rel=1e-11)


_FAR_CERTIFICATES = [
    ("convex-uniform:ball:300:r=1 --m inf --w 1", math.exp(-213.64793664263979), 1e-12),
    ("convex-uniform:ball:800:r=10 --m inf --w 1", math.exp(-561.20235617562417), 1e-12),
    ("ball-gauss:40:sigma=1.0:r=30 --m inf --w 1", 4.238382832172538e-50, 1e-9),
    ("ball-gauss:60:sigma=1.0:r=30 --m inf --w 1", 7.054671261586005e-69, 1e-9),
    ("vmf:sphere:60:kappa=500.0 --m 1 --w 6.283185307179586", None, 1e-9),
    ("vmf:sphere:500:kappa=2.0 --m 1 --w 6.283185307179586", None, 1e-9),
]


@pytest.mark.parametrize("args,gap,rel", _FAR_CERTIFICATES, ids=[a.split(" ")[0] for a, _, _ in _FAR_CERTIFICATES])
def test_far_certificates_print_their_values(args, gap, rel, capsys):
    # refused as over- or underflows, or wrong where the level scan stopped at 1e-6 p_max;
    # the values are mpmath's (1 / (d 2^d) for the balls)
    if gap is None:  # epsilon = kappa = 1: sup t * area({p > t}) / p_max over 2 pi omega_(d-1)
        d, kappa = int(args.split(":")[2]), float(args.split("kappa=")[1].split()[0])
        log_sup = oracles.vmf_log_sup_t_level(d, kappa) - kappa
        gap = float(mpmath.exp(log_sup - oracles.log_sphere_area(d)) / (2 * mpmath.pi))
    assert _certificate(args, capsys) == pytest.approx(gap, rel=rel)


def test_cap_too_small_for_its_density_is_a_usage_error(capsys):
    # below 1e-9 coordinates near a generic pole cannot place a start inside the cap
    args = "invariance --target cap:sphere:30:psi=9e-10 --m 1 --samples 2000 --seed 1"
    code, out, err = run_cli(args.split(), capsys)
    assert (code, out) == (2, "") and "cap colatitude must lie in [1e-9, pi], got 9e-10" in err


@pytest.mark.parametrize("spec,code,word", [
    ("vmf:sphere:2:kappa=1:mu=1e308,1e308,0", 0, "mu=0.7071067811865475,0.7071067811865475,0.0"),
    ("cap:sphere:2:psi=1:pole=1e-320,0,0", 0, "pole=1.0,0.0,0.0"),
    ("cap:sphere:2:psi=1:pole=inf,0,1", 2, "axis [inf, 0.0, 1.0] is not a finite nonzero vector"),
], ids=["mu-1e308", "pole-1e-320", "pole-inf"])
def test_axes_at_any_float_scale_and_non_finite_axes(spec, code, word, capsys):
    # the first sampled a uniform density (its mu overflowed to 0), the second was refused as
    # zero, and the third failed with an index error
    got, out, err = run_cli(["sample", "--target", spec, "--m", "1", "--w", "1", "--steps", "2", "--seed", "1"],
                            capsys)
    assert got == code, err
    if code == 0:
        assert word in json.loads(out.splitlines()[0])["geoslice_chain"]["target"]
    else:
        assert out == "" and err.startswith("geoslice: error:") and word in err


@pytest.mark.parametrize("spec", ["cap:sphere:40:psi=1e-9", "cap:sphere:300:psi=0.001"])
def test_cap_whose_share_underflows_is_a_usage_error(spec, capsys):
    # its area underflowed to 0 and every exact draw was the pole, so invariance failed a correct kernel
    code, out, err = run_cli(["invariance", "--target", spec, "--seed", "3", "--samples", "2000"], capsys)
    d, psi = int(spec.split(":")[2]), float(spec.split("psi=")[1])
    assert (code, out) == (2, "") and f"psi={psi!r} on S^{d} = 0.0 is not a positive normal float" in err


@pytest.mark.parametrize("args", [
    "sample --target cap:sphere:2:psi=0.5 --m 1 --w 1 --steps 3 --x0=-1,0,0",
    f"verify --target cap:sphere:2:psi=1.0 --m 1 --w {2 * math.pi!r} --n-list 1 --replicates 3000 --x0 0,0,-1",
    "verify --target convex-uniform:ball:2:r=1 --m inf --w 1 --x0=5,5",
], ids=["sample-cap", "verify-cap", "verify-ball"])
def test_start_outside_the_support_is_a_usage_error(args, capsys):
    # the chain would refuse it only after the run began, as a runtime error
    code, out, err = run_cli([*args.split(), "--seed", "21"], capsys)
    assert (code, out) == (2, "") and err.startswith("geoslice: error: bad --x0 ") and "density is 0" in err


def test_verify_on_the_circle_takes_at_least_two_bins(capsys):
    # one cell holds all the mass, so its TV would read 0 whatever the chain did
    args = (f"verify --target vmf:sphere:1:kappa=2.0 --m 1 --w {2 * math.pi!r} --n-list 1 "
            "--replicates 1000 --bins 1 --seed 1")
    code, out, _ = run_cli(args.split(), capsys)
    assert code == 0
    assert "  n=1: tv=0.40495 se=0.01609 envelope=0.93019 ok " in out.splitlines()


def test_large_sphere_is_certified_at_full_winding(capsys):
    # rho = 0.98004041514992776 from mpmath; lgamma(200)'s rounding leaves 1 - rho
    # about 1e-13 off, as the exp of the same logs did before the certificate went to logs
    args = "bounds --target uniform:sphere:400 --m 1 --w 6.283185307179586 --seed 1"
    code, out, _ = run_cli(args.split(), capsys)
    assert code == 0 and "rho = 0.9800404151499256 [certified]" in out.splitlines()


def test_threads_environment_variable_is_ignored(monkeypatch):
    args = ["verify", "--target", "uniform:sphere:1", "--seed", "1"]
    monkeypatch.delenv("GEOSLICE_THREADS", raising=False)
    unset = vars(cli.parse_config(args))
    monkeypatch.setenv("GEOSLICE_THREADS", "abc")
    assert vars(cli.parse_config(args)) == unset and "threads" not in unset


def test_verify_marks_vacuous_verdicts(capsys):
    # at 1,000 replicates on the disk rho + bias = 1.240 >= 1, so n = 1 cannot fail
    code, out, _ = run_cli(
        ["verify", "--target", "convex-uniform:ball:2:r=1.0", "--m", "inf", "--w", "1.0",
         "--seed", "9", "--n-list", "1,5", "--replicates", "1000"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert [line.split(",")[4] for line in lines if line[:2] in ("1,", "5,")] == ["1", "1"]
    per_n = [line for line in lines if line.startswith("  n=")]
    assert per_n[0].startswith("  n=1:") and per_n[0].endswith(" vacuous")
    assert per_n[1].startswith("  n=5:") and per_n[1].endswith(" ok ")


def test_verify_advisory_epsilon_exits_nonzero(capsys):
    code, out, _ = run_cli(
        ["verify", "--target", "convex-uniform:ball:2:r=1.0", "--m", "inf", "--w", "1.0",
         "--seed", "9", "--n-list", "1", "--replicates", "2000",
         "--epsilon-mode", "monte-carlo"],
        capsys,
    )
    assert code == 1
    assert "ADVISORY" in out


def test_bounds_and_verify_share_the_monte_carlo_epsilon(capsys):
    common = ["--target", "cap:sphere:2:psi=1.5707963267948966", "--m", "4", "--w", "1.0",
              "--seed", "5", "--epsilon-mode", "monte-carlo"]

    def rho(out):
        return float(next(line for line in out.splitlines() if line.startswith("rho = ")).split()[2])

    code, out, _ = run_cli(["bounds", *common], capsys)
    assert code == 0
    rho_bounds = rho(out)
    code, out, _ = run_cli(["verify", *common, "--n-list", "1", "--replicates", "1000", "--bins", "4"], capsys)
    assert code == 1 and "verify: ADVISORY" in out
    assert rho(out) == rho_bounds
    # an advisory curve marks each n by its own check: tv = 0.286 is well inside 0.9425
    assert "  n=1: tv=0.28600 se=0.01463 envelope=0.94250 ok " in out.splitlines()
    assert [line.split(",")[4] for line in out.splitlines() if line.startswith("1,")] == ["1"]


def test_bounds_rejects_infinite_lambda_eff_before_any_epsilon_draw(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("estimate_epsilon called")

    monkeypatch.setattr(cli.bounds, "estimate_epsilon", never)
    code, out, err = run_cli(
        ["bounds", "--target", "uniform:sphere:1", "--m", "inf", "--w", "1", "--seed", "1",
         "--epsilon-mode", "monte-carlo"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "min(m w, lambda) must be positive and finite" in err


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", readme, re.MULTILINE)
    table = {cmd: tuple(opt.removeprefix("--") for opt in opts.split()) for cmd, opts in rows}
    assert table == cli._COMMANDS


def test_invariance_prints_the_same_bits_at_one_and_two_blas_threads():
    root = Path(__file__).resolve().parent.parent
    args = "invariance --target cap:sphere:2:psi=1.5707963267948966 --samples 2000 --seed 3"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "geoslice.cli", *args.split()],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append([line for line in proc.stdout.splitlines() if not line.startswith("#")])
    assert outs[0] == outs[1] and "invariance: PASS" in outs[0]
