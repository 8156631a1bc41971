"""Command-line entry point.

Subcommands
-----------
sample      run one chain, stream it as JSON lines
bounds      print the convergence certificate for a target/hyperparameter pair
verify      endpoint-ensemble TV decay against the certified envelope (CSV)
invariance  one-step invariance two-sample test
lemmas      distributional battery for the 1-D procedures
hyperopt    optimal hyperparameter table

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags override file values, unknown keys are rejected.  Every output
file starts with a header carrying the tool version, command line and seed;
timestamps appear only in that header.  Exit codes: 0 success/PASS,
1 statistical FAIL, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__, bounds, harness, kernel, targets
from .rng import fresh_seed, make_stream


class UsageError(ValueError):
    pass


_COMMON = {
    "config": dict(type=str, help="flat key = value config file; flags override"),
    "target": dict(type=str, help="target spec, e.g. uniform:sphere:2 or vmf:sphere:2:kappa=2"),
    "m": dict(type=str, help="expansion budget: positive integer or 'inf'"),
    "w": dict(type=float, help="stepping-out width (> 0)"),
    "seed": dict(type=int, help="64-bit master seed (default: fresh, recorded)"),
    "threads": dict(type=int, help="worker threads (default: env GEOSLICE_THREADS or 1)"),
    "out": dict(type=str, help="output file path"),
}

_PER_COMMAND = {
    "sample": {
        "steps": dict(type=int, help="number of recorded states"),
        "burn-in": dict(type=int, help="discarded initial steps"),
        "thin": dict(type=int, help="record every thin-th step"),
        "x0": dict(type=str, help="initial point as comma-separated coordinates"),
    },
    "bounds": {
        "epsilon-mode": dict(type=str, help="auto | analytic | corollary | monte-carlo"),
    },
    "verify": {
        "n-list": dict(type=str, help="comma-separated step counts, e.g. 1,5,10"),
        "replicates": dict(type=int, help="chains per ensemble"),
        "bins": dict(type=int, help="bin count override"),
        "epsilon-mode": dict(type=str, help="auto | analytic | corollary | monte-carlo"),
        "x0": dict(type=str, help="start point override (default: worst-start heuristic)"),
        "gnuplot": dict(action="store_true", help="also emit a gnuplot script next to the CSV"),
    },
    "invariance": {
        "samples": dict(type=int, help="exact draws per side"),
    },
    "lemmas": {
        "quick": dict(action="store_true", help="reduced sample sizes"),
    },
    "hyperopt": {},
}

_DEFAULTS = {
    "threads": None,  # resolved from env later
    "seed": None,     # resolved to a fresh recorded seed
    "m": "1",
    "w": 2.0 * math.pi,
    "steps": 1000,
    "burn_in": 0,
    "thin": 1,
    "n_list": "1,5,10",
    "replicates": 10_000,
    "samples": 20_000,
    "epsilon_mode": "auto",
}


@dataclass
class RunConfig:
    command: str
    argv: list
    values: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def resolved(self) -> dict:
        out = {"command": self.command}
        for k, v in sorted(self.values.items()):
            if v is None:
                continue
            out[k] = v
        return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoslice",
        description="geodesic slice sampling with explicit convergence certificates",
    )
    parser.add_argument("--version", action="version", version=f"geoslice {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, extra in _PER_COMMAND.items():
        sp = subs.add_parser(cmd)
        for name, kw in {**_COMMON, **extra}.items():
            if kw.get("action") == "store_true":
                sp.add_argument(f"--{name}", action="store_true", default=None)
            else:
                sp.add_argument(f"--{name}", default=None, **kw)
    return parser


def _read_config_file(path: str, allowed: set) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in allowed:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = val
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    return out


_CASTS = {
    "w": float,
    "seed": int,
    "threads": int,
    "steps": int,
    "burn_in": int,
    "thin": int,
    "replicates": int,
    "samples": int,
    "bins": int,
    "quick": lambda s: str(s).lower() in ("1", "true", "yes"),
    "gnuplot": lambda s: str(s).lower() in ("1", "true", "yes"),
}

_MINIMUMS = {
    "steps": 0,
    "burn_in": 0,
    "thin": 1,
    "replicates": harness.MIN_TV_POINTS,  # each ensemble feeds one TV estimate
    "samples": 1,
    "bins": 1,
}


def parse_config(argv=None) -> RunConfig:
    """Parse command line plus optional config file into a resolved RunConfig."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _build_parser().parse_args(argv)
    command = ns.command
    values = {k.replace("-", "_"): v for k, v in vars(ns).items() if k != "command"}
    allowed = set(values)
    if values.get("config"):
        file_vals = _read_config_file(values["config"], allowed)
        for k, v in file_vals.items():
            if values.get(k) is None:  # explicit flags win
                values[k] = _CASTS.get(k, str)(v)
    for k, v in _DEFAULTS.items():
        if k in values and values[k] is None:
            values[k] = v
    if values.get("threads") is None:
        values["threads"] = int(os.environ.get("GEOSLICE_THREADS", "1"))
    if values.get("seed") is None:
        values["seed"] = fresh_seed()
    cfg = RunConfig(command=command, argv=argv, values=values)
    _validate(cfg)
    return cfg


def _parse_m(text) -> float:
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        mv = float(text)
    else:
        t = str(text).strip().lower()
        mv = math.inf if t in ("inf", "infinity") else float(t)
    if not math.isinf(mv) and (mv < 1 or int(mv) != mv):
        raise UsageError(f"m must be a positive integer or 'inf', got {text!r}")
    return mv


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    if "m" in v and v["m"] is not None:
        v["m"] = _parse_m(v["m"])
    if "w" in v and v["w"] is not None and not v["w"] > 0:
        raise UsageError(f"w must be positive, got {v['w']}")
    if "n_list" in v and v["n_list"] is not None and isinstance(v["n_list"], str):
        try:
            v["n_list"] = [int(s) for s in v["n_list"].split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"bad n-list {v['n_list']!r}") from None
        if not v["n_list"] or min(v["n_list"]) < 1:
            raise UsageError(f"n-list needs step counts >= 1, got {v['n_list']}")
    for key, low in _MINIMUMS.items():
        if v.get(key) is not None and v[key] < low:
            raise UsageError(f"--{key.replace('_', '-')} must be >= {low}, got {v[key]}")
    if v.get("epsilon_mode") not in (None,) + bounds.EPSILON_MODES:
        raise UsageError(f"bad epsilon-mode {v['epsilon_mode']!r}")


def _resolve_target(cfg: RunConfig) -> targets.Target:
    spec = cfg.values.get("target")
    if not spec:
        raise UsageError(f"command {cfg.command!r} needs --target")
    try:
        return targets.from_spec(spec)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _start(cfg: RunConfig, target: targets.Target):
    """The --x0 point on the target's manifold."""
    try:
        return target.manifold.point([float(s) for s in cfg.x0.split(",")])
    except ValueError as e:
        raise UsageError(f"bad --x0 {cfg.x0!r}: {e}") from None


def _gss_config(cfg: RunConfig, target: targets.Target) -> kernel.GssConfig:
    try:
        return kernel.GssConfig(target=target, w=cfg.w, m=cfg.m, seed=cfg.seed)
    except kernel.ConfigError as e:
        raise UsageError(str(e)) from None


def _header_lines(cfg: RunConfig) -> list:
    return [
        f"# geoslice {__version__}",
        f"# command: geoslice {' '.join(cfg.argv)}",
        f"# seed: {cfg.seed}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        f"# config: {json.dumps(cfg.resolved(), sort_keys=True, default=str)}",
    ]


def dispatch(cfg: RunConfig) -> int:
    """Execute a parsed run configuration; returns the process exit code."""
    handler = {
        "sample": _cmd_sample,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "invariance": _cmd_invariance,
        "lemmas": _cmd_lemmas,
        "hyperopt": _cmd_hyperopt,
    }[cfg.command]
    return handler(cfg)


def _cmd_bounds(cfg: RunConfig) -> int:
    target = _resolve_target(cfg)
    mode = cfg.values.get("epsilon_mode") or "auto"
    rng = make_stream(cfg.seed, 0) if mode == "monte-carlo" else None
    try:
        report = bounds.full_report(target, cfg.m, cfg.w, mode, rng=rng)
    except (bounds.ApplicabilityError, ValueError) as e:
        raise UsageError(str(e)) from None
    for line in _header_lines(cfg):
        print(line)
    for line in report.lines():
        print(line)
    if cfg.values.get("out"):
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(_header_lines(cfg)) + "\n")
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0


def _cmd_sample(cfg: RunConfig) -> int:
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    if cfg.values.get("x0"):
        x0 = _start(cfg, target)
    elif target.has_reference_sampler:
        x0 = targets.reference_sample(target, make_stream(cfg.seed, 7))
    else:
        x0 = harness.worst_start(target)
    header_extra = {
        "geoslice": __version__,
        "command": "geoslice " + " ".join(cfg.argv),
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if cfg.values.get("out"):
        with open(cfg.out, "w", encoding="utf-8") as fh:
            kernel.run_chain(
                x0, cfg.steps, gss, burn_in=cfg.burn_in, thin=cfg.thin,
                sink=fh, header_extra=header_extra,
            )
        print(f"wrote {cfg.steps} states to {cfg.out}")
    else:
        kernel.run_chain(
            x0, cfg.steps, gss, burn_in=cfg.burn_in, thin=cfg.thin,
            sink=sys.stdout, header_extra=header_extra,
        )
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    x0 = _start(cfg, target) if cfg.values.get("x0") else harness.worst_start(target)
    mode = cfg.values.get("epsilon_mode") or "auto"
    curve = harness.verify_uniform_ergodicity(
        target, gss, x0, cfg.n_list, cfg.replicates,
        threads=cfg.threads, bins=cfg.values.get("bins"), epsilon_mode=mode,
    )
    lines = _header_lines(cfg)
    lines.append("n,tv,se,envelope,pass")
    for n, tv, se, env, ok in curve.csv_rows():
        lines.append(f"{n},{tv!r},{se!r},{env!r},{int(ok)}")
    text = "\n".join(lines) + "\n"
    if cfg.values.get("out"):
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if cfg.values.get("gnuplot"):
            script = cfg.out + ".gp"
            with open(script, "w", encoding="utf-8") as fh:
                fh.write(_gnuplot_script(cfg.out, curve.rho))
            print(f"gnuplot script: {script}")
    else:
        sys.stdout.write(text)
    status = "PASS" if curve.passed else ("ADVISORY" if not curve.certified else "FAIL")
    print(f"rho = {curve.rho!r} ({'certified' if curve.certified else 'not certified'})")
    print(f"bias = {curve.bias!r}, replicates = {curve.replicates}")
    for p in curve.points:
        mark = "ok " if p.passed else "VIOLATION"
        print(f"  n={p.n}: tv={p.tv:.5f} se={p.se:.5f} envelope={p.envelope:.5f} {mark}")
    print(f"verify: {status}")
    return 0 if curve.passed else 1


def _gnuplot_script(csv_path: str, rho: float) -> str:
    return (
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'n'\n"
        "set ylabel 'TV distance'\n"
        f"plot '{csv_path}' skip 6 using 1:2:($3*3) with yerrorlines title 'estimate', \\\n"
        f"     {rho!r}**x with lines title 'envelope'\n"
    )


def _cmd_invariance(cfg: RunConfig) -> int:
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    rep = harness.invariance_test(target, gss, cfg.samples, seed=cfg.seed)
    for line in _header_lines(cfg):
        print(line)
    print(f"energy statistic = {rep.statistic!r}")
    print(f"p_value = {rep.p_value!r}")
    print(f"invariance: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def _cmd_lemmas(cfg: RunConfig) -> int:
    report = harness.lemma_suite(cfg.seed, quick=bool(cfg.values.get("quick")))
    lines = _header_lines(cfg) + list(report.summary_lines())
    text = "\n".join(lines) + "\n"
    if cfg.values.get("out"):
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(f"battery: {'PASS' if report.passed else 'FAIL'} ({len(report.checks)} checks)")
    return 0 if report.passed else 1


_HYPEROPT_PRESETS = [
    "uniform:sphere:1",
    "uniform:sphere:2",
    "cap:sphere:2:psi=1.5707963267948966",
    "vmf:sphere:2:kappa=2.0",
    "convex-uniform:ball:2:r=1.0",
    "ball-gauss:2:sigma=0.5:r=1.0",
]


def _cmd_hyperopt(cfg: RunConfig) -> int:
    if cfg.values.get("target"):
        rows = [(cfg.target, _resolve_target(cfg))]
    else:
        rows = [(spec, targets.from_spec(spec)) for spec in _HYPEROPT_PRESETS]
    for line in _header_lines(cfg):
        print(line)
    print(f"{'target':40s} {'regime':6s} {'m*':8s} {'w*':14s} {'q*':14s} note")
    for spec, t in rows:
        opt = bounds.optimal_hyperparameters(t.diam_w, t.max_gap or 0.0, t.lambda_value)
        m_lab = "inf" if math.isinf(opt.m) else str(int(opt.m))
        print(
            f"{spec:40s} {opt.regime:6s} {m_lab:8s} {opt.w_label:14s} "
            f"{opt.q:<14.6g} {opt.note}"
        )
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except UsageError as e:
        print(f"geoslice: error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse error or --help
        return int(e.code or 0)
    try:
        return dispatch(cfg)
    except UsageError as e:
        print(f"geoslice: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - map anything else to the runtime code
        print(f"geoslice: runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
