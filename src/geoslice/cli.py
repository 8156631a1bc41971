"""Command-line entry point.

Subcommands, each with the options it takes (every one also takes ``--config``)
------------------------------------------------------------------------------
sample      run one chain, stream it as JSON lines
            --target --m --w --seed --out --steps --burn-in --thin --x0
bounds      print the convergence certificate for a target/hyperparameter pair
            --target --m --w --seed --out --epsilon-mode
verify      endpoint-ensemble TV decay against the certified envelope (CSV)
            --target --m --w --seed --out --n-list --replicates --bins --epsilon-mode
            --x0 --gnuplot
invariance  one-step invariance two-sample test
            --target --m --w --seed --samples
lemmas      distributional battery for the 1-D procedures
            --seed --out --quick
hyperopt    optimal hyperparameter table
            --target --seed

argparse is the only parser; ``_OPTIONS`` gives each option its type, default
and range check once.  A flat ``key = value`` config file (``--config``) may
set only options of its command (``-`` or ``_`` in keys); its lines are parsed
as ``--key=value`` flags placed right after the command name, so a later flag
wins.  Boolean options take true/false/yes/no/1/0, or no value for true.
Every output file starts with a header carrying the tool version, command
line and seed; timestamps appear only in that header.
Exit codes: 0 success/PASS, 1 statistical FAIL, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__, bounds, harness, kernel, targets
from .manifolds import Point
from .rng import fresh_seed, make_stream


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _checked(cast, ok, what):
    """argparse type: ``cast`` the text, then require ``ok`` of the value."""

    def convert(text):
        try:
            good = ok(value := cast(text))
        except (ValueError, KeyError):
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return convert


def _at_least(low):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_FLAG = dict(
    nargs="?", const=True,
    type=_checked(lambda s: _BOOLS[s.lower()], lambda v: True, "true/false/yes/no/1/0"),
)

_OPTIONS = {
    "config": dict(help="flat key = value file of this command's options; flags override"),
    "target": dict(help="target spec, e.g. uniform:sphere:2 or vmf:sphere:2:kappa=2"),
    "m": dict(
        type=_checked(float, lambda m: m == math.inf or (m >= 1 and m.is_integer()),
                      "a positive integer or 'inf'"),
        default="1", help="expansion budget: positive integer or 'inf'",
    ),
    "w": dict(type=_checked(float, lambda w: 0 < w < math.inf, "a positive finite number"),
              default=2.0 * math.pi, help="stepping-out width (finite, > 0)"),
    # the random streams read a seed modulo 2**64, so a larger one would alias a smaller
    "seed": dict(type=_checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)"),
                 help="64-bit master seed (default: fresh, recorded)"),
    "out": dict(help="output file path"),
    "steps": dict(type=_at_least(0), default=1000, help="number of recorded states"),
    "burn-in": dict(type=_at_least(0), default=0, help="discarded initial steps"),
    "thin": dict(type=_at_least(1), default=1, help="record every thin-th step"),
    "x0": dict(help="start point as comma-separated coordinates (default: a target draw "
                    "or the worst start)"),
    "epsilon-mode": dict(choices=bounds.EPSILON_MODES, default="auto",
                         help="source of the minorisation constant"),
    "n-list": dict(
        type=_checked(lambda s: [int(c) for c in s.split(",") if c.strip()],
                      lambda ns: min(ns) >= 1, "comma-separated step counts >= 1"),
        default="1,5,10", help="comma-separated step counts, e.g. 1,5,10",
    ),
    # each ensemble feeds one TV estimate
    "replicates": dict(type=_at_least(harness.MIN_TV_POINTS), default=10_000,
                       help="chains per ensemble"),
    "bins": dict(type=_at_least(1), help="bin count override"),
    "gnuplot": dict(_FLAG, help="also emit a gnuplot script next to the --out CSV"),
    "samples": dict(type=_at_least(1), default=harness.ENERGY_SUBSAMPLE,
                    help=f"exact draws per side (the energy test reads at most {harness.ENERGY_SUBSAMPLE})"),
    "quick": dict(_FLAG, help="reduced sample sizes"),
}

_COMMANDS = {
    "sample": ("target", "m", "w", "seed", "out", "steps", "burn-in", "thin", "x0"),
    "bounds": ("target", "m", "w", "seed", "out", "epsilon-mode"),
    "verify": ("target", "m", "w", "seed", "out", "n-list", "replicates", "bins", "epsilon-mode",
               "x0", "gnuplot"),
    "invariance": ("target", "m", "w", "seed", "samples"),
    "lemmas": ("seed", "out", "quick"),
    "hyperopt": ("target", "seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoslice",
        description="geodesic slice sampling with explicit convergence certificates",
    )
    parser.add_argument("--version", action="version", version=f"geoslice {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    seed = fresh_seed()  # one per parser, so one per run; every command takes --seed
    for cmd, names in _COMMANDS.items():
        sp = subs.add_parser(cmd)
        for name in ("config", *names):
            sp.add_argument(f"--{name}", **_OPTIONS[name])
        sp.set_defaults(seed=seed)
    return parser


def _config_tokens(path: str, names) -> list:
    """The ``key = value`` lines of a config file as ``--key=value`` flags.

    Each flag is parsed here on its own, so a bad value is reported with the
    file and line; a boolean key with no value becomes ``--key`` (true).
    """
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                key = key.replace("_", "-")
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                if key not in names:
                    raise UsageError(f"{path}:{lineno}: {key!r} is not an option of this command")
                token = f"--{key}={value}" if value else f"--{key}"
                check = _Parser(add_help=False)
                check.add_argument(f"--{key}", **_OPTIONS[key])
                try:
                    check.parse_args([token])
                except UsageError as e:
                    raise UsageError(f"{path}:{lineno}: {e}") from None
                tokens.append(token)
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    return tokens


def parse_config(argv=None) -> argparse.Namespace:
    """Parse the command line with the --config file's flags ahead of it; ``argv`` is kept.

    One parser parses twice: the first pass finds the command and its config
    file, the second adds the file's flags right after the command name.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    first = parser.parse_args(argv)
    at = argv.index(first.command) + 1
    tokens = _config_tokens(first.config, _COMMANDS[first.command]) if first.config else []
    ns = parser.parse_args(argv[:at] + tokens + argv[at:])
    ns.argv = argv
    return ns


def _resolve_target(cfg: argparse.Namespace) -> targets.Target:
    if not cfg.target:
        raise UsageError(f"command {cfg.command!r} needs --target")
    try:
        return targets.from_spec(cfg.target)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _start(cfg: argparse.Namespace, target: targets.Target):
    """The --x0 point on the target's manifold, inside the target's support."""
    try:
        x0 = target.manifold.point([float(s) for s in cfg.x0.split(",")])
    except ValueError as e:
        raise UsageError(f"bad --x0 {cfg.x0!r}: {e}") from None
    if not target.density(x0.coords) > 0:
        raise UsageError(f"bad --x0 {cfg.x0!r}: the target's density is 0 there")
    return x0


def _gss_config(cfg: argparse.Namespace, target: targets.Target) -> kernel.GssConfig:
    try:
        return kernel.GssConfig(target=target, w=cfg.w, m=cfg.m, seed=cfg.seed)
    except kernel.ConfigError as e:
        raise UsageError(str(e)) from None


def _header_lines(cfg: argparse.Namespace) -> list:
    config = {k: v for k, v in vars(cfg).items() if v is not None and k != "argv"}
    return [
        f"# geoslice {__version__}",
        f"# command: geoslice {' '.join(cfg.argv)}",
        f"# seed: {cfg.seed}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        f"# config: {json.dumps(config, sort_keys=True, default=str)}",
    ]


def dispatch(cfg: argparse.Namespace) -> int:
    """Execute a parsed command line; returns the process exit code."""
    handler = {
        "sample": _cmd_sample,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "invariance": _cmd_invariance,
        "lemmas": _cmd_lemmas,
        "hyperopt": _cmd_hyperopt,
    }[cfg.command]
    return handler(cfg)


def _cmd_bounds(cfg: argparse.Namespace) -> int:
    target = _resolve_target(cfg)
    rng = make_stream(cfg.seed, bounds.EPSILON_STREAM) if cfg.epsilon_mode == "monte-carlo" else None
    try:
        report = bounds.full_report(target, cfg.m, cfg.w, cfg.epsilon_mode, rng=rng)
    except ValueError as e:  # ApplicabilityError included
        raise UsageError(str(e)) from None
    header = _header_lines(cfg)
    for line in header + report.lines():
        print(line)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(header) + "\n")
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0


def _cmd_sample(cfg: argparse.Namespace) -> int:
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    if cfg.x0:
        x0 = _start(cfg, target)
    elif target.sampler is not None:
        x0 = Point(targets.reference_samples(target, 1, make_stream(cfg.seed, 7))[0])
    else:
        x0 = harness.worst_start(target)
    header_extra = {
        "geoslice": __version__,
        "command": "geoslice " + " ".join(cfg.argv),
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    sink = open(cfg.out, "w", encoding="utf-8") if cfg.out else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        kernel.run_chain(
            x0, cfg.steps, gss, burn_in=cfg.burn_in, thin=cfg.thin,
            sink=fh, header_extra=header_extra,
        )
    if cfg.out:
        print(f"wrote {cfg.steps} states to {cfg.out}")
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.gnuplot and not cfg.out:
        raise UsageError("--gnuplot writes its script next to the --out CSV; give --out")
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    x0 = _start(cfg, target) if cfg.x0 else harness.worst_start(target)
    try:
        curve = harness.verify_uniform_ergodicity(
            target, gss, x0, cfg.n_list, cfg.replicates, bins=cfg.bins,
            epsilon_mode=cfg.epsilon_mode,
        )
    except bounds.ApplicabilityError as e:
        raise UsageError(str(e)) from None
    lines = _header_lines(cfg)
    lines.append("n,tv,se,envelope,pass")
    for n, tv, se, env, ok in curve.csv_rows():
        lines.append(f"{n},{tv!r},{se!r},{env!r},{int(ok)}")
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if cfg.gnuplot:
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
        mark = "vacuous" if p.vacuous else "ok " if p.passed else "VIOLATION"
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


def _cmd_invariance(cfg: argparse.Namespace) -> int:
    target = _resolve_target(cfg)
    gss = _gss_config(cfg, target)
    rep = harness.invariance_test(target, gss, cfg.samples, seed=cfg.seed)
    for line in _header_lines(cfg):
        print(line)
    print(f"energy statistic = {rep.statistic!r}")
    print(f"p_value = {rep.p_value!r}")
    print(f"invariance: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def _cmd_lemmas(cfg: argparse.Namespace) -> int:
    report = harness.lemma_suite(cfg.seed, quick=bool(cfg.quick))
    lines = _header_lines(cfg) + list(report.summary_lines())
    text = "\n".join(lines) + "\n"
    if cfg.out:
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


def _cmd_hyperopt(cfg: argparse.Namespace) -> int:
    if cfg.target:
        rows = [(cfg.target, _resolve_target(cfg))]
    else:
        rows = [(spec, targets.from_spec(spec)) for spec in _HYPEROPT_PRESETS]
    for line in _header_lines(cfg):
        print(line)
    print(f"{'target':40s} {'regime':6s} {'m*':8s} {'w*':18s} {'q*':14s} note")
    for spec, t in rows:
        opt = bounds.optimal_hyperparameters(t.diam_w, t.max_gap or 0.0, t.lambda_value,
                                             t.manifold.geodesic_period)
        m_lab = "inf" if math.isinf(opt.m) else str(int(opt.m))
        print(
            f"{spec:40s} {opt.regime:6s} {m_lab:8s} {opt.w_label:18s} "
            f"{opt.q:<14.6g} {opt.note}"
        )
    return 0


def main(argv=None) -> int:
    try:
        return dispatch(parse_config(argv))
    except UsageError as e:
        print(f"geoslice: error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help or --version
        return int(e.code or 0)
    except Exception as e:  # noqa: BLE001 - map anything else to the runtime code
        print(f"geoslice: runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
