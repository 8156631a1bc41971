"""One workload in one process; prints one JSON object as its last line.

Started by ``run.py``, which pins the BLAS thread count in the environment
first.  ``--spawned-at`` is the launcher's ``time.perf_counter()`` just before
it started this process (a system-wide monotonic clock on Linux), so set-up
time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import types

import numpy as np

from run import BLAS_VARS, ROOT


def load_geoslice():
    src = ROOT / "src"
    if not (src / "geoslice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no geoslice sources under {src}")
    sys.path.insert(0, str(src))
    import geoslice
    from geoslice import bounds, harness, kernel, manifolds, rng, slice1d, targets

    mods = (geoslice, bounds, harness, kernel, manifolds, rng, slice1d, targets)
    return types.SimpleNamespace(
        bounds=bounds, harness=harness, kernel=kernel, manifolds=manifolds,
        rng=rng, slice1d=slice1d, targets=targets, modules=mods,
    )


def summary(samples) -> dict:
    """Median, p99 and the highest percentile with >= 10 samples beyond it, pooled."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    out = {"samples": n, "median": float(np.median(x)), "p99": float(np.percentile(x, 99))}
    if n > 10:
        out["p_hi"], out["q_hi"] = float(x[n - 11]), 100.0 * (n - 10) / n
    return out


class Ops:
    """Counts of correctness verdicts and failed ones, with the first failures' labels."""

    KEEP = 100

    def __init__(self):
        self.attempted, self.failed, self.failures = 0, 0, []

    def add(self, verdicts) -> None:
        for label, ok in verdicts:
            ok = np.atleast_1d(np.asarray(ok, dtype=bool))
            bad = np.flatnonzero(~ok)
            self.attempted += ok.size
            self.failed += bad.size
            room = max(0, self.KEEP - len(self.failures))
            self.failures += [label if ok.size == 1 else f"{label} [{i}]" for i in bad[:room]]


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest quarter (at least one each side from 3 on).

    Rounds hit by a stolen time slice drop out, while slow drift over the run
    is averaged rather than sampled.
    """
    x = np.sort(np.asarray(values, dtype=float))
    k = max(1, len(x) // 4) if len(x) >= 3 else 0
    return float(x[k:len(x) - k].mean())


# Calibration: a fixed loop of interpreter and 3-vector numpy work, shaped
# like a transition but independent of geoslice.  On a VM whose cores are
# shared with other tenants a round's speed swings by up to 30% with their
# load; the loop, timed between the parts of every round, slows with it.
# Times are rescaled to a machine on which the loop takes CALIBRATION_REF_S.
CALIBRATION_ITERS = 10_000
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    rng = np.random.default_rng(12345)
    x = np.array([0.0, 0.0, 1.0])
    c, s = math.cos(0.3), math.sin(0.3)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        v = rng.standard_normal(3)
        v = v - (v @ x) * x
        p = c * x + s * (v / math.sqrt(v @ v))
        x = p / math.sqrt(p @ p)
    return time.perf_counter() - t0


def timed_rounds(wl, seconds: float) -> dict:
    """Run rounds until their timed parts add up to ``seconds`` (at least one).

    Each part of a round is timed alone and scaled by CALIBRATION_REF_S over
    the mean of the calibrations before and after it.  A step is one unit of
    work.  Only the chain observes single steps (at its sink), in parts that
    replay the same steps; a step's latency is its least time over the
    replays, since interference from other tenants rarely hits the same step
    twice while the step's own cost is the same in each.  For the other
    workloads the step latency is the mean time per unit, so p50 and p99 both
    equal 1e6 / work_per_s.  ``unit_us`` summarises each round's scaled time
    per unit.
    """
    rounds, scales, ops, step_s, digest, counts = [], [], Ops(), [], None, None
    busy, r = 0.0, 0
    cal = [calibrate()]
    while r == 0 or busy < seconds:
        out, dt, scaled = [], 0.0, 0.0
        for part in wl.parts(r, wl.inputs(r)):
            t0 = time.perf_counter()
            out.append(part())
            dt_part = time.perf_counter() - t0
            cal.append(calibrate())
            dt += dt_part
            scaled += dt_part * 2.0 * CALIBRATION_REF_S / (cal[-2] + cal[-1])
        chk = wl.check(r, out)
        busy += dt
        rounds.append(dt)
        scales.append(scaled / dt)
        ops.add(chk.verdicts)
        if chk.step_s:
            step_s.append(np.min(chk.step_s, axis=0))
        if r == 0:
            digest, counts = chk.digest, chk.counts
        r += 1
    scaled_s = [dt * k for dt, k in zip(rounds, scales)]
    work = trimmed_mean([wl.units_per_round / t for t in scaled_s])
    if step_s:
        # per-round percentiles, then their median: a burst of interference
        # moves one round's p99, not the run's.  One calibration, the run's
        # median, scales them all: a single 0.15 s calibration swings by 30%,
        # far more than the machine's speed does over a two-second round.
        step_s = [x * CALIBRATION_REF_S / float(np.median(cal)) for x in step_s]
        step_us = summary(np.concatenate(step_s) * 1e6)
        step_us["median"] = float(np.median([np.median(x) for x in step_s]) * 1e6)
        step_us["p99"] = float(np.median([np.percentile(x, 99) for x in step_s]) * 1e6)
    else:
        step_us = {"samples": 0, "median": 1e6 / work, "p99": 1e6 / work}
    return {
        "round_s": rounds,
        "calibration_s": cal,
        "work_per_s": work,
        "unit_us": summary([1e6 * t / wl.units_per_round for t in scaled_s]),
        "work_per_wall_s": trimmed_mean([wl.units_per_round / dt for dt in rounds]),
        "step_us": step_us,
        "ops": ops,
        "digest": digest,
        "counts": counts,
    }


def traced_round(wl, g, threads: int) -> dict:
    """Round 0 untraced, then round 0 traced; per-layer metrics from the spans."""
    from tracing import Tracer

    cal = [calibrate()]
    inp = wl.inputs(0)
    t0 = time.perf_counter()
    plain_out = wl.run(0, inp)
    plain_s = time.perf_counter() - t0
    cal.append(calibrate())
    plain = wl.check(0, plain_out)

    tracer = Tracer()
    with tracer.installed(g.modules):
        inp = wl.inputs(0, tracer)
        t0 = time.perf_counter()
        out = wl.run(0, inp)
        traced_s = time.perf_counter() - t0
    cal.append(calibrate())
    chk = wl.check(0, out)
    table = tracer.table()
    # both rescaled to the reference speed, as in timed_rounds
    overhead = (traced_s / (cal[1] + cal[2])) / (plain_s / (cal[0] + cal[1])) - 1.0

    ops = Ops()
    ops.add(plain.verdicts + chk.verdicts)
    units = wl.unit_count(table)
    ops.add([("tracing leaves the result unchanged", chk.digest == plain.digest),
             (f"traced units {units} == {wl.units_per_round}", units == wl.units_per_round)])

    speedup = wl.threads_speedup(threads) if hasattr(wl, "threads_speedup") else 0.0
    metrics = layer_metrics(table, overhead, speedup)
    counts = dict(exact_counts(table), **chk.counts)
    return {"ops": ops, "digest": chk.digest, "counts": counts,
            "per_layer": metrics, "plain_s": plain_s, "traced_s": traced_s,
            "calibration_s": cal, "spans": len(tracer)}


def exact_counts(t) -> dict:
    so, sh = "slice1d.stepping_out", "slice1d.reeled_shrinkage"
    return {
        "transitions": t.count("kernel.transition"),
        "density_calls": t.count("targets.density"),
        "density_batch_calls": t.count("targets.density_batch"),
        "density_batch_rows": int(t.aux_sum("targets.density_batch")),
        "stepping_out_calls": t.count(so),
        "expansions": int(t.aux_sum(so)),
        "budget_hits": int(t.flag_sum(so)),
        "shrinkage_calls": t.count(sh),
        "shrink_draws": int(t.aux_sum(sh)),
        "make_stream_calls": t.count("rng.make_stream"),
        "energy_tests": t.count("harness.energy_permutation_test"),
        "reference_points": int(t.aux_sum("targets.reference_samples")),
    }


def layer_metrics(t, overhead: float, speedup: float) -> dict:
    us, ms = 1e6, 1e3
    so, sh = "slice1d.stepping_out", "slice1d.reeled_shrinkage"
    n_tr, n_so, n_sh = t.count("kernel.transition"), t.count(so), t.count(sh)
    dens_in_tr = int((t.mask("targets.density") & t.under("kernel.transition")).sum())
    ref_pts = t.aux_sum("targets.reference_samples")
    n_write = t.count("kernel.sink.write")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "kernel.transition.self_us": (t.mean("kernel.transition", True) * us, "us"),
        "rng.make_stream.us": (t.mean("rng.make_stream") * us, "us"),
        "targets.density.us": (t.mean("targets.density") * us, "us"),
        "targets.density.calls_per_transition": (ratio(dens_in_tr, n_tr), "calls"),
        "manifolds.exp_array.us": (t.mean("manifolds.exp_array") * us, "us"),
        "manifolds.sample_tangent_array.us": (t.mean("manifolds.sample_tangent_array") * us, "us"),
        "slice1d.stepping_out.self_us": (t.mean(so, True) * us, "us"),
        "slice1d.reeled_shrinkage.self_us": (t.mean(sh, True) * us, "us"),
        "slice1d.expansions_per_call": (ratio(t.aux_sum(so), n_so), "count"),
        "slice1d.budget_hit_frac": (ratio(t.flag_sum(so), n_so), "ratio"),
        "slice1d.shrink_draws_per_accept": (ratio(t.aux_sum(sh), n_sh), "count"),
        "kernel.sink.us_per_record": (
            ratio(t.total("kernel.sink.serialise") + t.total("kernel.sink.write"), n_write) * us, "us"),
        "kernel.threads2.speedup": (speedup, "ratio"),
        "harness.energy_permutation_test.ms": (t.mean("harness.energy_permutation_test") * ms, "ms"),
        "harness.energy_permutation_test.calls": (t.count("harness.energy_permutation_test"), "count"),
        "targets.reference_samples.us_per_point": (
            ratio(t.total("targets.reference_samples"), ref_pts) * us, "us"),
        "harness.invariance_test.self_s": (t.total("harness.invariance_test", True), "s"),
        "harness.estimate_tv.ms": (t.mean("harness.estimate_tv") * ms, "ms"),
        "harness.make_binning.ms": (t.mean("harness.make_binning") * ms, "ms"),
        "bounds.full_report.ms": (t.mean("bounds.full_report") * ms, "ms"),
        "bounds.estimate_epsilon.s": (t.total("bounds.estimate_epsilon"), "s"),
        "bounds.estimate_epsilon.stepping_out_calls": (
            int((t.mask(so) & t.under("bounds.estimate_epsilon")).sum()), "count"),
        "targets.estimate_max_gap.s": (t.total("targets.estimate_max_gap"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spawned = time.perf_counter() if args.spawned_at is None else args.spawned_at

    g = load_geoslice()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, g)
    result = {"setup_wall_s": time.perf_counter() - spawned}
    try:
        if not args.setup_only:
            if args.trace:
                result.update(traced_round(wl, g, args.threads))
            else:
                result.update(timed_rounds(wl, args.seconds))
            result["units_per_round"] = wl.units_per_round
            result["unit"] = wl.unit
    finally:
        wl.close()
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
    }
    result["blas_threads"] = {k: os.environ.get(k) for k in BLAS_VARS}
    ops = result.pop("ops", Ops())
    result["ops"], result["failed"], result["failures"] = ops.attempted, ops.failed, ops.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
