"""geoslice benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a geoslice checkout.  Each workload runs in its own
process (``worker.py``) with the BLAS/OpenMP thread count pinned to
``BLAS_THREADS`` before numpy is imported.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced round.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``RECORD``, holds the run record, the round-0 digest and the
exact counts.  Exit status is 0 when the workload ran (whether or not its
checks passed) and non-zero, with no result line, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "chain", "checks", "certify")
BLAS_THREADS = 1
SETUP_SAMPLES = 3        # processes whose set-up time gives the median setup_s
# Set-up is mostly importing scipy: loading extension modules and running
# module code, which tracks the machine's speed differently from the
# compute loop that calibrates the timed parts (worker.calibrate).  Each
# set-up is therefore rescaled by a fixed import, independent of geoslice,
# timed in fresh processes just before and just after it.
SETUP_REFERENCE = "import numpy, scipy.stats"
SETUP_REFERENCE_S = 1.0  # the reference import's time on the reference machine
DEADLINE_S = 170.0       # whole run, all child processes included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class RunFailed(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py with ``args``; return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"worker timed out: {' '.join(args)}") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_import(env: dict, deadline: float) -> float:
    """Wall time of a fresh process that runs SETUP_REFERENCE."""
    t0 = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", SETUP_REFERENCE], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=max(1.0, deadline - t0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise RunFailed(f"reference import failed: {e}") from e
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> tuple:
    """Returns (result line, record) for one workload."""
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_VARS})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    base = ["--workload", name, "--seed", str(seed)]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        env["PERFBENCH_TMP"] = tmp
        if trace:
            res = child(base + ["--trace", "1", "--threads", str(min(2, nproc))], env, deadline)
            metrics = res["per_layer"]
        else:
            refs, walls = [reference_import(env, deadline)], []
            for _ in range(SETUP_SAMPLES):
                walls.append(child(base + ["--setup-only"], env, deadline)["setup_wall_s"])
                refs.append(reference_import(env, deadline))
            setups = [w * 2.0 * SETUP_REFERENCE_S / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
            res = child(base + ["--seconds", str(seconds)], env, deadline)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "work_per_s": {"value": res["work_per_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
                "step_p50_us": {"value": res["step_us"]["median"], "unit": "us"},
                "step_p99_us": {"value": res["step_us"]["p99"], "unit": "us"},
            }
    failed = res["failed"]
    line = {"correct": failed == 0, "attempted": res["ops"], "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "unit": res["unit"], "units_per_round": res["units_per_round"],
        "digest_round0": res["digest"], "counts_round0": res["counts"],
        "failures": res["failures"][:20],
        "machine": {"nproc": nproc, "cpu_model": cpu_model(), **res["versions"],
                    "blas_threads": res["blas_threads"], "git_commit": git_commit()},
    }
    if trace:
        record.update({k: res[k] for k in ("spans", "plain_s", "traced_s", "calibration_s")})
    else:
        record.update({k: res[k] for k in ("round_s", "calibration_s", "work_per_s",
                                           "work_per_wall_s", "unit_us", "step_us")},
                      setup_s_samples=setups, setup_wall_s_samples=walls,
                      setup_reference_s=refs, timed_run_setup_wall_s=res["setup_wall_s"])
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15, help="timed seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("RECORD " + json.dumps(record), flush=True)
            lines[name] = line
    except RunFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    for name, line in lines.items():
        print(f"{name}: " + json.dumps(line))
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{n}.{k}": v for n, line in lines.items() for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
