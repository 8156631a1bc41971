"""Smoke test of the benchmark: every workload end to end at the smallest size.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload for one round (``--seconds 1``) untraced and traced and
checks the result line against ``BENCHMARK.json``; repeats each traced run
to compare exact counts and digests.  Takes about three minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("RECORD ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("RECORD "):])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes(workload):
    plain, plain_rec = parse(bench(workload, 0))
    traced, traced_rec = parse(bench(workload, 1))
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0 and result["correct"], (plain_rec, traced_rec)
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in ("setup_s", "work_per_s", "peak_rss_mb", "step_p50_us", "step_p99_us"):
        assert plain["metrics"][name]["value"] > 0
    assert plain_rec["digest_round0"] == traced_rec["digest_round0"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counts_repeat(workload):
    first, second = (parse(bench(workload, 1))[1] for _ in range(2))
    assert first["counts_round0"] == second["counts_round0"]
    assert first["digest_round0"] == second["digest_round0"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
