"""The scripts under scripts/ still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hyperparameter_landscape_writes_csv(tmp_path):
    out = tmp_path / "q.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hyperparameter_landscape.py"),
         "--w-points", "20", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "m,w,q"
    # the default lambda is infinite, so m = inf is dropped from 1,2,3,5,10,inf
    assert len(lines) == 1 + 5 * 20
    assert "regime" in proc.stdout
