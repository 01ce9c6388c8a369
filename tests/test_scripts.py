"""Smoke runs of the experiment scripts with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("admissibility_trend.py", ()),
        ("banach_dim_sweep.py", ("--restarts", "2", "--iters", "5", "--max-dim", "2")),
        ("calibrate_distortion.py", ("--graphs", "1", "--seeds", "1", "--quality", "1")),
        ("spike_kill_experiment.py", ("--trials", "2")),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
