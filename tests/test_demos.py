"""Smoke test: every demo script runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vsecagg.harness import ADVERSARY_ACTIONS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["honest_round.py", "tamper_detection.py",
                                    "forgery_calibration.py"])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script == "tamper_detection.py":
        for action, attack in ADVERSARY_ACTIONS.items():
            assert f"{attack.server}:{action:<20} detected=True" in proc.stdout
