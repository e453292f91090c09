"""Smoke test of the round benchmark against the current library.

``perfbench/run.py`` imports ``vsecagg`` modules, patches
``harness.run_round``, ``harness.setup`` and ``prf._keystream``, and
traces named spans such as ``sharing.share_with_prf``.  A short traced
run catches a change that breaks any of those seams.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_crowd_run_is_correct_and_reports_spans():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["sharing.share_with_prf.ms"]["value"] > 0
