"""The benchmark's traced run stays correct on the stage samplers.

A traced run of ``benchmarks/run.py`` reports a problem, and ``correct:
false``, when a per-layer metric reads zero on a workload where its layer
runs, for instance when the samplers stop calling a traced function such as
``estimator.decompose_error``.  The harness is only run from here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_stage_checks_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "stage_checks",
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
