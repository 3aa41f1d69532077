"""The benchmark's runs stay correct on the stage samplers and the turbo loop.

A traced run of ``benchmarks/run.py`` reports a problem, and ``correct:
false``, when a per-layer metric reads zero on a workload where its layer
runs, for instance when the samplers stop calling a traced function such as
``estimator.decompose_error``.  Any run is incorrect when an op's counts
leave the golden record.  The harness is only run from here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_run_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"], record["problems"]
    assert result["failed"] == 0


def test_traced_stage_checks_run_is_correct():
    _assert_run_correct("stage_checks", trace=1)


def test_loop_turbo_run_is_correct():
    _assert_run_correct("loop_turbo", trace=0)


def test_traced_loop_conv_run_is_correct():
    # the traced receiver loop runs ml_estimate, build_stacked_matrix, LMMSE and PIC
    _assert_run_correct("loop_conv", trace=1)
