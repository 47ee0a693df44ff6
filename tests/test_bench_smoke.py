"""One traced benchmark round per workload, run as a subprocess.

The traced run rebinds library functions and one method by name
(bench/layers.py), so this fails when a rename or removal in the package
breaks the benchmark.  ``local-global`` runs primary components and
``check_local_global``; ``gr-random-fp``, the Grassmannian workload with no
expected failures, runs ``euler_characteristic`` with its section and
diagonalization probes.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["local-global", "gr-random-fp"])
def test_traced_round_runs_and_checks(workload):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join("bench", "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        # leave no bytecode beside the benchmark's sources
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0
