"""One traced round of the local/global benchmark, run as a subprocess.

The traced run rebinds library functions by name (bench/layers.py), so this
fails when a rename or removal in the package breaks the benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_local_global_round_runs_and_checks():
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join("bench", "run.py"),
            "--workload",
            "local-global",
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
