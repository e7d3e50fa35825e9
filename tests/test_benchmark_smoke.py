"""The benchmark harness runs end to end on this tree.

``perfbench/run.py --smoke`` runs every workload at a tiny size, untraced and
traced, and fails unless each metric that ``BENCHMARK.json`` lists is emitted
with its unit: a call site the tracer no longer finds, or a per-layer metric
that no traced call feeds, shows up here instead of in a benchmark run.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_prints_smoke_ok(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines and lines[-1] == "smoke ok", (
        proc.stdout[-3000:] + proc.stderr[-3000:]
    )
