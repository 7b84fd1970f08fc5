"""The benchmark's own test: every workload at a tiny size, result schema checked."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_validates_every_workload():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("smoke ")]
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert len(lines) == 2 * len(spec["workloads"])
    assert all(line.endswith(": ok") for line in lines), lines


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "fit_rbf_serve"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
