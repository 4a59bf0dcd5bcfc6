"""The benchmark's tracer wraps program functions by name
(pipebench/traced_cli.py), so renaming one of them fails every traced run.
This installs the tracer in a child process, as a traced run does."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("traced_cli", sys.argv[1])
traced_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced_cli)
traced_cli.install(traced_cli.Tracer())
"""


def test_the_benchmark_tracer_installs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "pipebench" / "traced_cli.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
