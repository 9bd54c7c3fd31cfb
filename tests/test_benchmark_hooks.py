"""The benchmark's traced run wraps package names; each must keep existing.

``benchmarks/spans.py`` replaces names that one module of the package
looks up in another with timing wrappers.  A refactor that drops one of
those names breaks the traced benchmark, not the package, so this test
installs the wrappers in a fresh interpreter and requires that nothing
raises.  It only reads ``benchmarks/`` and writes no bytecode there.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_traced_benchmark_wraps_existing_names():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import spans\n"
        "spans.install(spans.Recorder())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "benchmarks")], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
