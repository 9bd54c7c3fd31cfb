"""The benchmark's worker and traced run use package names; each must keep existing.

``benchmarks/spans.py`` replaces names that one module of the package
looks up in another with timing wrappers.  A refactor that drops one of
those names breaks the traced benchmark, not the package, so the first test
installs the wrappers in a fresh interpreter and requires that nothing
raises.  The worker test runs one small round in every mode.  Both only
read ``benchmarks/`` and write no bytecode there.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("mode", ["setup", "plain", "traced"])
def test_the_benchmark_worker_runs_cli_ops(mode, tmp_path):
    """``benchmarks/worker.py`` builds the parser, reuses it across ops and checks their output."""
    pytest.importorskip("scipy")
    argvs = [
        ["common", "--n", "20", "--b", "0.2", "--dist", "uniform", "--dests", "4", "--dest", "0"],
        ["common", "--n", "40", "--b", "0.3", "--dist", "uniform", "--dests", "4", "--dest", "1"],
    ]
    ops = [{"argv": argv, "csv": None, "check": {"kind": "expectation", "b": float(argv[4]), "p": 0.25}}
           for argv in argvs]
    spec, result = tmp_path / "spec.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"ops": ops, "oracle_cases": [], "spans_path": str(tmp_path / "spans.json")}))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"), str(ROOT), str(spec), str(result), mode],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(result.read_text())
    if mode != "setup":
        assert [op["problem"] for op in report["ops"]] == [None, None]
        assert [op["code"] for op in report["ops"]] == [0, 0]
