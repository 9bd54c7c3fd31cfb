"""The benchmark's worker and traced run use package names; each must keep existing.

``benchmarks/spans.py`` replaces names that one module of the package
looks up in another with timing wrappers.  A refactor that drops one of
those names breaks the traced benchmark, not the package, so the first test
installs the wrappers in a fresh interpreter and requires that nothing
raises.  The worker test runs one small round in every mode.  The last
test runs the crowd-kernel ops of real rounds and requires that every
kernel call stays in plain floats.  All of them only read
``benchmarks/`` and write no bytecode there.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from onion_anon import inference
from onion_anon.cli import main

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


# The ops of each workload that run the crowd kernel, by class.
KERNEL_OPS = {
    "exact": {"formula-hetero-n9-d6", "formula-worst-n9-d6", "formula-common-n10-d4", "posterior-crowd"},
    "mc-generic": {f"{shape}{kind}" for shape in ("small-crowd", "large-crowd-n20", "large-crowd-n40")
                   for kind in ("", "-stratified")},
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(KERNEL_OPS))
def test_the_benchmarks_kernel_calls_stay_plain(workload, seed, tmp_path, monkeypatch, capsys):
    """Round 0's formula (9 x 6 and 10 x 4), posterior (crowds of 60 to 100)
    and generic (10 x 3, 20 x 6 and 40 x 4) ops never run the wide kernel.

    A wide call gives the same bits at several times the cost of a plain
    one, so a bound that sent these calls wide would slow the benchmark
    without changing any output.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    round_ = workloads.build_round(workload, seed, 0, 1)
    monkeypatch.chdir(tmp_path)
    for name, text in round_["files"].items():
        (tmp_path / name).write_text(text)
    decisions = []
    runs_plain = inference._runs_plain
    monkeypatch.setattr(inference, "_runs_plain", lambda *args: decisions.append(runs_plain(*args)) or decisions[-1])
    ran = set()
    for op in round_["ops"]:
        if op["cls"] in KERNEL_OPS[workload]:
            before = len(decisions)
            assert main(op["argv"]) == 0
            assert len(decisions) > before, op["cls"]
            ran.add(op["cls"])
    capsys.readouterr()
    assert ran == KERNEL_OPS[workload]
    assert all(decisions), f"{decisions.count(False)} of {len(decisions)} kernel calls went wide"
