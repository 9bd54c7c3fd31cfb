"""The CLI at its extremes: huge values for every integer option and huge sweep ranges.

Every run must end in a documented exit code (0, 2, 3 or 4) with no
traceback.  The runs go to one child interpreter whose address space is
capped, so an input that slips past its cap fails at once with a
MemoryError instead of swapping.
"""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onion_anon import montecarlo
from onion_anon.cli import SWEEP_POINTS, _parse_range, main
from onion_anon.distributions import ROW_ENTRIES, make_distribution

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv of a JSON list through ``main`` under a 1 GiB address space;
# prints each exit code, or the exception that escaped.
CHILD = """
import contextlib, io, json, resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
from onion_anon.cli import main
codes = []
for argv in json.load(sys.stdin):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    except Exception as exc:
        codes.append(f"{type(exc).__name__}: {str(exc)[:200]}")
print(json.dumps(codes))
"""

WORST = ["--alpha", "0.5", "--b", "0.3", "--p-target", "0.4", "--p-least", "0.05"]
COMMON = ["--b", "0.3", "--dist", "zipf:1", "--dest", "1"]


def commands(out: str, scenario: str) -> dict:
    """Each command with its fixed options and its integer options at small values.

    ``--dest`` of the common population is an integer read from text; a
    later ``--dest`` overrides the one in COMMON.
    """
    sampled = {"samples": 100, "seed": 1, "threads": 1}
    return {
        "worst-case": (["worst-case", *WORST], {"n": 20}),
        "common": (["common", *COMMON], {"n": 20, "dests": 5, "dest": 1}),
        "mc-worst-case": (["mc", "--mode", "worst-case", *WORST], {"n": 20, **sampled}),
        "mc-common": (["mc", "--mode", "common", *COMMON], {"n": 20, "dests": 5, "dest": 1, **sampled}),
        "mc-generic": (["mc", "--scenario", scenario, "--user", "u0", "--dest", "a"], sampled),
        "sweep-common": (["sweep", "--mode", "common", "--out", out, *COMMON],
                         {"n": "10:20:10", "dests": 5, "dest": 1, "threads": 1}),
        "sweep-common-mc": (["sweep", "--mode", "common", "--method", "mc", "--out", out, *COMMON],
                            {"n": "10:20:10", "dests": 5, "dest": 1, **sampled}),
        "sweep-worst-case": (["sweep", "--mode", "worst-case", "--out", out, *WORST[2:]],
                             {"n": "10:20:10", "alpha": "0.5", "threads": 1}),
    }


def flags(options: dict) -> list[str]:
    return [text for name, value in options.items() for text in (f"--{name}", str(value))]


def extreme_argvs(huge: int, small_step: float, tmp_path: Path) -> list[list[str]]:
    """Every command once per integer option set to ``huge``, and every sweep over huge ranges.

    A sweep range either holds far more points than the cap or three
    points far out, so no admitted run is long.
    """
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "b": 0.3, "destinations": ["a", "b"], "users": [{"name": f"u{i}", "dist": "uniform"} for i in range(3)],
    }))
    argvs = []
    for name, (argv, options) in commands(str(tmp_path / "out.csv"), str(scenario)).items():
        for option in options:
            value = f"{huge}:{huge + 2}:1" if option == "n" and name.startswith("sweep") else huge
            argvs.append(argv + flags({**options, option: value}))
        if name.startswith("sweep"):
            argvs.append(argv + flags({**options, "n": f"1:{huge}:1"}))
        if name == "sweep-worst-case":
            argvs.append(argv + flags({**options, "n": 20, "alpha": f"0:1:{small_step!r}"}))
    return argvs


def run_capped(argvs: list[list[str]]) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@settings(max_examples=4, deadline=None)
@given(
    huge=st.one_of(st.integers(1 << 26, 1 << 80), st.sampled_from([(1 << 63) - 1, 1 << 63, 1 << 64, 0, -1])),
    small_step=st.floats(1e-300, 1e-9),
)
@example(huge=10**12, small_step=1e-9)
@example(huge=2_000_000_000, small_step=1e-300)
def test_every_extreme_exits_with_a_documented_code(huge, small_step, tmp_path_factory):
    argvs = extreme_argvs(huge, small_step, tmp_path_factory.mktemp("extremes"))
    codes = run_capped(argvs)
    assert len(codes) == len(argvs)
    for argv, code in zip(argvs, codes):
        assert code in (0, 2, 3, 4), (argv, code)


@pytest.mark.parametrize("argv, message", [
    (["common", "--n", "10", *COMMON, "--dests", "1000000000000"],
     "error: 1000000000000 destinations exceed the cap of 1048576\n"),
    (["mc", "--mode", "common", "--n", "10", *COMMON, "--dests", "5", "--samples", "2000000000", "--seed", "1"],
     "error: 2000000000 samples exceed the cap of 33554432\n"),
    (["sweep", "--mode", "common", "--n", "1:100000000:1", *COMMON, "--dests", "5", "--out", "never.csv"],
     "error: a sweep of 100000000 points exceeds the cap of 65536\n"),
], ids=["dests", "samples", "sweep-points"])
def test_unbounded_inputs_are_refused_before_any_allocation(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == message
    assert not (tmp_path / "never.csv").exists()


def test_each_cap_admits_its_own_size(monkeypatch, capsys):
    assert len(_parse_range(f"1:{SWEEP_POINTS}:1", integer=True)) == SWEEP_POINTS
    assert len(make_distribution("uniform", ROW_ENTRIES)) == ROW_ENTRIES
    monkeypatch.setattr(montecarlo, "SAMPLES", 64)
    argv = ["mc", "--mode", "common", "--n", "10", *COMMON, "--dests", "5", "--seed", "1", "--samples"]
    assert main([*argv, "64"]) == 0
    assert main([*argv, "65"]) == 3
    assert capsys.readouterr().err == "error: 65 samples exceed the cap of 64\n"
