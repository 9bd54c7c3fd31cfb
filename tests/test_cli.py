import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onion_anon.cli import build_parser, load_scenario, main, write_scenario
from onion_anon.errors import ParseError
from onion_anon.limits import current_limits
from onion_anon.seeding import mix64


@pytest.fixture()
def scenario_file(tmp_path):
    doc = {
        "b": 0.4,
        "destinations": ["web", "mail"],
        "users": [
            {"name": "alice", "dist": [0.6, 0.4]},
            {"name": "bob", "dist": [0.2, 0.8]},
            {"name": "carol", "dist": "uniform"},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def observation_file(tmp_path):
    doc = {
        "linked": [["bob", "mail"]],
        "input_only": ["carol"],
        "output_only": ["web"],
        "hidden_count": 0,
    }
    path = tmp_path / "observation.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_ok(self, scenario_file, capsys):
        assert main(["validate", scenario_file]) == 0
        assert "3 users, 2 destinations" in capsys.readouterr().out

    def test_round_trip(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "normalized.json"
        assert main(["validate", scenario_file, "--out", str(out)]) == 0
        original, _, _ = load_scenario(scenario_file)
        reloaded, users, dests = load_scenario(str(out))
        assert users == ["alice", "bob", "carol"] and dests == ["web", "mail"]
        assert reloaded.b == original.b
        assert np.allclose(reloaded.p, original.p, rtol=1e-12, atol=0)

    def test_non_stochastic_row_names_the_user(self, tmp_path, capsys):
        doc = {
            "b": 0.4,
            "destinations": ["web", "mail"],
            "users": [{"name": "alice", "dist": [0.6, 0.3]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert "alice" in err and err.count("\n") == 1

    def test_b_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"b": 1.5, "destinations": ["d"], "users": [{"name": "u", "dist": [1.0]}]}))
        assert main(["validate", str(path)]) == 3

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "nj.json"
        path.write_text("not json")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 4

    def test_missing_field(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"b": 0.4, "users": []}))
        assert main(["validate", str(path)]) == 2


class TestExact:
    def test_formula_and_oracle_agree(self, scenario_file, capsys):
        assert main([
            "exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web",
        ]) == 0
        formula = float(capsys.readouterr().out)
        assert main([
            "exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web",
            "--method", "oracle",
        ]) == 0
        oracle = float(capsys.readouterr().out)
        assert math.isclose(formula, oracle, rel_tol=1e-9)

    def test_accepts_indices(self, scenario_file, capsys):
        assert main(["exact", "--scenario", scenario_file, "--user", "0", "--dest", "0"]) == 0
        float(capsys.readouterr().out)

    def test_unknown_name(self, scenario_file):
        assert main(["exact", "--scenario", scenario_file, "--user", "mallory", "--dest", "web"]) == 2

    def test_zero_prior_query_is_a_model_error(self, tmp_path):
        doc = {
            "b": 0.4,
            "destinations": ["web", "mail"],
            "users": [
                {"name": "alice", "dist": [1.0, 0.0]},
                {"name": "bob", "dist": [0.5, 0.5]},
            ],
        }
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        assert main(["exact", "--scenario", str(path), "--user", "alice", "--dest", "mail"]) == 3


class TestPosterior:
    def test_replayed_observation(self, scenario_file, observation_file, capsys):
        assert main([
            "posterior", "--scenario", scenario_file, "--observation", observation_file,
            "--user", "alice", "--dest", "web",
        ]) == 0
        value = float(capsys.readouterr().out)
        # alice is the only unobserved input; the one bare output must be hers.
        assert value == 1.0

    def test_oracle_method_agrees(self, scenario_file, observation_file, capsys):
        assert main([
            "posterior", "--scenario", scenario_file, "--observation", observation_file,
            "--user", "alice", "--dest", "mail", "--method", "oracle",
        ]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_inconsistent_observation(self, scenario_file, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"linked": [], "input_only": [], "output_only": [], "hidden_count": 7}))
        assert main([
            "posterior", "--scenario", scenario_file, "--observation", str(path),
            "--user", "alice", "--dest", "web",
        ]) == 3


class TestMc:
    def test_generic_prints_estimate(self, scenario_file, capsys):
        assert main([
            "mc", "--scenario", scenario_file, "--user", "alice", "--dest", "web",
            "--samples", "2000", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean=") and "std_error=" in out and "seed=9" in out

    def test_missing_mode_arguments(self):
        assert main(["mc", "--mode", "worst-case", "--samples", "100", "--seed", "1"]) == 2

    def test_csv_identical_across_thread_counts(self, tmp_path, capsys):
        args = [
            "mc", "--mode", "common", "--n", "500", "--b", "0.3",
            "--dist", "zipf:1.0", "--dests", "20", "--dest", "0",
            "--samples", "20000", "--seed", "123",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "mean,std_error,samples,seed"


@pytest.mark.parametrize("command", ["exact", "posterior", "worst-case", "common"])
def test_threads_only_on_sampling_commands(command, scenario_file, observation_file, capsys):
    argv = {
        "exact": ["exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web"],
        "posterior": [
            "posterior", "--scenario", scenario_file, "--observation", observation_file,
            "--user", "alice", "--dest", "web",
        ],
        "worst-case": [
            "worst-case", "--n", "20", "--alpha", "0.5", "--b", "0.3",
            "--p-target", "0.2", "--p-least", "0.1",
        ],
        "common": [
            "common", "--n", "20", "--b", "0.3", "--dist", "uniform", "--dests", "3", "--dest", "0",
        ],
    }[command]
    assert main(argv) == 0
    assert main(argv + ["--threads", "2"]) == 2


class TestWorstCaseAndCommon:
    def test_exact_vs_limit(self, capsys):
        base = ["--alpha", "0", "--b", "0.25", "--p-target", "0.2", "--p-least", "0.05"]
        assert main(["worst-case", "--n", "200"] + base) == 0
        exact = float(capsys.readouterr().out)
        assert main(["worst-case", "--method", "limit"] + base) == 0
        limit = float(capsys.readouterr().out)
        assert abs(exact - limit) < 0.05

    def test_common_exact_and_bound(self, capsys):
        args = ["common", "--n", "100", "--b", "0.1", "--dist", "zipf:1.0",
                "--dests", "100", "--dest", "0"]
        assert main(args) == 0
        exact = float(capsys.readouterr().out)
        assert main(args + ["--method", "bound"]) == 0
        bound = float(capsys.readouterr().out)
        assert exact >= bound - 1e-12

    def test_common_exact_past_the_structured_limit(self, tmp_path, capsys):
        # The common expectation is a closed form, so no population size limits it.
        def closed(n):
            return f"{0.2**2 + (1 - 0.2**2) * 0.25 + 0.2 * 0.75 * (1 - 0.2**n) / n:.12g}"

        args = ["--b", "0.2", "--dist", "uniform", "--dests", "4", "--dest", "1"]
        assert main(["common", "--n", "100000"] + args) == 0
        assert capsys.readouterr().out == closed(100000) + "\n"
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "common", "--out", str(out), "--n", "100000:1000000:900000"] + args) == 0
        assert [row[:2] for row in _rows(out)] == [["100000", closed(100000)], ["1000000", closed(1000000)]]

    @pytest.mark.parametrize("argv", [
        ["common", "--b", "0.2", "--dist", "uniform", "--dests", "4", "--dest", "1"],
        ["mc", "--mode", "common", "--b", "0.2", "--dist", "uniform", "--dests", "4", "--dest", "1",
         "--samples", "100", "--seed", "1"],
        ["mc", "--mode", "worst-case", "--alpha", "0.5", "--b", "0.2", "--p-target", "0.3", "--p-least", "0.1",
         "--samples", "100", "--seed", "1"],
    ], ids=["common", "mc-common", "mc-worst-case"])
    @pytest.mark.parametrize("n", [1 << 63, 10**400], ids=["2**63", "10**400"])
    def test_population_past_64_bits_exits_3(self, argv, n, capsys):
        assert main(argv + ["--n", str(n)]) == 3
        assert capsys.readouterr().err == "error: population needs at least one user and fewer than 2**63\n"

    def test_structured_size_limit_exit_code(self):
        assert main([
            "worst-case", "--n", "301", "--alpha", "0", "--b", "0.25",
            "--p-target", "0.2", "--p-least", "0.05",
        ]) == 3

    def test_worst_case_exact_needs_n(self, capsys):
        assert main([
            "worst-case", "--alpha", "0.5", "--b", "0.2", "--p-target", "0.3", "--p-least", "0.1",
        ]) == 2
        assert "missing: n" in capsys.readouterr().err


COMMON_BASE = ["--n", "20", "--b", "0.1", "--dests", "5"]


@pytest.mark.parametrize("argv, dest", [
    (["common", "--method", "bound", "--dist", "uniform"], "7"),
    (["common", "--method", "bound", "--dist", "uniform"], "-1"),
    (["common", "--dist", "uniform"], "5"),
    (["mc", "--mode", "common", "--dist", "uniform", "--samples", "100", "--seed", "1"], "7"),
    (["sweep", "--mode", "common", "--dist", "uniform", "--out", "unused.csv"], "7"),
])
def test_common_dest_out_of_range(argv, dest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + COMMON_BASE + ["--dest", dest]) == 3
    assert f"destination {dest} out of range" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [
    ["common"],
    ["sweep", "--mode", "common", "--out", "unused.csv"],
    ["sweep", "--mode", "common", "--method", "mc", "--seed", "1", "--out", "unused.csv"],
    ["mc", "--mode", "common", "--samples", "100", "--seed", "1"],
])
def test_common_never_visited_destination(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + COMMON_BASE + ["--dist", "point:2", "--dest", "0"]) == 3
    assert "never visits" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [
    ["common", "--dist", "zipf:nan", "--dests", "5"],
    ["common", "--dist", "explicit:nan,0.5,0.5", "--dests", "3"],
    ["mc", "--mode", "common", "--dist", "zipf:nan", "--dests", "5", "--samples", "100", "--seed", "1"],
    ["sweep", "--mode", "common", "--dist", "zipf:nan", "--dests", "5", "--out", "unused.csv"],
])
def test_nan_distribution_is_a_model_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--n", "10", "--b", "0.3", "--dest", "0"]) == 3
    err = capsys.readouterr().err
    assert "zipf exponent must be positive" in err or "not stochastic" in err
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [
    ["common"],
    ["common", "--method", "bound"],
    ["mc", "--mode", "common", "--samples", "100", "--seed", "1"],
    ["sweep", "--mode", "common", "--out", "unused.csv"],
])
def test_explicit_distribution_must_match_dests(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--n", "5", "--b", "0.2", "--dist", "explicit:0.5,0.5", "--dests", "3", "--dest", "1"]) == 2
    assert capsys.readouterr() == ("", "error: explicit distribution has 2 entries, expected 3\n")
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [
    ["common", "--dist", "uniform", "--dests", "5"],
    ["mc", "--mode", "common", "--dist", "uniform", "--dests", "5", "--samples", "100", "--seed", "1"],
    ["sweep", "--mode", "common", "--dist", "uniform", "--dests", "5", "--out", "unused.csv"],
])
def test_common_dest_must_be_an_index(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--n", "10", "--b", "0.3", "--dest", "web"]) == 2
    assert "--dest must be a destination index" in capsys.readouterr().err


@pytest.mark.parametrize("mode_args", [
    ["--mode", "common", "--dist", "uniform", "--dests", "5", "--dest", "0"],
    ["--mode", "worst-case", "--p-target", "0.2", "--p-least", "0.05"],
])
def test_sweep_without_n_names_it(mode_args, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", *mode_args, "--b", "0.1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip().endswith("is missing: n")
    assert not out.exists()


SCENARIO = {"b": 0.4, "destinations": ["web", "mail"], "users": [{"name": "alice", "dist": [0.6, 0.4]}]}


@pytest.mark.parametrize("patch, named", [
    ({"users": [{"name": "alice", "dist": ["p", "q"]}]}, "user 'alice': 'dist'"),
    ({"users": [{"name": "alice", "dist": 0.5}]}, "user 'alice': 'dist'"),
    ({"users": [{"name": "alice", "dist": [0.5, None]}]}, "user 'alice': 'dist'"),
    ({"users": [{"name": "alice", "dist": [True, False]}]}, "user 'alice': 'dist'"),
    ({"b": True}, "field 'b'"),
    ({"b": None}, "field 'b'"),
    ({"destinations": "web"}, "field 'destinations'"),
    ({"users": {"alice": [0.6, 0.4]}}, "field 'users'"),
])
def test_scenario_field_of_the_wrong_type(patch, named, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, **patch}))
    assert main(["validate", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("patch, named", [
    ({"hidden_count": True}, "hidden_count"),
    ({"hidden_count": 1.0}, "hidden_count"),
    ({"output_only": "web"}, "field 'output_only'"),
    ({"input_only": "carol"}, "field 'input_only'"),
    ({"linked": {"bob": "mail"}}, "field 'linked'"),
])
def test_observation_field_of_the_wrong_type(patch, named, scenario_file, tmp_path, capsys):
    doc = {"linked": [["bob", "mail"]], "input_only": ["carol"], "output_only": ["web"], "hidden_count": 0}
    path = tmp_path / "observation.json"
    path.write_text(json.dumps({**doc, **patch}))
    assert main([
        "posterior", "--scenario", scenario_file, "--observation", str(path),
        "--user", "alice", "--dest", "web",
    ]) == 2
    assert named in capsys.readouterr().err


def test_exit_codes_seen_by_a_shell(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def exit_code(*argv):
        return subprocess.run(
            [sys.executable, "-m", "onion_anon", *argv], cwd=tmp_path, env=env, capture_output=True
        ).returncode

    worst = ["--alpha", "0.5", "--b", "0.25", "--p-target", "0.2", "--p-least", "0.05"]
    assert exit_code("worst-case", "--n", "20", *worst) == 0
    assert exit_code("sweep", "--mode", "worst-case", *worst, "--out", "x.csv") == 2
    assert exit_code("worst-case", "--n", "20", *worst, "--bogus") == 2
    assert exit_code("worst-case", "--n", "301", *worst) == 3
    assert exit_code("validate", "absent.json") == 4


WORST = ["--b", "0.25", "--p-target", "0.2", "--p-least", "0.05"]
COMMON = ["--b", "0.1", "--dist", "zipf:1.0", "--dests", "30", "--dest", "2"]


def _printed(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out.strip()


def _rows(path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestSweepRowIsTheSingleCommand:
    def test_worst_case_n_sweep(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        sweep = ["sweep", "--mode", "worst-case", "--n", "40:160:40", "--alpha", "0.5", *WORST]
        _printed(sweep + ["--out", str(out)], capsys)
        limit = _printed(["worst-case", "--alpha", "0.5", *WORST, "--method", "limit"], capsys)
        rows = _rows(out)
        assert [row[0] for row in rows] == ["40", "80", "120", "160"]
        for n, psi, ref, _ in rows:
            assert psi == _printed(["worst-case", "--n", n, "--alpha", "0.5", *WORST], capsys)
            assert ref == limit

    def test_worst_case_alpha_sweep(self, tmp_path, capsys):
        out = tmp_path / "alpha.csv"
        sweep = ["sweep", "--mode", "worst-case", "--n", "60", "--alpha", "0:1:0.25", *WORST]
        _printed(sweep + ["--out", str(out)], capsys)
        rows = _rows(out)
        assert [row[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]
        for alpha, psi, ref, _ in rows:
            assert psi == _printed(["worst-case", "--n", "60", "--alpha", alpha, *WORST], capsys)
            assert ref == _printed(["worst-case", "--alpha", alpha, *WORST, "--method", "limit"], capsys)

    def test_alpha_points_are_their_decimals(self, tmp_path, capsys):
        # 0 + 7 * 0.1 is 0.7000000000000001, and 0.7 * 45 rounds to 31 target users where it gives 32.
        out = tmp_path / "alpha.csv"
        _printed(["sweep", "--mode", "worst-case", "--n", "46", "--alpha", "0:1:0.1", *WORST, "--out", str(out)], capsys)
        rows = _rows(out)
        assert [row[0] for row in rows] == ["0", *(f"0.{i}" for i in range(1, 10)), "1"]
        assert rows[7][1] == "0.286166316375"
        for alpha, psi, _, _ in rows:
            assert psi == _printed(["worst-case", "--n", "46", "--alpha", alpha, *WORST], capsys)

    def test_common_n_sweep(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        _printed(["sweep", "--mode", "common", "--n", "10:100:30", *COMMON, "--out", str(out)], capsys)
        bound = _printed(["common", "--n", "10", *COMMON, "--method", "bound"], capsys)
        rows = _rows(out)
        assert [row[0] for row in rows] == ["10", "40", "70", "100"]
        for n, psi, ref, _ in rows:
            assert psi == _printed(["common", "--n", n, *COMMON], capsys)
            assert ref == bound

    @pytest.mark.parametrize("mode, params", [("worst-case", ["--alpha", "0.5", *WORST]), ("common", COMMON)])
    def test_mc_sweep_row_is_the_mc_mean(self, mode, params, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        sampling = ["--samples", "3000"]
        _printed(["sweep", "--mode", mode, "--n", "1000:3000:1000", *params, "--method", "mc", *sampling,
                  "--seed", "21", "--out", str(out)], capsys)
        rows = _rows(out)
        assert len(rows) == 3
        for i, (n, psi, _, _) in enumerate(rows):
            single = ["mc", "--mode", mode, "--n", n, *params, *sampling, "--seed", str(mix64(21, i))]
            printed = _printed(single, capsys)
            assert printed.split()[0] == f"mean={psi}"


class TestSweep:
    def test_common_sweep_layout(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main([
            "sweep", "--mode", "common", "--dist", "zipf:1.0", "--dests", "100",
            "--b", "0.1", "--n", "10:200:10", "--dest", "0", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,expected_psi,lower_bound,abs_error"
        assert len(lines) == 21
        errors = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_sweep_deterministic_bytes(self, tmp_path, capsys):
        args = [
            "sweep", "--mode", "common", "--dist", "zipf:1.0", "--dests", "50",
            "--b", "0.2", "--n", "10:50:10", "--dest", "0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worst_case_alpha_sweep(self, tmp_path, capsys):
        out = tmp_path / "alpha.csv"
        assert main([
            "sweep", "--mode", "worst-case", "--b", "0.25", "--p-target", "0.2",
            "--p-least", "0.05", "--n", "60", "--alpha", "0:1:0.25", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,expected_psi,limit_psi,abs_error"
        assert len(lines) == 6

    def test_mc_sweep_requires_seed(self, tmp_path):
        assert main([
            "sweep", "--mode", "common", "--dist", "uniform", "--dests", "5",
            "--b", "0.2", "--n", "10:20:10", "--dest", "0", "--method", "mc",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_mc_sweep_thread_independent(self, tmp_path, capsys):
        args = [
            "sweep", "--mode", "worst-case", "--b", "0.3", "--p-target", "0.4",
            "--p-least", "0.1", "--n", "1000", "--alpha", "0:1:0.5",
            "--method", "mc", "--samples", "5000", "--seed", "77",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, tmp_path):
        assert main([
            "sweep", "--mode", "common", "--dist", "uniform", "--dests", "5",
            "--b", "0.2", "--n", "10:5", "--dest", "0", "--out", str(tmp_path / "x.csv"),
        ]) == 2


def test_write_scenario_defaults(tmp_path):
    from onion_anon import validate_scenario

    s = validate_scenario([[0.5, 0.5], [0.25, 0.75]], 0.3)
    path = tmp_path / "out.json"
    write_scenario(str(path), s)
    reloaded, users, dests = load_scenario(str(path))
    assert users == ["u0", "u1"] and dests == ["d0", "d1"]
    assert np.allclose(reloaded.p, s.p, rtol=1e-12)


def test_env_var_raises_limits(tmp_path, monkeypatch, scenario_file, capsys):
    monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", "formula_users=2")
    assert main(["exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web"]) == 3
    monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", "formula_users=12")
    assert main(["exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web"]) == 0
    monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", "bogus=1")
    assert main(["exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web"]) == 2


@pytest.mark.parametrize("argv", [
    ["mc", "--mode", "common", "--n", "10", *COMMON, "--samples", "100", "--seed", "1"],
    ["sweep", "--mode", "common", "--n", "10", *COMMON, "--out", "unused.csv"],
])
def test_threads_below_one_names_threads(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


# Each command and --mode/--method row with every needed option left out (but --out, where taken):
# the one error names the row and every missing option, in order.
@pytest.mark.parametrize("argv, named, missing", [
    (["exact"], "exact --method formula", "scenario, user, dest"),
    (["posterior"], "posterior --method formula", "scenario, observation, user, dest"),
    (["mc"], "mc --mode generic", "scenario, user, dest, samples, seed"),
    (["mc", "--mode", "worst-case"], "mc --mode worst-case", "n, alpha, b, p_target, p_least, samples, seed"),
    (["mc", "--mode", "common"], "mc --mode common", "n, b, dist, dests, dest, samples, seed"),
    (["worst-case"], "worst-case --method exact", "n, alpha, b, p_target, p_least"),
    (["worst-case", "--method", "limit"], "worst-case --method limit", "alpha, b, p_target, p_least"),
    (["common"], "common --method exact", "n, b, dist, dests, dest"),
    (["common", "--method", "bound"], "common --method bound", "n, b, dist, dests, dest"),
    (["sweep", "--mode", "common"], "sweep --mode common --method exact", "n, b, dist, dests, dest"),
    (["sweep", "--mode", "common", "--method", "mc"], "sweep --mode common --method mc", "n, b, dist, dests, dest, seed"),
    # sweep's --alpha defaults to 0, so it is never missing.
    (["sweep", "--mode", "worst-case"], "sweep --mode worst-case --method exact", "n, b, p_target, p_least"),
    (["sweep", "--mode", "worst-case", "--method", "mc"], "sweep --mode worst-case --method mc",
     "n, b, p_target, p_least, seed"),
])
def test_missing_options_are_named_in_one_error(argv, named, missing, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "unused.csv"] if argv[0] in ("mc", "sweep") else []
    assert main(argv + out) == 2
    assert capsys.readouterr().err == f"error: {named} is missing: {missing}\n"
    assert not (tmp_path / "unused.csv").exists()


# An option that another row of the command needs, given to a row that does not read it.
@pytest.mark.parametrize("argv, named, unread", [
    (["sweep", "--mode", "common", "--n", "10:20:10", *COMMON, "--alpha", "0:1:0.5", "--out", "unused.csv"],
     "sweep --mode common --method exact", "alpha"),
    (["sweep", "--mode", "common", "--n", "10", *COMMON, "--alpha", "garbage", "--p-target", "0.9",
      "--out", "unused.csv"], "sweep --mode common --method exact", "alpha, p_target"),
    (["sweep", "--mode", "worst-case", "--n", "10", *WORST, "--dist", "zipf:1", "--dests", "7", "--dest", "3",
      "--out", "unused.csv"], "sweep --mode worst-case --method exact", "dist, dests, dest"),
    (["worst-case", "--method", "limit", "--alpha", "0.5", *WORST, "--n", "7"], "worst-case --method limit", "n"),
    (["mc", "--scenario", "absent.json", "--user", "0", "--dest", "0", "--samples", "10", "--seed", "1",
      "--n", "5", "--out", "unused.csv"], "mc --mode generic", "n"),
])
def test_unread_options_are_named_in_one_error(argv, named, unread, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {named} does not read: {unread}\n"
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [
    ["worst-case", "--bogus"],
    ["common", "--n", "ten"],
    ["exact", "--method", "guess"],
    ["sweep", "--n", "10", *COMMON, "--out", "unused.csv"],
])
def test_argparse_usage_errors_return_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_sweep_without_out_names_it(capsys):
    assert main(["sweep", "--mode", "common", "--n", "10", *COMMON]) == 2
    assert capsys.readouterr().err == "error: sweep --mode common --method exact is missing: out\n"


@pytest.mark.parametrize("doc, named", [
    ([SCENARIO], "scenario file must hold a JSON object"),
    ({**SCENARIO, "destinations": ["web", "web"], "users": []}, "destination names must be unique"),
    ({**SCENARIO, "users": SCENARIO["users"] * 2}, "user names must be unique"),
    ({**SCENARIO, "users": [{"name": "alice"}]}, "user entry 0 needs 'name' and 'dist' fields"),
    ({**SCENARIO, "users": [{"dist": [0.6, 0.4]}]}, "user entry 0 needs 'name' and 'dist' fields"),
    ({**SCENARIO, "users": ["alice"]}, "user entry 0 needs 'name' and 'dist' fields"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": [1.0]}]}, "distribution has 1 entries, expected 2"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "explicit:0.2,0.3,0.5"}, {"name": "bob", "dist": "uniform"}]},
     "user 'alice': explicit distribution has 3 entries, expected 2"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "uniform"}, {"name": "bob", "dist": "explicit:0.2,0.3,0.5"}]},
     "user 'bob': explicit distribution has 3 entries, expected 2"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "explicit:0.2,0.3,0.5"}]},
     "user 'alice': explicit distribution has 3 entries, expected 2"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "gauss:1"}]}, "user 'alice': unknown distribution kind 'gauss'"),
])
def test_scenario_file_parse_errors(doc, named, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({**SCENARIO, "users": [{"name": "alice", "dist": "point:5"}]}, "user 'alice': point destination 5 out of range"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "zipf:0"}]}, "user 'alice': zipf exponent must be positive, got 0.0"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": [0.6, 0.3]}]}, "user 'alice': row is not stochastic: it sums to 0.8999999999999999"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": "explicit:0.5,-0.5"}]},
     "user 'alice': explicit vector is not stochastic: it has a negative entry"),
    ({**SCENARIO, "users": []}, "need at least one user"),
    ({**SCENARIO, "destinations": []}, "need at least one destination"),
    ({**SCENARIO, "destinations": [], "users": [{"name": "alice", "dist": "uniform"}, {"name": "bob", "dist": []}]},
     "need at least one destination"),
    ({**SCENARIO, "b": 10**400}, "b out of range: beyond the float range"),
    ({**SCENARIO, "users": [{"name": "alice", "dist": [10**400, 0]}]},
     "user 'alice': row is not stochastic: it has an entry beyond the float range"),
])
def test_scenario_file_model_errors(doc, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_view_past_the_crowd_table_cap_exits_3(tmp_path, capsys):
    # 480 uniform users and 60 bare outputs on each of 8 destinations: 61**8 table entries.
    dests = [f"d{j}" for j in range(8)]
    scenario = {"b": 0.3, "destinations": dests, "users": [{"name": f"u{i}", "dist": "uniform"} for i in range(480)]}
    (tmp_path / "big.json").write_text(json.dumps(scenario))
    (tmp_path / "view.json").write_text(json.dumps({"output_only": dests * 60}))
    argv = ["posterior", "--scenario", str(tmp_path / "big.json"), "--observation", str(tmp_path / "view.json"),
            "--user", "u0", "--dest", "d0"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: a crowd table of {61**8} entries exceeds the cap of {1 << 22}\n"


@pytest.mark.parametrize("doc, named", [
    ([], "observation file must hold a JSON object"),
    ({"input_only": ["7"], "hidden_count": 2}, "user index 7 out of range"),
    ({"output_only": ["2"], "hidden_count": 2}, "destination index 2 out of range"),
    ({"input_only": ["dave"], "hidden_count": 2}, "unknown user 'dave'"),
    ({"linked": [["bob"]], "hidden_count": 2}, "linked entries must be [user, destination] pairs"),
    ({"linked": [["bob", "mail", "web"]], "hidden_count": 1}, "linked entries must be [user, destination] pairs"),
    ({"linked": ["bob"], "hidden_count": 2}, "linked entries must be [user, destination] pairs"),
])
def test_observation_file_parse_errors(doc, named, scenario_file, tmp_path, capsys):
    path = tmp_path / "observation.json"
    path.write_text(json.dumps(doc))
    assert main([
        "posterior", "--scenario", scenario_file, "--observation", str(path),
        "--user", "alice", "--dest", "web",
    ]) == 2
    assert named in capsys.readouterr().err


def test_sweep_refuses_two_varying_ranges(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([
        "sweep", "--mode", "worst-case", "--b", "0.25", "--p-target", "0.2", "--p-least", "0.05",
        "--n", "10:20:10", "--alpha", "0:1:0.5", "--out", str(out),
    ]) == 2
    assert "sweep varies either --n or --alpha, not both" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, named", [
    ("formula_users=ten", "formula_users needs an integer, got 'ten'"),
    ("formula_users=1.5", "formula_users needs an integer, got '1.5'"),
    ("oracle_budget=0", "oracle_budget must be positive"),
    ("mc_users=-3", "mc_users must be positive"),
])
def test_env_var_needs_positive_integers(value, named, monkeypatch, scenario_file, capsys):
    monkeypatch.setenv("ONION_ANON_SIZE_LIMITS", value)
    with pytest.raises(ParseError, match=named):
        current_limits()
    assert main(["exact", "--scenario", scenario_file, "--user", "alice", "--dest", "web"]) == 2
    assert named in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every ``main`` call in a process; no parsed state carries over."""

    MC = ["mc", "--mode", "common", "--n", "50", *COMMON, "--samples", "400", "--seed", "3"]
    WORST_CASE = ["worst-case", "--n", "40", "--alpha", "0.5", *WORST]
    SWEEP = ["sweep", "--mode", "common", "--n", "10:30:10", *COMMON, "--out", "s.csv"]

    @pytest.mark.parametrize("first, second", [
        (MC + ["--stratify"], MC),
        (WORST_CASE + ["--truncate"], WORST_CASE),
        (SWEEP + ["--method", "mc", "--samples", "200", "--seed", "4"], SWEEP),
        (MC + ["--out", "x.csv"], MC),
    ])
    def test_second_call_does_what_a_fresh_call_does(self, first, second, tmp_path, monkeypatch, capsys):
        import onion_anon.cli as cli

        monkeypatch.chdir(tmp_path)
        truncated = []  # what each exact worst-case sum was asked for; it prints the same either way at n=40
        real = cli.worst_case_expected_exact
        monkeypatch.setattr(
            cli, "worst_case_expected_exact", lambda pop, truncate: truncated.append(truncate) or real(pop, truncate)
        )

        def run(argv):
            """What ``argv`` prints, the files it writes (then removed) and the sums it truncates."""
            assert main(argv) == 0
            files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
            for path in tmp_path.iterdir():
                path.unlink()
            result = capsys.readouterr().out, files, list(truncated)
            truncated.clear()
            return result

        build_parser.cache_clear()
        fresh = run(second)
        assert run(first) != fresh
        assert run(second) == fresh

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        import argparse

        argv = ["worst-case", "--alpha", "0.5", *WORST, "--method", "limit"]
        _printed(argv, capsys)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        _printed(argv, capsys)
        assert built == []
