import json
import math

import numpy as np
import pytest

from onion_anon.cli import load_scenario, main, write_scenario


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
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--threads", "2"])
    assert exit_info.value.code == 2


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
