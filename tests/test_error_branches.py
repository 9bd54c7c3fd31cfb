"""Error branches of the public entry points that the other test files do not reach.

Each case names the rule it breaks and checks the documented error class
and the message that names the cause.
"""
import numpy as np
import pytest

from onion_anon import (
    CommonPopulation,
    Configuration,
    DestMultiset,
    ModelError,
    Observation,
    ObservationError,
    PosteriorQuery,
    ScenarioError,
    WorstCasePopulation,
    binomial_weights,
    check_observation,
    configuration_prior,
    estimate_expected_posterior,
    observe,
    sample_configuration,
    validate_scenario,
)
from onion_anon.binomial import masses
from onion_anon.cli import main
from onion_anon.model import check_unit
from onion_anon.montecarlo import _small_int

SCENARIO = validate_scenario([[0.5, 0.5], [0.3, 0.7], [0.2, 0.8]], 0.4)


@pytest.mark.parametrize("observation, named", [
    (Observation(((3, 0),), (), DestMultiset((0, 0)), 2), "linked user 3 out of range"),
    (Observation(((0, 2),), (), DestMultiset((0, 0)), 2), "linked destination 2 out of range"),
    (Observation((), (-1,), DestMultiset((0, 0)), 2), "input-only user -1 out of range"),
])
def test_check_observation_rejects_indices_outside_the_scenario(observation, named):
    with pytest.raises(ObservationError, match=f"^{named}$"):
        check_observation(SCENARIO, observation)


@pytest.mark.parametrize("linked, input_only", [(((1, 0),), (1,)), ((), (2, 2))])
def test_observation_rejects_a_user_listed_twice(linked, input_only):
    with pytest.raises(ObservationError, match="a user appears twice in the observation"):
        Observation(linked, input_only, DestMultiset((0, 0)), 1)


def test_observation_rejects_a_negative_hidden_count():
    with pytest.raises(ObservationError, match="hidden_count must be a non-negative integer, got -1"):
        Observation((), (), DestMultiset((0, 0)), -1)


def test_dest_multiset_rejects_a_negative_count():
    with pytest.raises(ObservationError, match="counts must be non-negative integers, got \\(1, -1\\)"):
        DestMultiset((1, -1))


@pytest.mark.parametrize("item", [-1, 2])
def test_dest_multiset_from_items_rejects_an_index_out_of_range(item):
    with pytest.raises(ObservationError, match=f"destination index {item} out of range"):
        DestMultiset.from_items([0, item], 2)


@pytest.mark.parametrize("p, named", [
    ([0.5, 0.5], "destination matrix must be two-dimensional"),
    ([[], []], "need at least one destination"),
])
def test_validate_scenario_rejects_a_malformed_matrix(p, named):
    with pytest.raises(ScenarioError, match=named):
        validate_scenario(p, 0.3)


@pytest.mark.parametrize("value", ["half", None, [0.5]])
def test_check_unit_rejects_a_non_number(value):
    with pytest.raises(ScenarioError, match="^b must be a number"):
        check_unit("b", value)


@pytest.mark.parametrize("config, named", [
    (Configuration((0, 1), (False,) * 2, (False,) * 2), "configuration does not have one entry per user"),
    (Configuration((0, 1, 2), (False,) * 3, (True,) * 3), "destination index 2 out of range"),
])
@pytest.mark.parametrize("entry_point", [observe, configuration_prior])
def test_a_configuration_must_fit_the_scenario(entry_point, config, named):
    with pytest.raises(ObservationError, match=named):
        entry_point(SCENARIO, config)


@pytest.mark.parametrize("pin, named", [((3, 0), "pinned user 3 out of range"), ((0, 2), "pinned destination 2 out of range")])
def test_sample_configuration_rejects_a_pin_outside_the_scenario(pin, named):
    with pytest.raises(ScenarioError, match=named):
        sample_configuration(SCENARIO, 1, pin=pin)


def test_estimate_needs_the_subject_its_mode_names():
    common = CommonPopulation(n=4, b=0.3, p=(0.5, 0.5), dest=0)
    with pytest.raises(ModelError, match="generic mode needs a Scenario and a query"):
        estimate_expected_posterior(common, PosteriorQuery(0, 0), 100, 1, mode="generic")
    with pytest.raises(ModelError, match="common mode needs a CommonPopulation"):
        estimate_expected_posterior(SCENARIO, PosteriorQuery(0, 0), 100, 1, mode="common")


@pytest.mark.parametrize("build", [
    lambda: WorstCasePopulation(n=0, alpha=0.5, b=0.3, p_target=0.3, p_least=0.1),
    lambda: CommonPopulation(n=0, b=0.3, p=(0.5, 0.5), dest=0),
], ids=["worst-case", "common"])
def test_a_population_needs_a_user(build):
    with pytest.raises(ScenarioError, match="population needs at least one user"):
        build()


def test_binomial_weights_reject_a_negative_n_and_q_outside_the_unit_interval():
    with pytest.raises(ValueError, match="n must be non-negative"):
        binomial_weights(-1, 0.5)
    with pytest.raises(ValueError, match="q out of range: 1.5"):
        binomial_weights(3, 1.5)


def test_masses_window_must_hold_the_mode():
    with pytest.raises(ValueError, match=r"window \[0, 2\] misses the mode 5"):
        masses(10, 0.5, 0, 2)


def test_small_int_widens_past_int32():
    assert _small_int(2**31 - 1) == np.int32
    assert _small_int(2**31) == np.int64


def test_sweep_range_needs_three_fields(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--mode", "common", "--n", "10:20", "--b", "0.1", "--dist", "uniform",
            "--dests", "3", "--dest", "0", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad range '10:20'; expected lo:hi:step\n"
    assert not out.exists()
