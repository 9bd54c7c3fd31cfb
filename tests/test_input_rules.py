"""Each input rule has one check, and every entry point that needs it agrees.

The properties feed finite, NaN, infinite and out-of-range values to the
entry points that share a rule and require the same verdict from all of
them, matching the rule written out here.  The plain cases pin the query
and view defects that used to slip through or fail with the wrong class.
"""
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from onion_anon import (
    CommonPopulation,
    DestMultiset,
    Observation,
    ObservationError,
    PosteriorQuery,
    QueryError,
    ScenarioError,
    SizeLimitError,
    SizeLimits,
    UnobservedView,
    WorstCasePopulation,
    build_common_scenario,
    build_worst_case_scenario,
    estimate_expected_posterior,
    expected_posterior_formula,
    expected_posterior_oracle,
    injection_sum,
    least_alternative_destination,
    lower_bound,
    make_distribution,
    validate_scenario,
    view_probability_split,
    worst_alpha,
    worst_case_limit,
)
from onion_anon.model import STOCHASTIC_TOL

ODD = [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, 1.0 + 2.0**-52, -(2.0**-1074)]
UNIT_ISH = st.one_of(st.floats(-0.25, 1.25), st.sampled_from(ODD), st.floats())


def accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except ScenarioError:
        return False
    return True


def in_unit(x) -> bool:
    return 0.0 <= x <= 1.0


@given(UNIT_ISH, UNIT_ISH, UNIT_ISH)
def test_two_group_parameters_have_one_rule(b, p_target, p_least):
    verdicts = {
        accepts(WorstCasePopulation, 7, 0.5, b, p_target, p_least),
        accepts(worst_case_limit, b, p_target, p_least, 0.5),
        accepts(worst_alpha, b, p_target, p_least),
    }
    rule = in_unit(b) and in_unit(p_target) and in_unit(p_least) and p_target + p_least <= 1.0 + STOCHASTIC_TOL
    assert verdicts == {rule}


def normalised(xs):
    total = sum(xs)
    return [x / total for x in xs]


VALID_ROWS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda xs: sum(xs) > 0).map(normalised)
NEAR_TOLERANCE = st.tuples(VALID_ROWS, st.floats(-3 * STOCHASTIC_TOL, 3 * STOCHASTIC_TOL)).map(
    lambda pair: [pair[0][0] + pair[1], *pair[0][1:]]
)
ROWS = st.one_of(VALID_ROWS, NEAR_TOLERANCE, st.lists(UNIT_ISH, min_size=1, max_size=4))


@given(ROWS)
@example([8.988465674311579e307, 8.98846567431158e307])
@example([math.inf, -math.inf])
def test_a_destination_row_has_one_rule(row):
    verdicts = {
        accepts(validate_scenario, [row], 0.5),
        accepts(make_distribution, "explicit:" + ",".join(map(repr, row)), len(row)),
        accepts(CommonPopulation, 3, 0.5, tuple(row), 0),
    }
    finite = all(math.isfinite(x) for x in row)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(row))
    rule = finite and min(row) >= 0.0 and abs(total - 1.0) <= STOCHASTIC_TOL
    assert verdicts == {rule}


@given(st.integers(1, 80), st.floats(0.0, 1.0), VALID_ROWS.filter(lambda row: len(row) > 1))
def test_worst_case_scenario_has_the_populations_target_count(n, alpha, row):
    scenario = build_worst_case_scenario(n, alpha, 0.3, row)
    least = least_alternative_destination(row)
    pop = WorstCasePopulation(n, alpha, 0.3, row[0], row[least])
    assert int(np.sum(scenario.p[1:, 0] == 1.0)) == pop.n_target
    assert int(np.sum(scenario.p[1:, least] == 1.0)) == pop.n_other


def test_worst_alpha_checks_the_prior_sum():
    with pytest.raises(ScenarioError, match="p_target \\+ p_least exceeds 1"):
        worst_alpha(0.5, 0.8, 0.5)


SCENARIO = validate_scenario([[0.5, 0.5], [0.3, 0.7], [0.2, 0.8]], 0.4)
N = SCENARIO.n


@pytest.mark.parametrize("user, dest", [(-1, 0), (0, -1), (N, 0), (0, SCENARIO.dest_count)])
def test_generic_mc_rejects_a_query_outside_the_scenario(user, dest):
    with pytest.raises(QueryError):
        estimate_expected_posterior(SCENARIO, PosteriorQuery(user, dest), 100, 1)


@pytest.mark.parametrize("user", [-1, N])
def test_view_split_rejects_a_crowd_user_outside_the_scenario(user):
    view = UnobservedView(users=(0, user), outputs=DestMultiset((1, 0)))
    with pytest.raises(ObservationError, match=f"crowd user {user} out of range"):
        view_probability_split(SCENARIO, view, PosteriorQuery(0, 0))


@pytest.mark.parametrize("user", [-1, N])
def test_injection_sum_rejects_a_crowd_user_outside_the_scenario(user):
    with pytest.raises(ObservationError, match=f"crowd user {user} out of range"):
        injection_sum((0, user), DestMultiset((1, 0)), SCENARIO.p)


@pytest.mark.parametrize("counts", [(1, 0, 0), (1,)])
def test_view_split_rejects_outputs_of_the_wrong_length(counts):
    view = UnobservedView(users=(0, 1), outputs=DestMultiset(counts))
    with pytest.raises(ObservationError, match="wrong number of destinations"):
        view_probability_split(SCENARIO, view, PosteriorQuery(0, 0))


def test_view_split_rejects_a_crowd_user_listed_twice():
    view = UnobservedView(users=(0, 0, 1), outputs=DestMultiset((1, 0)))
    with pytest.raises(ObservationError, match="crowd user 0 listed twice"):
        view_probability_split(SCENARIO, view, PosteriorQuery(0, 0))


@pytest.mark.parametrize("counts", [(0, 0, 1), (1,)])
def test_injection_sum_rejects_outputs_of_the_wrong_length(counts):
    with pytest.raises(ObservationError, match="wrong number of destinations"):
        injection_sum((0, 1), DestMultiset(counts), SCENARIO.p)


@pytest.mark.parametrize("value", [5.5, 5.0, True, "5", None])
def test_population_sizes_and_indices_are_integers(value):
    with pytest.raises(ScenarioError, match=f"n must be an integer, got {value!r}"):
        WorstCasePopulation(n=value, alpha=0.5, b=0.3, p_target=0.3, p_least=0.1)
    with pytest.raises(ScenarioError, match=f"n must be an integer, got {value!r}"):
        CommonPopulation(n=value, b=0.3, p=(0.5, 0.5), dest=0)
    with pytest.raises(ScenarioError, match=f"n must be an integer, got {value!r}"):
        build_common_scenario(value, 0.3, [0.5, 0.5])
    with pytest.raises(ScenarioError, match=f"dest must be an integer, got {value!r}"):
        CommonPopulation(n=5, b=0.3, p=(0.5, 0.5), dest=value)


def test_numpy_integers_are_integers():
    assert WorstCasePopulation(np.int64(5), 0.5, 0.3, 0.3, 0.1).n_target == 2
    assert CommonPopulation(np.int32(5), 0.3, (0.5, 0.5), np.int64(1)).queried_prior() == 0.5
    assert Observation((), (), DestMultiset((np.int64(1), 0)), np.int32(2)).hidden_count == 2


@pytest.mark.parametrize("counts, hidden", [((1.5, 0.5), 0), ((True, 0), 0), ((1.0, 0), 0), ((1, 0), 0.5), ((1, 0), True)])
def test_observation_counts_are_integers(counts, hidden):
    # The kernel used to cast these to int64 and evaluate the view (1, 0) instead.
    with pytest.raises(ObservationError, match="must be (a )?non-negative integers?, got"):
        Observation((), (), DestMultiset(counts), hidden)


@pytest.mark.parametrize("call, args, name", [
    (validate_scenario, ([[0.5, 0.5]], True), "b"),
    (WorstCasePopulation, (7, True, 0.3, 0.3, 0.1), "alpha"),
    (CommonPopulation, (3, np.True_, (0.5, 0.5), 0), "b"),
    (worst_case_limit, (0.3, 0.3, 0.1, True), "alpha"),
    (worst_alpha, (0.3, False, 0.1), "p_target"),
    (lower_bound, (True, 0.3), "b"),
])
def test_unit_values_are_not_bools(call, args, name):
    with pytest.raises(ScenarioError, match=f"^{name} must be a number, got "):
        call(*args)


def uniform(n: int, dests: int):
    return validate_scenario(np.full((n, dests), 1.0 / dests), 0.5)


@pytest.mark.parametrize("call, sizes, message", [
    (lambda n, dests: expected_posterior_formula(uniform(n, dests), PosteriorQuery(0, 0)), (11, 6),
     "the formula needs 8385216 lattice units, budget is 4194304"),
    (lambda n, dests: expected_posterior_oracle(uniform(n, dests), PosteriorQuery(0, 0)), (6, 3),
     "oracle enumeration needs 2985984 configurations, budget is 248832"),
    (lambda n, dests: estimate_expected_posterior(uniform(n, dests), PosteriorQuery(0, 0), 2, 1), (41, 2),
     "generic sampling limited to 40 users and 6 destinations (got 41, 2)"),
], ids=["formula", "oracle", "generic-sampling"])
def test_size_limits_name_the_budget_and_the_request(call, sizes, message):
    with pytest.raises(SizeLimitError) as info:
        call(*sizes)
    assert str(info.value) == message
    call(sizes[0] - 1, sizes[1])


def test_size_limits_are_four_budgets():
    names = [field.name for field in dataclasses.fields(SizeLimits)]
    assert names == ["formula_budget", "oracle_budget", "mc_users", "mc_dests"]


def test_the_cli_imports_nothing_outside_the_stdlib_but_numpy():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import onion_anon.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["numpy", "onion_anon"]
