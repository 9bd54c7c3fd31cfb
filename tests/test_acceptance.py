"""Acceptance gate: one test per criterion, at its stated tolerance.

Criterion 6 has a second test, for the 1/n rate at which the two-group
expectation approaches its limit.

Each test prints a single pass line (visible with ``pytest -s`` or
``-rP``); a failed assertion means the criterion failed.  Run with::

    pytest tests/test_acceptance.py -v
"""
import math
import time

import numpy as np
import pytest

from onion_anon import (
    CommonPopulation,
    PosteriorQuery,
    WorstCasePopulation,
    build_common_scenario,
    build_worst_case_scenario,
    common_expected_exact,
    estimate_expected_posterior,
    expected_posterior_formula,
    expected_posterior_oracle,
    lower_bound,
    make_distribution,
    validate_scenario,
    worst_case_expected_exact,
    worst_case_limit,
)
from onion_anon.cli import main
from onion_anon.seeding import mix64


def random_scenario(rng, n, dest_count, b):
    p = rng.random((n, dest_count)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    return validate_scenario(p, b)


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    checked = 0
    for n in range(2, 6):
        for dest_count in (2, 3):
            for b in (0.1, 0.3, 0.5, 0.9):
                for _ in range(5):
                    scenario = random_scenario(rng, n, dest_count, b)
                    query = PosteriorQuery(0, 0)
                    formula = expected_posterior_formula(scenario, query)
                    oracle = expected_posterior_oracle(scenario, query)
                    assert formula == pytest.approx(oracle, rel=1e-9), (n, dest_count, b)
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    print(f"criterion 1 (oracle equivalence, {checked} scenarios, {elapsed:.1f}s): PASS")


def test_criterion_02_boundary_exactness():
    rng = np.random.default_rng(20240502)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        dest_count = int(rng.integers(2, 5))
        u = int(rng.integers(0, n))
        d = int(rng.integers(0, dest_count))
        frozen = random_scenario(rng, n, dest_count, 0.5).p
        query = PosteriorQuery(u, d)
        at_zero = expected_posterior_formula(validate_scenario(frozen, 0.0), query)
        at_one = expected_posterior_formula(validate_scenario(frozen, 1.0), query)
        assert abs(at_zero - float(frozen[u, d])) <= 1e-12
        assert abs(at_one - 1.0) <= 1e-12
    print("criterion 2 (boundary exactness at b=0 and b=1): PASS")


def test_criterion_03_lower_bound():
    rng = np.random.default_rng(20240503)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        dest_count = int(rng.integers(2, 4))
        b = float(rng.uniform(0.0, 1.0))
        scenario = random_scenario(rng, n, dest_count, b)
        u = int(rng.integers(0, n))
        d = int(rng.integers(0, dest_count))
        value = expected_posterior_formula(scenario, PosteriorQuery(u, d))
        floor = lower_bound(b, float(scenario.p[u, d]))
        assert value >= floor - 1e-12
    # Tightness at the endpoints.
    for _ in range(5):
        scenario = random_scenario(rng, 3, 2, 0.0)
        value = expected_posterior_formula(scenario, PosteriorQuery(0, 0))
        assert abs(value - lower_bound(0.0, float(scenario.p[0, 0]))) <= 1e-12
        scenario = random_scenario(rng, 3, 2, 1.0)
        value = expected_posterior_formula(scenario, PosteriorQuery(0, 0))
        assert abs(value - lower_bound(1.0, float(scenario.p[0, 0]))) <= 1e-12
    print("criterion 3 (lower bound on 200 scenarios, tight at endpoints): PASS")


def test_criterion_04_vertex_structure():
    rng = np.random.default_rng(20240504)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        dest_count = int(rng.integers(2, 4))
        b = float(rng.uniform(0.05, 0.95))
        base = rng.random((n, dest_count)) + 0.05
        base /= base.sum(axis=1, keepdims=True)
        v = int(rng.integers(1, n))
        e, f = rng.choice(dest_count, size=2, replace=False).tolist()
        zeta = float(base[v, e] + base[v, f])
        values = []
        for x in np.linspace(0.0, zeta, 21):
            p = base.copy()
            p[v, e] = x
            p[v, f] = zeta - x
            scenario = validate_scenario(p, b)
            values.append(expected_posterior_formula(scenario, PosteriorQuery(0, 0)))
        second_differences = np.diff(values, n=2)
        assert np.all(second_differences >= -1e-9), (trial, second_differences.min())
    print("criterion 4 (vertex structure: convex along opposing trade-offs): PASS")


def test_criterion_05_structured_sum_consistency():
    u_dist = [0.5, 0.3, 0.2]
    shared = tuple(float(x) for x in make_distribution("zipf:1.0", 3))
    query = PosteriorQuery(0, 0)
    for n in (2, 3, 4, 5):
        for b in (0.3, 0.6):
            for alpha in (0.0, 0.5, 1.0):
                scenario = build_worst_case_scenario(n, alpha, b, u_dist)
                pop = WorstCasePopulation(
                    n=n, alpha=alpha, b=b, p_target=u_dist[0], p_least=u_dist[2]
                )
                oracle = expected_posterior_oracle(scenario, query)
                assert worst_case_expected_exact(pop) == pytest.approx(oracle, rel=1e-9)
            scenario = build_common_scenario(n, b, shared)
            pop = CommonPopulation(n=n, b=b, p=shared, dest=0)
            oracle = expected_posterior_oracle(scenario, query)
            assert common_expected_exact(pop) == pytest.approx(oracle, rel=1e-9)
    print("criterion 5 (structured sums match the enumeration oracle): PASS")


def test_criterion_06_asymptotic_convergence():
    started = time.perf_counter()
    b, p, q = 0.25, 0.2, 0.05
    for alpha in (0.0, 0.5, 1.0):
        limit = worst_case_limit(b, p, q, alpha).value
        errors = {}
        for n in (50, 200):
            pop = WorstCasePopulation(n=n, alpha=alpha, b=b, p_target=p, p_least=q)
            errors[n] = abs(worst_case_expected_exact(pop) - limit)
        assert errors[200] <= 0.05, (alpha, errors)
        assert errors[200] <= errors[50] + 1e-6, (alpha, errors)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    print(f"criterion 6 (convergence to the three limits, {elapsed:.1f}s): PASS")


def test_criterion_06_rate_is_one_over_n():
    # (n - 1)(E_n - limit) measures 0.0028, 0.204 and 0.095 at the three alphas; at a rate
    # of sqrt(log n / n) it would nearly double from n = 101 to n = 301.
    b, p, q = 0.4, 0.3, 0.1
    for alpha in (0.0, 0.5, 1.0):
        limit = worst_case_limit(b, p, q, alpha).value
        scaled = []
        for n in (101, 301):
            pop = WorstCasePopulation(n=n, alpha=alpha, b=b, p_target=p, p_least=q)
            scaled.append((n - 1) * (worst_case_expected_exact(pop) - limit))
        assert scaled[1] == pytest.approx(scaled[0], rel=0.03), (alpha, scaled)
    print("criterion 6 (the gap to the limit shrinks as 1/n): PASS")


def test_criterion_07_endpoint_maximality():
    alphas = [i / 10 for i in range(11)]
    for b in (0.25, 0.5, 0.75):
        for p in (0.2, 0.5, 0.7):
            for q in (0.05, 0.25):
                if p + q > 1.0:
                    continue
                values = []
                for alpha in alphas:
                    pop = WorstCasePopulation(n=200, alpha=alpha, b=b, p_target=p, p_least=q)
                    values.append(worst_case_expected_exact(pop))
                endpoints = max(values[0], values[-1])
                assert max(values) <= endpoints + 1e-12, (b, p, q)
    # At the threshold prior, the two endpoint limits coincide.
    b, p = 0.5, 0.6
    threshold = (1 - b) * (1 - p) ** 2 / (p * (1 + b) - b)
    zero = worst_case_limit(b, p, threshold, 0.0).value
    one = worst_case_limit(b, p, threshold, 1.0).value
    assert zero == pytest.approx(one, abs=1e-9)
    print("criterion 7 (worst population sits at an alpha endpoint): PASS")


def test_criterion_08_common_distribution_convergence():
    row = tuple(float(x) for x in make_distribution("zipf:1.0", 100))
    floor = lower_bound(0.1, row[0])
    errors = {}
    for n in (50, 100, 200):
        pop = CommonPopulation(n=n, b=0.1, p=row, dest=0)
        errors[n] = abs(common_expected_exact(pop) - floor)
    assert errors[100] < errors[50]
    assert errors[200] < errors[100]
    assert errors[200] <= 0.55 * errors[100], errors
    print("criterion 8 (common population approaches the lower bound as 1/n): PASS")


def test_criterion_09_monte_carlo_calibration():
    rng = np.random.default_rng(20240509)
    p = rng.random((4, 2)) + 0.2
    p /= p.sum(axis=1, keepdims=True)
    scenario = validate_scenario(p, 0.5)
    query = PosteriorQuery(0, 0)
    exact = expected_posterior_formula(scenario, query)
    within_two = 0
    within_four = 0
    for i in range(100):
        estimate = estimate_expected_posterior(scenario, query, 10_000, mix64(777, i))
        deviation = abs(estimate.mean - exact)
        if deviation <= 2 * estimate.std_error:
            within_two += 1
        if deviation <= 4 * estimate.std_error:
            within_four += 1
    assert within_two >= 90, within_two
    assert within_four >= 99, within_four
    print(
        f"criterion 9 (calibration: {within_two}/100 within 2se, "
        f"{within_four}/100 within 4se): PASS"
    )


def test_criterion_10_reproducibility(tmp_path):
    mc_args = [
        "mc", "--mode", "worst-case", "--n", "5000", "--alpha", "0.3", "--b", "0.2",
        "--p-target", "0.4", "--p-least", "0.1", "--samples", "30000", "--seed", "4321",
    ]
    first, second = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    assert main(mc_args + ["--threads", "1", "--out", str(first)]) == 0
    assert main(mc_args + ["--threads", "7", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    sweep_args = [
        "sweep", "--mode", "common", "--method", "mc", "--dist", "zipf:1.0",
        "--dests", "30", "--b", "0.25", "--n", "100:1000:100", "--dest", "0",
        "--samples", "5000", "--seed", "999",
    ]
    first, second = tmp_path / "sw1.csv", tmp_path / "sw2.csv"
    assert main(sweep_args + ["--threads", "1", "--out", str(first)]) == 0
    assert main(sweep_args + ["--threads", "5", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print("criterion 10 (bit-identical CSV across thread counts): PASS")
