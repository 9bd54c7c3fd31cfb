import numpy as np
import pytest

from onion_anon import (
    ParseError,
    ScenarioError,
    build_common_scenario,
    build_worst_case_scenario,
    least_alternative_destination,
    make_distribution,
)


class TestMakeDistribution:
    def test_zipf_three_destinations(self):
        row = make_distribution("zipf:1.0", 3)
        assert np.allclose(row, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)

    def test_zipf_ranks_never_increase(self):
        for s in (0.4, 1.0, 2.5):
            row = make_distribution(f"zipf:{s}", 50)
            assert np.all(np.diff(row) <= 0)
            assert abs(float(row.sum()) - 1.0) < 1e-12

    def test_point(self):
        row = make_distribution("point:2", 3)
        assert row.tolist() == [0.0, 0.0, 1.0]

    def test_uniform(self):
        row = make_distribution("uniform", 4)
        assert row.tolist() == [0.25] * 4

    def test_explicit(self):
        row = make_distribution("explicit:0.7,0.3", 2)
        assert np.allclose(row, [0.7, 0.3])

    def test_zipf_requires_positive_exponent(self):
        with pytest.raises(ScenarioError):
            make_distribution("zipf:0.0", 3)

    def test_explicit_must_be_stochastic(self):
        with pytest.raises(ScenarioError):
            make_distribution("explicit:0.7,0.2", 2)

    @pytest.mark.parametrize("exponent", [float("nan"), -float("inf")])
    def test_zipf_rejects_nan_and_negative_infinity(self, exponent):
        with pytest.raises(ScenarioError):
            make_distribution(f"zipf:{exponent}", 3)

    def test_zipf_infinite_exponent_is_a_point_mass(self):
        assert make_distribution("zipf:inf", 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("probs", [[float("nan"), 0.5, 0.5], [float("nan")], [float("inf"), 0.0]])
    def test_explicit_rejects_non_finite_entries(self, probs):
        with pytest.raises(ScenarioError):
            make_distribution("explicit:" + ",".join(map(repr, probs)), len(probs))


class TestParse:
    def test_forms(self):
        ranks = np.arange(1, 5, dtype=np.float64) ** -1.5
        assert make_distribution(" Zipf:1.5 ", 4).tolist() == (ranks / ranks.sum()).tolist()
        assert make_distribution("uniform", 3).tolist() == [1 / 3] * 3
        assert make_distribution("point:0", 1).tolist() == [1.0]
        assert make_distribution("explicit:0.7,0.3", 2).tolist() == [0.7, 0.3]

    def test_explicit_must_match_the_dest_count(self):
        for text, entries in (("explicit:0.5,0.5", 2), ("explicit:0.2,0.3,0.5,0.0", 4), ("explicit:1", 1)):
            with pytest.raises(ParseError, match=f"^explicit distribution has {entries} entries, expected 3$"):
                make_distribution(text, 3)

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown distribution kind 'gauss'"):
            make_distribution("gauss:1.0", 3)

    def test_bad_parameter(self):
        for text in ("zipf:abc", "zipf", "point:1.5", "explicit:0.5,x", "explicit:"):
            with pytest.raises(ParseError, match="bad distribution parameter"):
                make_distribution(text, 3)

    def test_kinds_that_take_no_parameter_or_need_one(self):
        with pytest.raises(ParseError, match="uniform takes no parameter"):
            make_distribution("uniform:3", 3)
        with pytest.raises(ParseError, match="explicit distribution needs probabilities"):
            make_distribution("explicit", 3)

    def test_point_destination_in_range(self):
        for text in ("point:3", "point:-1"):
            with pytest.raises(ScenarioError, match="out of range"):
                make_distribution(text, 3)

    def test_needs_dest_count(self):
        for count in (None, 2.0, True, "3"):
            with pytest.raises(ScenarioError, match="dest_count must be an integer"):
                make_distribution("uniform", count)

    @pytest.mark.parametrize("text", ["uniform", "zipf:1.0", "point:0", "explicit:1.0"])
    def test_needs_one_destination(self, text):
        with pytest.raises(ScenarioError, match="need at least one destination"):
            make_distribution(text, 0)


class TestLeastAlternative:
    def test_ignores_the_target_index(self):
        assert least_alternative_destination([0.1, 0.6, 0.3]) == 2

    def test_target_may_be_globally_smallest(self):
        assert least_alternative_destination([0.05, 0.8, 0.15]) == 2

    def test_ties_break_to_highest_index(self):
        assert least_alternative_destination([0.5, 0.25, 0.25]) == 2

    def test_single_destination(self):
        assert least_alternative_destination([1.0]) == 0


class TestBuilders:
    def test_worst_case_single_user(self):
        s = build_worst_case_scenario(1, 0.5, 0.3, [0.6, 0.4])
        assert s.n == 1 and np.allclose(s.p[0], [0.6, 0.4])

    def test_worst_case_alpha_one(self):
        s = build_worst_case_scenario(3, 1.0, 0.3, [0.5, 0.25, 0.25])
        assert np.allclose(s.p[1], [1, 0, 0]) and np.allclose(s.p[2], [1, 0, 0])

    def test_worst_case_rounding(self):
        s = build_worst_case_scenario(4, 0.5, 0.3, [0.5, 0.25, 0.25])
        on_target = sum(1 for i in range(1, 4) if s.p[i, 0] == 1.0)
        assert on_target == 2
        assert s.p[3, 2] == 1.0  # ties break to the highest index

    def test_worst_case_alpha_zero(self):
        s = build_worst_case_scenario(4, 0.0, 0.3, [0.2, 0.5, 0.3])
        for i in (1, 2, 3):
            assert s.p[i, 2] == 1.0

    def test_worst_case_names_the_bad_row(self):
        with pytest.raises(ScenarioError, match="^row 0 is not stochastic: it has a negative entry$"):
            build_worst_case_scenario(4, 0.5, 0.3, [1.5, -0.5])

    def test_common_rows_identical(self):
        s = build_common_scenario(5, 0.2, [0.7, 0.3])
        assert s.n == 5
        for i in range(5):
            assert np.allclose(s.p[i], [0.7, 0.3])

    def test_common_zipf_rows(self):
        s = build_common_scenario(3, 0.2, make_distribution("zipf:1.0", 3))
        assert np.allclose(s.p, np.tile([6 / 11, 3 / 11, 2 / 11], (3, 1)))

    def test_rows_stochastic(self):
        s = build_worst_case_scenario(6, 0.4, 0.5, [0.5, 0.3, 0.2])
        assert np.allclose(s.p.sum(axis=1), 1.0, atol=1e-12)
