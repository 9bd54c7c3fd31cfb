"""Relationship-anonymity calculator for the black-box onion-routing model.

Computes, bounds, and empirically estimates the adversary's posterior
probability that a given user communicated with a given destination,
for a population of users whose circuit endpoints are each observed
independently with the compromised fraction of the network.
"""

from .asymptotics import (
    LimitResult,
    lower_bound,
    worst_alpha,
    worst_case_headline,
    worst_case_limit,
)
from .distributions import (
    build_common_scenario,
    build_worst_case_scenario,
    least_alternative_destination,
    make_distribution,
)
from .errors import (
    ConditioningError,
    DegenerateCellError,
    ImpossibleObservationError,
    ModelError,
    ObservationError,
    ParseError,
    QueryError,
    ScenarioError,
    SizeLimitError,
)
from .inference import (
    PosteriorQuery,
    UnobservedView,
    ViewSplit,
    duplicate_orderings,
    expected_posterior_formula,
    expected_posterior_oracle,
    injection_sum,
    posterior,
    posterior_oracle,
    view_probability_split,
)
from .limits import SizeLimits, current_limits
from .model import (
    Configuration,
    DestMultiset,
    Observation,
    Scenario,
    check_observation,
    configuration_prior,
    indistinguishable,
    iter_configurations,
    observe,
    sample_configuration,
    validate_scenario,
)
from .montecarlo import Estimate, estimate_expected_posterior
from .seeding import mix64
from .structured import (
    CommonPopulation,
    WorstCasePopulation,
    binomial_weights,
    common_expected_exact,
    shared_distribution_posterior,
    two_group_posterior,
    worst_case_expected_exact,
)

__version__ = "0.1.0"

__all__ = [
    "CommonPopulation",
    "ConditioningError",
    "Configuration",
    "DegenerateCellError",
    "DestMultiset",
    "Estimate",
    "ImpossibleObservationError",
    "LimitResult",
    "ModelError",
    "Observation",
    "ObservationError",
    "ParseError",
    "PosteriorQuery",
    "QueryError",
    "Scenario",
    "ScenarioError",
    "SizeLimits",
    "SizeLimitError",
    "UnobservedView",
    "ViewSplit",
    "WorstCasePopulation",
    "binomial_weights",
    "build_common_scenario",
    "build_worst_case_scenario",
    "check_observation",
    "common_expected_exact",
    "configuration_prior",
    "current_limits",
    "duplicate_orderings",
    "estimate_expected_posterior",
    "expected_posterior_formula",
    "expected_posterior_oracle",
    "indistinguishable",
    "injection_sum",
    "iter_configurations",
    "least_alternative_destination",
    "lower_bound",
    "make_distribution",
    "mix64",
    "observe",
    "posterior",
    "posterior_oracle",
    "sample_configuration",
    "shared_distribution_posterior",
    "two_group_posterior",
    "validate_scenario",
    "view_probability_split",
    "worst_alpha",
    "worst_case_expected_exact",
    "worst_case_headline",
    "worst_case_limit",
]
