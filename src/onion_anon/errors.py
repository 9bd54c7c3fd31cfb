"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError subclasses exit with 2,
ModelError subclasses with 3, and I/O failures (plain OSError) with 4.
"""


class ModelError(Exception):
    """A domain rule was violated (bad scenario, bad query, limit hit)."""


class ParseError(Exception):
    """Malformed input text (distribution spec, file field, env var)."""


class ScenarioError(ModelError):
    """Scenario data rejected during validation; the message names the row to blame, if any."""


class ObservationError(ModelError):
    """An observation is structurally inconsistent with its scenario."""


class QueryError(ModelError):
    """A (user, destination) query is out of range for the scenario."""


class ConditioningError(ModelError):
    """The query conditions on a destination the user never visits."""


class ImpossibleObservationError(ModelError):
    """The supplied observation has zero probability under the scenario."""


class SizeLimitError(ModelError):
    """The request exceeds the configured exact-computation size limits."""


class DegenerateCellError(ModelError):
    """A closed-form posterior cell has an identically zero denominator."""
