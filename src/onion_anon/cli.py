"""Batch front end: scenario files, exact and sampled runs, CSV sweeps.

The parser is built once per process from three tables.  ``_OPTIONS``
declares each option's argparse keywords once, ``_COMMANDS`` gives each
sub-command its ``--mode``/``--method`` choices and optional options, and
``_NEEDS`` lists the options a command needs for its choices.  ``_NEEDS``
is the only presence rule: a command missing options exits 2 with one
error naming every missing one, and so does a command given options
that only another of its choices reads.

``worst-case``, ``common``, ``mc --mode worst-case|common`` and each
``sweep`` point build their population through one builder, which reads
one field table per mode.  A sweep row is the single command's value at
that point: what ``worst-case``/``common`` print, or with ``--method mc``
the mean that ``mc --seed mix64(seed, i)`` prints for row i.

Exit codes: 0 success, 2 parse/usage errors, 3 model errors (bad
scenario data, conditioning on a never-visited destination, size
limits), 4 I/O errors.  Randomized commands require an explicit
``--seed``; there is no ambient entropy anywhere, so repeating an
invocation reproduces its output byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction

from .asymptotics import lower_bound, worst_case_limit
from .distributions import make_distribution
from .errors import ModelError, ParseError, ScenarioError
from .inference import (
    PosteriorQuery,
    expected_posterior_formula,
    expected_posterior_oracle,
    posterior,
    posterior_oracle,
)
from .model import DestMultiset, Observation, Scenario, check_observation, validate_scenario
from .montecarlo import estimate_expected_posterior
from .seeding import mix64
from .structured import CommonPopulation, WorstCasePopulation, worst_case_expected_exact, common_expected_exact


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# File formats


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _list_field(doc: dict, field: str, kind: str) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list):
        raise ParseError(f"{kind} field {field!r} must be a list")
    return value


def load_scenario(path: str) -> tuple[Scenario, list[str], list[str]]:
    """Read a scenario file; returns (scenario, user names, destination names)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ParseError("scenario file must hold a JSON object")
    for field in ("b", "destinations", "users"):
        if field not in doc:
            raise ParseError(f"scenario file is missing the {field!r} field")
    if not _is_number(doc["b"]):
        raise ParseError("scenario field 'b' must be a number")
    dest_names = [str(name) for name in _list_field(doc, "destinations", "scenario")]
    if len(set(dest_names)) != len(dest_names):
        raise ParseError("destination names must be unique")
    user_names: list[str] = []
    rows = []
    for i, entry in enumerate(_list_field(doc, "users", "scenario")):
        if not isinstance(entry, dict) or "name" not in entry or "dist" not in entry:
            raise ParseError(f"user entry {i} needs 'name' and 'dist' fields")
        user_names.append(str(entry["name"]))
        dist = entry["dist"]
        if isinstance(dist, str):
            try:
                rows.append(make_distribution(dist, len(dest_names)))
            except ParseError as err:
                raise ParseError(f"user {user_names[-1]!r}: {err}") from None
        elif not isinstance(dist, list) or not all(_is_number(x) for x in dist):
            raise ParseError(
                f"user {user_names[-1]!r}: 'dist' must be a distribution string or a list of numbers"
            )
        else:
            row = [float(x) for x in dist]
            if len(row) != len(dest_names):
                raise ParseError(
                    f"user {user_names[-1]!r}: distribution has {len(row)} entries, "
                    f"expected {len(dest_names)}"
                )
            rows.append(row)
    if len(set(user_names)) != len(user_names):
        raise ParseError("user names must be unique")
    try:
        scenario = validate_scenario(rows, doc["b"])
    except ScenarioError as err:
        if err.row is not None:
            raise ScenarioError(f"user {user_names[err.row]!r}: {err}", row=err.row) from None
        raise
    return scenario, user_names, dest_names


def write_scenario(path: str, scenario: Scenario, user_names=None, dest_names=None) -> None:
    user_names = user_names or [f"u{i}" for i in range(scenario.n)]
    dest_names = dest_names or [f"d{i}" for i in range(scenario.dest_count)]
    doc = {
        "b": scenario.b,
        "destinations": list(dest_names),
        "users": [
            {"name": user_names[i], "dist": [float(x) for x in scenario.p[i]]}
            for i in range(scenario.n)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _resolve(label: str, value, names: list[str]) -> int:
    """Map a name or numeric string onto a dense index."""
    text = str(value)
    if text in names:
        return names.index(text)
    try:
        index = int(text)
    except ValueError:
        raise ParseError(f"unknown {label} {text!r}") from None
    if not 0 <= index < len(names):
        raise ParseError(f"{label} index {index} out of range")
    return index


def load_observation(path: str, scenario: Scenario, user_names, dest_names) -> Observation:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ParseError("observation file must hold a JSON object")
    linked = []
    for pair in _list_field(doc, "linked", "observation"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError("linked entries must be [user, destination] pairs")
        linked.append((_resolve("user", pair[0], user_names), _resolve("destination", pair[1], dest_names)))
    input_only = tuple(_resolve("user", u, user_names) for u in _list_field(doc, "input_only", "observation"))
    outputs = [_resolve("destination", d, dest_names) for d in _list_field(doc, "output_only", "observation")]
    hidden = doc.get("hidden_count", 0)
    if isinstance(hidden, bool) or not isinstance(hidden, int) or hidden < 0:
        raise ParseError("hidden_count must be a non-negative integer")
    observation = Observation(
        linked=tuple(linked),
        input_only=input_only,
        output_only=DestMultiset.from_items(outputs, scenario.dest_count),
        hidden_count=hidden,
    )
    check_observation(scenario, observation)
    return observation


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _parse_range(text: str, integer: bool) -> list:
    """Parse ``lo:hi:step`` (inclusive of hi) or a single value.

    Point i is ``lo + i * step`` taken exactly, then read as its decimal would be.
    """
    parts = text.split(":")
    number = int if integer else Fraction
    try:
        if len(parts) == 1:
            return [int(parts[0]) if integer else float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi, step = (number(x) for x in parts)
        if step <= 0 or hi < lo:
            raise ValueError
        points = [lo + i * step for i in range((hi - lo) // step + 1)]
        return points if integer else [float(x) for x in points]
    except ValueError:
        raise ParseError(f"bad range {text!r}; expected lo:hi:step") from None


# ---------------------------------------------------------------------------
# Commands


def _cmd_validate(args) -> int:
    scenario, user_names, dest_names = load_scenario(args.scenario)
    if args.out:
        write_scenario(args.out, scenario, user_names, dest_names)
    print(f"ok: {scenario.n} users, {scenario.dest_count} destinations")
    return 0


def _query_from_args(args, user_names, dest_names) -> PosteriorQuery:
    return PosteriorQuery(
        user=_resolve("user", args.user, user_names),
        dest=_resolve("destination", args.dest, dest_names),
    )


def _cmd_exact(args) -> int:
    scenario, user_names, dest_names = load_scenario(args.scenario)
    query = _query_from_args(args, user_names, dest_names)
    if args.method == "formula":
        value = expected_posterior_formula(scenario, query)
    else:
        value = float(expected_posterior_oracle(scenario, query))
    print(_fmt(value))
    return 0


def _cmd_posterior(args) -> int:
    scenario, user_names, dest_names = load_scenario(args.scenario)
    query = _query_from_args(args, user_names, dest_names)
    observation = load_observation(args.observation, scenario, user_names, dest_names)
    if args.method == "formula":
        value = posterior(scenario, observation, query)
    else:
        value = float(posterior_oracle(scenario, observation, query))
    print(_fmt(value))
    return 0


# The fields each population mode reads.
_FIELDS = {
    "generic": ("scenario", "user", "dest"),
    "worst-case": ("n", "alpha", "b", "p_target", "p_least"),
    "common": ("n", "b", "dist", "dests", "dest"),
}


def _population(args, mode: str, **point):
    """The structured population of ``worst-case``, ``common``, ``mc`` and each sweep point."""
    fields = {name: point.get(name, getattr(args, name)) for name in _FIELDS[mode]}
    if mode == "worst-case":
        return WorstCasePopulation(**fields)
    try:
        dest = int(fields["dest"])
    except ValueError:
        raise ParseError(f"--dest must be a destination index, got {fields['dest']!r}") from None
    row = make_distribution(fields["dist"], fields["dests"])
    return CommonPopulation(n=fields["n"], b=fields["b"], p=tuple(float(x) for x in row), dest=dest)


def _exact(args, pop) -> float:
    if isinstance(pop, WorstCasePopulation):
        return worst_case_expected_exact(pop, truncate=args.truncate)
    return common_expected_exact(pop)


def _estimate(args, subject, query, seed):
    return estimate_expected_posterior(
        subject, query, args.samples, seed,
        mode=args.mode.replace("-", "_"), stratify=getattr(args, "stratify", False),
    )


def _reference(pop) -> float:
    """The value a sweep converges to: the two-group limit, or the common lower bound."""
    if isinstance(pop, WorstCasePopulation):
        return worst_case_limit(pop.b, pop.p_target, pop.p_least, pop.alpha).value
    return lower_bound(pop.b, pop.p[pop.dest])


def _cmd_mc(args) -> int:
    if args.mode == "generic":
        scenario, user_names, dest_names = load_scenario(args.scenario)
        estimate = _estimate(args, scenario, _query_from_args(args, user_names, dest_names), args.seed)
    else:
        estimate = _estimate(args, _population(args, args.mode), None, args.seed)
    header = ["mean", "std_error", "samples", "seed"]
    row = [_fmt(estimate.mean), _fmt(estimate.std_error), str(estimate.samples), str(estimate.seed)]
    print(" ".join(f"{name}={value}" for name, value in zip(header, row)))
    if args.out:
        _write_csv(args.out, header, [row])
    return 0


def _cmd_worst_case(args) -> int:
    if args.method == "limit":
        value = worst_case_limit(args.b, args.p_target, args.p_least, args.alpha).value
    else:
        value = _exact(args, _population(args, "worst-case"))
    print(_fmt(value))
    return 0


def _cmd_common(args) -> int:
    pop = _population(args, "common")
    print(_fmt(_reference(pop) if args.method == "bound" else _exact(args, pop)))
    return 0


def _cmd_sweep(args) -> int:
    """One row per point of the ``--n`` or ``--alpha`` range, each the single command's value."""
    ranges = {"n": _parse_range(args.n, integer=True)}
    if args.mode == "worst-case":
        ranges["alpha"] = _parse_range(args.alpha, integer=False)
    varying = [name for name, values in ranges.items() if len(values) > 1]
    if len(varying) > 1:
        raise ParseError("sweep varies either --n or --alpha, not both")
    lead = varying[0] if varying else "n"
    point = {name: values[0] for name, values in ranges.items()}
    rows = []
    for i, value in enumerate(ranges[lead]):
        pop = _population(args, args.mode, **{**point, lead: value})
        if args.method == "mc":
            psi = _estimate(args, pop, None, mix64(args.seed, i)).mean
        else:
            psi = _exact(args, pop)
        ref = _reference(pop)
        label = _fmt(value) if lead == "alpha" else str(value)
        rows.append([label, _fmt(psi), _fmt(ref), _fmt(abs(psi - ref))])
    reference = "limit_psi" if args.mode == "worst-case" else "lower_bound"
    _write_csv(args.out, [lead, "expected_psi", reference, "abs_error"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser


# Every option's argparse keywords, declared once; its flag is ``--`` and its name with ``-`` for ``_``.
_OPTIONS = {
    **dict.fromkeys(("scenario", "observation", "user", "dest", "dist"), {}),
    **dict.fromkeys(("n", "dests", "samples", "seed"), {"type": int}),
    **dict.fromkeys(("alpha", "b", "p_target", "p_least"), {"type": float}),
    "threads": {"type": int, "default": 1},
    "stratify": {"action": "store_true"},
    "truncate": {"action": "store_true"},
    "out": {"help": "write the result to this file"},
}

# What each command needs, keyed by the command and its --mode/--method choices,
# in the order a missing-option error names them.  This is the only presence
# rule: argparse requires nothing but the command and sweep's --mode.
_NEEDS = {
    ("exact", "formula"): _FIELDS["generic"],
    ("exact", "oracle"): _FIELDS["generic"],
    ("posterior", "formula"): ("scenario", "observation", "user", "dest"),
    ("posterior", "oracle"): ("scenario", "observation", "user", "dest"),
    ("mc", "generic"): _FIELDS["generic"] + ("samples", "seed"),
    ("mc", "worst-case"): _FIELDS["worst-case"] + ("samples", "seed"),
    ("mc", "common"): _FIELDS["common"] + ("samples", "seed"),
    ("worst-case", "exact"): _FIELDS["worst-case"],
    ("worst-case", "limit"): ("alpha", "b", "p_target", "p_least"),
    ("common", "exact"): _FIELDS["common"],
    ("common", "bound"): _FIELDS["common"],
    ("sweep", "common", "exact"): _FIELDS["common"] + ("out",),
    ("sweep", "common", "mc"): _FIELDS["common"] + ("seed", "out"),
    ("sweep", "worst-case", "exact"): _FIELDS["worst-case"] + ("out",),
    ("sweep", "worst-case", "mc"): _FIELDS["worst-case"] + ("seed", "out"),
}

# command: (function, help, --mode/--method choices with the default first, options
# it takes besides those it needs).
_COMMANDS = {
    "validate": (_cmd_validate, "check a scenario file", {}, ("out",)),
    "exact": (_cmd_exact, "exact expected posterior for a query", {"method": ("formula", "oracle")}, ()),
    "posterior": (_cmd_posterior, "posterior for a recorded observation", {"method": ("formula", "oracle")}, ()),
    "mc": (_cmd_mc, "Monte Carlo estimate of the expected posterior",
           {"mode": ("generic", "worst-case", "common")}, ("threads", "stratify", "out")),
    "worst-case": (_cmd_worst_case, "two-group population expectation or limit",
                   {"method": ("exact", "limit")}, ("truncate",)),
    "common": (_cmd_common, "common-distribution population expectation", {"method": ("exact", "bound")}, ()),
    "sweep": (_cmd_sweep, "parameter sweep written as CSV",
              {"mode": ("common", "worst-case"), "method": ("exact", "mc")}, ("samples", "threads", "truncate")),
}

# sweep's own keywords: --n and --alpha are range text for _parse_range.
_SWEEP = {"mode": {"required": True}, "n": {"type": str}, "alpha": {"type": str, "default": "0"},
          "samples": {"default": 10000}}


def _keywords(command: str, option: str) -> dict:
    """The argparse keywords of one of the command's options."""
    return {**_OPTIONS.get(option, {}), **(_SWEEP if command == "sweep" else {}).get(option, {})}


def _needed(command: str) -> dict:
    """Every option some ``_NEEDS`` row of the command needs, in row order."""
    return dict.fromkeys(itertools.chain(*(fields for row, fields in _NEEDS.items() if row[0] == command)))


def _fields(args) -> None:
    """Raise one ParseError naming every option that the command's ``_NEEDS`` row lacks.

    An option that another row of the command needs and this row does
    not is unread here; giving it (a value other than its default) is an
    error naming every such option.
    """
    choices = [(name, getattr(args, name)) for name in _COMMANDS[args.command][2]]
    needs = _NEEDS.get((args.command, *(value for _, value in choices)), ())
    command = " ".join([args.command, *(f"--{name} {value}" for name, value in choices)])
    missing = [name for name in needs if getattr(args, name) is None]
    if missing:
        raise ParseError(f"{command} is missing: {', '.join(missing)}")
    unread = [
        name for name in _needed(args.command)
        if name not in needs and getattr(args, name) != _keywords(args.command, name).get("default")
    ]
    if unread:
        raise ParseError(f"{command} does not read: {', '.join(unread)}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built from the tables above once per process; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="onion-anon",
        description="Relationship-anonymity calculator for the black-box onion-routing model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, choices, optional) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name == "validate":
            p.add_argument("scenario")
        for option, values in choices.items():
            p.add_argument(f"--{option}", choices=values, default=values[0], **_keywords(name, option))
        for option in dict.fromkeys([*_needed(name), *optional]):
            p.add_argument("--" + option.replace("_", "-"), dest=option, **_keywords(name, option))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse has printed its usage error (exit 2) or --help (exit 0).
        return err.code
    try:
        _fields(args)
        if getattr(args, "threads", 1) < 1:
            raise ParseError("--threads must be at least 1")
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON: {err}", file=sys.stderr)
        return 2
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
