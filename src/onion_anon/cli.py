"""Batch front end: scenario files, exact and sampled runs, CSV sweeps.

``worst-case``, ``common``, ``mc --mode worst-case|common`` and each
``sweep`` point build their population through one builder, which reads
one field table per mode; a missing field exits 2 with an error naming
every missing field.  A sweep row is the single command's value at that
point: what ``worst-case``/``common`` print, or with ``--method mc`` the
mean that ``mc --seed mix64(seed, i)`` prints for row i.

Exit codes: 0 success, 2 parse/usage errors, 3 model errors (bad
scenario data, conditioning on a never-visited destination, size
limits), 4 I/O errors.  Randomized commands require an explicit
``--seed``; there is no ambient entropy anywhere, so repeating an
invocation reproduces its output byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .asymptotics import lower_bound, worst_case_limit
from .distributions import DistributionSpec, make_distribution
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
            rows.append(make_distribution(DistributionSpec.parse(dist, len(dest_names))))
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


# The fields each mode reads, in the order a missing-field error names them.
_FIELDS = {
    "generic": ("scenario", "user", "dest"),
    "worst-case": ("n", "alpha", "b", "p_target", "p_least"),
    "common": ("n", "b", "dist", "dests", "dest"),
}


def _fields(args, mode: str, **point) -> dict:
    """The mode's fields from ``args``, ``point`` taking precedence; names every missing one."""
    values = {name: point.get(name, getattr(args, name)) for name in _FIELDS[mode]}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        command = args.command if args.command == mode else f"{args.command} --mode {mode}"
        raise ParseError(f"{command} is missing: {', '.join(missing)}")
    return values


def _population(args, mode: str, **point):
    """The structured population of ``worst-case``, ``common``, ``mc`` and each sweep point."""
    fields = _fields(args, mode, **point)
    if mode == "worst-case":
        return WorstCasePopulation(**fields)
    try:
        dest = int(fields["dest"])
    except ValueError:
        raise ParseError(f"--dest must be a destination index, got {fields['dest']!r}") from None
    row = make_distribution(DistributionSpec.parse(fields["dist"], fields["dests"]))
    return CommonPopulation(n=fields["n"], b=fields["b"], p=tuple(float(x) for x in row), dest=dest)


def _exact(args, pop) -> float:
    if isinstance(pop, WorstCasePopulation):
        return worst_case_expected_exact(pop, truncate=args.truncate)
    return common_expected_exact(pop)


def _estimate(args, subject, query, seed):
    return estimate_expected_posterior(
        subject, query, args.samples, seed,
        mode=args.mode.replace("-", "_"), threads=args.threads, stratify=getattr(args, "stratify", False),
    )


def _reference(pop) -> float:
    """The value a sweep converges to: the two-group limit, or the common lower bound."""
    if isinstance(pop, WorstCasePopulation):
        return worst_case_limit(pop.b, pop.p_target, pop.p_least, pop.alpha).value
    return lower_bound(pop.b, pop.p[pop.dest])


def _cmd_mc(args) -> int:
    if args.mode == "generic":
        _fields(args, "generic")
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
    _fields(args, args.mode)
    if args.method == "mc" and args.seed is None:
        raise ParseError("--method mc requires --seed")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onion-anon",
        description="Relationship-anonymity calculator for the black-box onion-routing model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.add_argument("--out", help="write the normalized scenario here")
    p_validate.set_defaults(func=_cmd_validate)

    p_exact = sub.add_parser("exact", help="exact expected posterior for a query")
    p_exact.add_argument("--scenario", required=True)
    p_exact.add_argument("--user", required=True)
    p_exact.add_argument("--dest", required=True)
    p_exact.add_argument("--method", choices=["formula", "oracle"], default="formula")
    p_exact.set_defaults(func=_cmd_exact)

    p_post = sub.add_parser("posterior", help="posterior for a recorded observation")
    p_post.add_argument("--scenario", required=True)
    p_post.add_argument("--observation", required=True)
    p_post.add_argument("--user", required=True)
    p_post.add_argument("--dest", required=True)
    p_post.add_argument("--method", choices=["formula", "oracle"], default="formula")
    p_post.set_defaults(func=_cmd_posterior)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate of the expected posterior")
    p_mc.add_argument("--mode", choices=["generic", "worst-case", "common"], default="generic")
    p_mc.add_argument("--scenario")
    p_mc.add_argument("--user")
    p_mc.add_argument("--dest")
    p_mc.add_argument("--n", type=int)
    p_mc.add_argument("--alpha", type=float)
    p_mc.add_argument("--b", type=float)
    p_mc.add_argument("--p-target", type=float, dest="p_target")
    p_mc.add_argument("--p-least", type=float, dest="p_least")
    p_mc.add_argument("--dist")
    p_mc.add_argument("--dests", type=int)
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--threads", type=int, default=1)
    p_mc.add_argument("--stratify", action="store_true")
    p_mc.add_argument("--out", help="also write the estimate as CSV")
    p_mc.set_defaults(func=_cmd_mc)

    p_worst = sub.add_parser("worst-case", help="two-group population expectation or limit")
    p_worst.add_argument("--n", type=int)
    p_worst.add_argument("--alpha", type=float, required=True)
    p_worst.add_argument("--b", type=float, required=True)
    p_worst.add_argument("--p-target", type=float, dest="p_target", required=True)
    p_worst.add_argument("--p-least", type=float, dest="p_least", required=True)
    p_worst.add_argument("--method", choices=["exact", "limit"], default="exact")
    p_worst.add_argument("--truncate", action="store_true")
    p_worst.set_defaults(func=_cmd_worst_case)

    p_common = sub.add_parser("common", help="common-distribution population expectation")
    p_common.add_argument("--n", type=int, required=True)
    p_common.add_argument("--b", type=float, required=True)
    p_common.add_argument("--dist", required=True)
    p_common.add_argument("--dests", type=int, required=True)
    p_common.add_argument("--dest", required=True)
    p_common.add_argument("--method", choices=["exact", "bound"], default="exact")
    p_common.set_defaults(func=_cmd_common)

    p_sweep = sub.add_parser("sweep", help="parameter sweep written as CSV")
    p_sweep.add_argument("--mode", choices=["common", "worst-case"], required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--method", choices=["exact", "mc"], default="exact")
    p_sweep.add_argument("--n")
    p_sweep.add_argument("--alpha", default="0")
    p_sweep.add_argument("--b", type=float, required=True)
    p_sweep.add_argument("--p-target", type=float, dest="p_target")
    p_sweep.add_argument("--p-least", type=float, dest="p_least")
    p_sweep.add_argument("--dist")
    p_sweep.add_argument("--dests", type=int)
    p_sweep.add_argument("--dest")
    p_sweep.add_argument("--samples", type=int, default=10000)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--truncate", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
