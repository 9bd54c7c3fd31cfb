"""Batch front end: scenario files, exact and sampled runs, CSV sweeps.

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


def load_scenario(path: str) -> tuple[Scenario, list[str], list[str]]:
    """Read a scenario file; returns (scenario, user names, destination names)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ParseError("scenario file must hold a JSON object")
    for field in ("b", "destinations", "users"):
        if field not in doc:
            raise ParseError(f"scenario file is missing the {field!r} field")
    dest_names = [str(name) for name in doc["destinations"]]
    if len(set(dest_names)) != len(dest_names):
        raise ParseError("destination names must be unique")
    user_names: list[str] = []
    rows = []
    for i, entry in enumerate(doc["users"]):
        if not isinstance(entry, dict) or "name" not in entry or "dist" not in entry:
            raise ParseError(f"user entry {i} needs 'name' and 'dist' fields")
        user_names.append(str(entry["name"]))
        dist = entry["dist"]
        if isinstance(dist, str):
            rows.append(make_distribution(DistributionSpec.parse(dist, len(dest_names))))
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
    for pair in doc.get("linked", []):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError("linked entries must be [user, destination] pairs")
        linked.append((_resolve("user", pair[0], user_names), _resolve("destination", pair[1], dest_names)))
    input_only = tuple(_resolve("user", u, user_names) for u in doc.get("input_only", []))
    outputs = [_resolve("destination", d, dest_names) for d in doc.get("output_only", [])]
    hidden = doc.get("hidden_count", 0)
    if not isinstance(hidden, int) or hidden < 0:
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
    """Parse ``lo:hi:step`` (inclusive of hi) or a single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0]) if integer else float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        if integer:
            lo, hi, step = (int(x) for x in parts)
            if step <= 0 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1, step))
        lo, hi, step = (float(x) for x in parts)
        if step <= 0 or hi < lo:
            raise ValueError
        count = int((hi - lo) / step + 1e-9) + 1
        return [lo + i * step for i in range(count)]
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


def _population_from_args(args):
    if args.mode == "worst-case":
        return WorstCasePopulation(
            n=args.n, alpha=args.alpha, b=args.b, p_target=args.p_target, p_least=args.p_least
        )
    try:
        dest = int(args.dest)
    except (TypeError, ValueError):
        raise ParseError(f"--dest must be a destination index, got {args.dest!r}") from None
    return _common_population(args, args.n, dest)


def _common_population(args, n: int, dest: int) -> CommonPopulation:
    row = make_distribution(DistributionSpec.parse(args.dist, args.dests))
    return CommonPopulation(n=n, b=args.b, p=tuple(float(x) for x in row), dest=dest)


def _cmd_mc(args) -> int:
    if args.mode == "generic":
        scenario, user_names, dest_names = load_scenario(args.scenario)
        query = _query_from_args(args, user_names, dest_names)
        estimate = estimate_expected_posterior(
            scenario, query, args.samples, args.seed,
            mode="generic", threads=args.threads, stratify=args.stratify,
        )
    else:
        population = _population_from_args(args)
        estimate = estimate_expected_posterior(
            population, None, args.samples, args.seed,
            mode=args.mode.replace("-", "_"), threads=args.threads, stratify=args.stratify,
        )
    print(
        f"mean={_fmt(estimate.mean)} std_error={_fmt(estimate.std_error)} "
        f"samples={estimate.samples} seed={estimate.seed}"
    )
    if args.out:
        _write_csv(
            args.out,
            ["mean", "std_error", "samples", "seed"],
            [[_fmt(estimate.mean), _fmt(estimate.std_error), str(estimate.samples), str(estimate.seed)]],
        )
    return 0


def _cmd_worst_case(args) -> int:
    if args.method == "limit":
        value = worst_case_limit(args.b, args.p_target, args.p_least, args.alpha).value
    else:
        pop = WorstCasePopulation(
            n=args.n, alpha=args.alpha, b=args.b, p_target=args.p_target, p_least=args.p_least
        )
        value = worst_case_expected_exact(pop, truncate=args.truncate)
    print(_fmt(value))
    return 0


def _cmd_common(args) -> int:
    pop = _common_population(args, args.n, args.dest)
    if args.method == "bound":
        value = lower_bound(pop.b, pop.p[pop.dest])
    else:
        value = common_expected_exact(pop)
    print(_fmt(value))
    return 0


def _sweep_common(args) -> int:
    pops = [_common_population(args, int(n), args.dest) for n in _parse_range(args.n, integer=True)]
    bound = lower_bound(args.b, pops[0].p[args.dest])
    rows = []
    for i, pop in enumerate(pops):
        if args.method == "mc":
            value = estimate_expected_posterior(
                pop, None, args.samples, mix64(args.seed, i),
                mode="common", threads=args.threads,
            ).mean
        else:
            value = common_expected_exact(pop)
        rows.append([str(pop.n), _fmt(value), _fmt(bound), _fmt(abs(value - bound))])
    _write_csv(args.out, ["n", "expected_psi", "lower_bound", "abs_error"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _sweep_worst_case(args) -> int:
    n_values = _parse_range(args.n, integer=True)
    alpha_values = _parse_range(args.alpha, integer=False)
    if len(n_values) > 1 and len(alpha_values) > 1:
        raise ParseError("sweep varies either --n or --alpha, not both")
    varying = "alpha" if len(alpha_values) > 1 else "n"
    rows = []
    grid = alpha_values if varying == "alpha" else n_values
    for i, value in enumerate(grid):
        alpha = float(value) if varying == "alpha" else float(alpha_values[0])
        n = int(n_values[0]) if varying == "alpha" else int(value)
        limit = worst_case_limit(args.b, args.p_target, args.p_least, alpha).value
        pop = WorstCasePopulation(
            n=n, alpha=alpha, b=args.b, p_target=args.p_target, p_least=args.p_least
        )
        if args.method == "mc":
            exact = estimate_expected_posterior(
                pop, None, args.samples, mix64(args.seed, i),
                mode="worst_case", threads=args.threads,
            ).mean
        else:
            exact = worst_case_expected_exact(pop, truncate=args.truncate)
        lead = _fmt(alpha) if varying == "alpha" else str(n)
        rows.append([lead, _fmt(exact), _fmt(limit), _fmt(abs(exact - limit))])
    _write_csv(args.out, [varying, "expected_psi", "limit_psi", "abs_error"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_sweep(args) -> int:
    if args.method == "mc" and args.seed is None:
        raise ParseError("--method mc requires --seed")
    if args.mode == "common":
        return _sweep_common(args)
    return _sweep_worst_case(args)


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
    p_common.add_argument("--dest", type=int, required=True)
    p_common.add_argument("--method", choices=["exact", "bound"], default="exact")
    p_common.set_defaults(func=_cmd_common)

    p_sweep = sub.add_parser("sweep", help="parameter sweep written as CSV")
    p_sweep.add_argument("--mode", choices=["common", "worst-case"], required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--method", choices=["exact", "mc"], default="exact")
    p_sweep.add_argument("--n", default="0")
    p_sweep.add_argument("--alpha", default="0")
    p_sweep.add_argument("--b", type=float, required=True)
    p_sweep.add_argument("--p-target", type=float, dest="p_target")
    p_sweep.add_argument("--p-least", type=float, dest="p_least")
    p_sweep.add_argument("--dist")
    p_sweep.add_argument("--dests", type=int)
    p_sweep.add_argument("--dest", type=int)
    p_sweep.add_argument("--samples", type=int, default=10000)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--truncate", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _validate_mode_args(args) -> None:
    if getattr(args, "threads", 1) < 1:
        raise ParseError("--threads must be at least 1")
    if getattr(args, "command", None) == "worst-case" and args.method == "exact" and args.n is None:
        raise ParseError("worst-case --method exact is missing: n")
    if getattr(args, "command", None) == "mc":
        if args.mode == "generic":
            missing = [k for k in ("scenario", "user", "dest") if getattr(args, k) is None]
        elif args.mode == "worst-case":
            missing = [
                k for k in ("n", "alpha", "b", "p_target", "p_least") if getattr(args, k) is None
            ]
        else:
            missing = [k for k in ("n", "b", "dist", "dests", "dest") if getattr(args, k) is None]
        if missing:
            raise ParseError(f"mc --mode {args.mode} is missing: {', '.join(missing)}")
    if getattr(args, "command", None) == "sweep":
        if args.mode == "common":
            missing = [k for k in ("dist", "dests", "dest") if getattr(args, k) is None]
        else:
            missing = [k for k in ("p_target", "p_least") if getattr(args, k) is None]
        if missing:
            raise ParseError(f"sweep --mode {args.mode} is missing: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_mode_args(args)
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
