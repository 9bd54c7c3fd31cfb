"""Output checks, run in the worker after the timed operations.

Each check returns ``None`` when the output is right and a one-line
reason otherwise.  The references are the package's own independent
paths: the structured closed forms for typed scenarios, the enumeration
oracles for small ones, the lower bound for every expectation, and the
exact sums for Monte Carlo means at n=300.
"""
from __future__ import annotations

import contextlib
import io
import math

from onion_anon import cli
from onion_anon.asymptotics import lower_bound
from onion_anon.inference import PosteriorQuery, expected_posterior_oracle, posterior_oracle
from onion_anon.structured import (
    CommonPopulation,
    WorstCasePopulation,
    common_expected_exact,
    worst_case_expected_exact,
)

from workloads import two_group_argv

SLACK = 1e-12  # printed values carry 12 significant digits


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _in_bounds(value: float, c: dict) -> str | None:
    floor = lower_bound(c["b"], c["p"])
    if not floor - SLACK <= value <= 1.0 + SLACK:
        return f"expectation {value!r} outside [lower_bound={floor!r}, 1]"
    return None


def _relative(value: float, reference: float, tolerance: float, what: str) -> str | None:
    if abs(value - reference) > tolerance * max(abs(reference), 1e-300):
        return f"{value!r} differs from {what} {reference!r}"
    return None


def _worst(c: dict, n: int) -> WorstCasePopulation:
    return WorstCasePopulation(n=n, alpha=c["alpha"], b=c["b"], p_target=c["p"], p_least=c["p_least"])


def parse_mc(stdout: str) -> dict:
    fields = dict(part.split("=", 1) for part in stdout.split())
    return {"mean": float(fields["mean"]), "std_error": float(fields["std_error"]),
            "samples": int(fields["samples"]), "seed": int(fields["seed"])}


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def check_op(op: dict, result: dict, results: list[dict]) -> str | None:
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()[:200]}"
    c = op["check"]
    kind = c["kind"]
    text = result["stdout"].strip()
    if kind == "probability":
        value = float(text)
        return None if 0.0 <= value <= 1.0 else f"posterior {value!r} outside [0, 1]"
    if kind == "expectation":
        return _in_bounds(float(text), c)
    if kind == "typed_worst":
        value = float(text)
        return _in_bounds(value, c) or _relative(
            value, worst_case_expected_exact(_worst(c, c["n"])), 1e-9, "worst_case_expected_exact")
    if kind == "typed_common":
        value = float(text)
        reference = common_expected_exact(CommonPopulation(n=c["n"], b=c["b"], p=tuple(c["row"]), dest=c["dest"]))
        return _in_bounds(value, c) or _relative(value, reference, 1e-9, "common_expected_exact")
    if kind == "worst_exact":
        # Each op is compared with its own twin: the full sum with the
        # truncated one and the truncated sum with the full one.
        value = float(text)
        twin = worst_case_expected_exact(_worst(c, c["n"]), truncate=not c["truncate"])
        if abs(value - twin) > 1e-10:
            return f"truncated and full sums differ: printed {value!r}, twin {twin!r}"
        return _in_bounds(value, c)
    if kind == "sweep_exact":
        rows = csv_rows(result["csv"])
        if len(rows) != 4:
            return f"sweep wrote {len(rows)} rows, expected 4"
        for row in rows:
            problem = _in_bounds(float(row[1]), c)
            if problem:
                return f"n={row[0]}: {problem}"
        n, expected = rows[c["row"]][:2]
        argv = ["worst-case"] + two_group_argv(n, c["alpha"], c["b"], c["p"], c["p_least"])
        code, single = run_cli([str(a) for a in argv])
        if code != 0 or single.strip() != expected:
            return f"sweep row n={n} reads {expected}, single worst-case call printed {single.strip()!r}"
        return None
    if kind == "sweep_mc":
        floor = lower_bound(c["b"], c["p"]) - 2.5 / math.sqrt(c["samples"])
        for row in csv_rows(result["csv"]):
            if not floor <= float(row[1]) <= 1.0 + SLACK:
                return f"n={row[0]}: estimate {row[1]} outside [{floor!r}, 1]"
        return None
    if kind == "mc":
        return _check_mc(op, result, results)
    raise ValueError(f"unknown check {kind!r}")


def _check_mc(op: dict, result: dict, results: list[dict]) -> str | None:
    c = op["check"]
    est = parse_mc(result["stdout"])
    argv = op["argv"]
    if est["samples"] != c["samples"] or est["seed"] != int(argv[argv.index("--seed") + 1]):
        return f"estimate reports samples={est['samples']} seed={est['seed']}"
    if result["csv"].splitlines()[1:] != [",".join(result["stdout"].split()[i].split("=")[1] for i in range(4))]:
        return "CSV does not repeat the printed estimate"
    if not -SLACK <= est["mean"] <= 1.0 + SLACK:
        return f"mean {est['mean']!r} outside [0, 1]"
    if c.get("n") == 300:
        if c["mode"] == "worst-case":
            exact = worst_case_expected_exact(_worst(c, 300), truncate=True)
        else:
            exact = common_expected_exact(CommonPopulation(n=300, b=c["b"], p=tuple(c["row"]), dest=c["dest"]))
        if abs(est["mean"] - exact) > 5.0 * est["std_error"] + SLACK:
            return f"mean {est['mean']!r} is more than 5 standard errors from the exact sum {exact!r}"
    elif "--stratify" in argv:
        plain = parse_mc(results[c["pair"]]["stdout"])
        allowed = 5.0 * math.hypot(plain["std_error"], est["std_error"]) + SLACK
        if abs(plain["mean"] - est["mean"]) > allowed:
            return f"plain {plain['mean']!r} and stratified {est['mean']!r} disagree beyond {allowed!r}"
    return None


def check_oracle_case(argv: list[str]) -> str | None:
    """Compare one small CLI call with the enumeration oracle."""
    code, text = run_cli(argv)
    if code != 0:
        return f"exit code {code}"
    value = float(text)
    options = dict(zip(argv[1::2], argv[2::2]))
    scenario, users, dests = cli.load_scenario(options["--scenario"])
    query = PosteriorQuery(user=int(options["--user"]), dest=int(options["--dest"]))
    if argv[0] == "exact":
        return _relative(value, expected_posterior_oracle(scenario, query), 1e-9, "expected_posterior_oracle")
    observation = cli.load_observation(options["--observation"], scenario, users, dests)
    reference = posterior_oracle(scenario, observation, query)
    if abs(value - reference) > 1e-9:
        return f"{value!r} differs from posterior_oracle {reference!r}"
    return None
