"""Operation lists for the benchmark workloads.

Every input (scenario rows, recorded views, population parameters and
the ``--seed`` handed to the program) comes from a ``random.Random``
seeded by the workload seed and the round number, so the program's own
sampler never generates a workload and a change to that sampler cannot
change what is measured.

A round is one operation list, run in one fresh interpreter.  Shapes
(population sizes, destination counts, sample counts) are fixed per
operation class so that a round costs about the same whatever the seed;
only values vary.  Each class is sized to take a comparable share of its
round's time.

An operation is a dict:

``cmd``
    command family, used for the per-command latency table;
``cls``
    operation class inside the family;
``group``
    the op class whose share of the round's time is reported, as
    named in the workload's description (plain and stratified, or full
    and truncated, twins share one group);
``argv``
    arguments for ``onion_anon.cli.main``;
``csv``
    file the command writes, digested with its stdout, or ``None``;
``check``
    what the worker verifies about the output, outside the timed region.
"""
from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("exact", "mc-generic", "mc-structured")

# Posterior ops draw recorded views until the crowd-matching work,
# measured as crowd size x product of (bare-output multiplicity + 1),
# falls in this band; the raw view distribution spans 100x in cost, and
# op time is close to proportional to this work, so the band is narrow.
POSTERIOR_WORK = (30_000, 38_000)

# Calls of the cheap closed-form ``common`` command in each exact round.
COMMON_CALLS = 350


class Round:
    """Inputs of one round: the operation list and the files it reads."""

    def __init__(self, workload: str, seed: int, index: int, threads: int):
        self.rng = random.Random(f"{workload}/{seed}/{index}")
        self.threads = threads
        self.ops: list[dict] = []
        self.files: dict[str, str] = {}

    def file(self, stem: str, doc) -> str:
        name = f"{stem}{len(self.files)}.json"
        self.files[name] = json.dumps(doc)
        return name

    def seed(self) -> str:
        return str(self.rng.randrange(1 << 32))

    def add(self, cmd: str, cls: str, group: str, argv: list, check: dict, csv: str | None = None) -> None:
        self.ops.append({"cmd": cmd, "cls": cls, "group": group, "argv": [str(a) for a in argv], "csv": csv,
                         "check": check})

    def spec(self) -> dict:
        return {"ops": self.ops, "files": self.files}


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    draws = [rng.expovariate(1.0) for _ in range(k)]
    total = sum(draws)
    return [x / total for x in draws]


def _zipf(exponent: float, k: int) -> list[float]:
    weights = [r ** -exponent for r in range(1, k + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _least_alternative(row: list[float]) -> int:
    """The queried user's least-liked destination other than 0, ties to the highest index."""
    best = 1
    for d in range(1, len(row)):
        if row[d] <= row[best]:
            best = d
    return best


def _scenario_doc(rows: list[list[float]], b: float) -> dict:
    return {
        "b": b,
        "destinations": [f"d{j}" for j in range(len(rows[0]))],
        "users": [{"name": f"u{i}", "dist": row} for i, row in enumerate(rows)],
    }


def _record_view(rng: random.Random, rows: list[list[float]], b: float, user: int) -> dict:
    """One configuration drawn by the benchmark, reduced to what the adversary sees."""
    view = {"linked": [], "input_only": [], "output_only": [], "hidden_count": 0}
    for v, row in enumerate(rows):
        dest = _pick(rng, row)
        seen_in = rng.random() < b
        seen_out = rng.random() < b
        if seen_in and seen_out:
            view["linked"].append([v, dest])
        elif seen_in:
            view["input_only"].append(v)
        elif seen_out:
            view["output_only"].append(dest)
        else:
            view["hidden_count"] += 1
    return view


def _pick(rng: random.Random, row: list[float]) -> int:
    u = rng.random()
    for d, acc in enumerate(itertools.accumulate(row)):
        if u < acc:
            return d
    return len(row) - 1


def _crowd_work(view: dict, user_count: int, k: int) -> tuple[int, int]:
    crowd = user_count - len(view["linked"]) - len(view["input_only"])
    states = 1
    for d in range(k):
        states *= view["output_only"].count(d) + 1
    return crowd, crowd * states


# ---------------------------------------------------------------------------
# exact: the exact machinery only, no sampling


def _formula(r: Round, n: int, k: int, kind: str) -> None:
    rng = r.rng
    b = rng.uniform(0.1, 0.5)
    if kind == "hetero":
        rows = [_dirichlet(rng, k) for _ in range(n)]
        user, dest = rng.randrange(n), rng.randrange(k)
        check = {"kind": "expectation", "b": b, "p": rows[user][dest]}
    elif kind == "worst":
        u_row = _dirichlet(rng, k)
        least = _least_alternative(u_row)
        on_target = rng.randint(1, n - 2)
        rows = [u_row] + [
            [1.0 if j == (0 if i < on_target else least) else 0.0 for j in range(k)]
            for i in range(n - 1)
        ]
        user, dest = 0, 0
        check = {
            "kind": "typed_worst", "b": b, "p": u_row[0], "n": n,
            "alpha": on_target / (n - 1), "p_least": u_row[least],
        }
    else:
        row = _zipf(rng.uniform(0.5, 1.5), k)
        rows = [row] * n
        user, dest = rng.randrange(n), rng.randrange(k)
        check = {"kind": "typed_common", "b": b, "p": row[dest], "n": n, "row": row, "dest": dest}
    path = r.file("scenario", _scenario_doc(rows, b))
    r.add("exact", f"formula-{kind}-n{n}-d{k}", "formula-" + ("hetero" if kind == "hetero" else "typed"), ["exact", "--scenario", path, "--user", user, "--dest", dest], check)


def _posterior(r: Round) -> None:
    rng = r.rng
    n, k, b = rng.randint(70, 110), rng.randint(4, 6), rng.uniform(0.1, 0.2)
    rows = [_dirichlet(rng, k) for _ in range(n)]
    user, dest = rng.randrange(n), rng.randrange(k)
    while True:
        view = _record_view(rng, rows, b, user)
        if user in view["input_only"] or any(v == user for v, _ in view["linked"]):
            continue
        crowd, work = _crowd_work(view, n, k)
        if 60 <= crowd <= 100 and POSTERIOR_WORK[0] <= work <= POSTERIOR_WORK[1]:
            break
    scenario = r.file("scenario", _scenario_doc(rows, b))
    observation = r.file("view", view)
    argv = ["posterior", "--scenario", scenario, "--observation", observation, "--user", user, "--dest", dest]
    r.add("posterior", "posterior-crowd", "posterior-crowd", argv, {"kind": "probability"})


def _two_group_params(rng: random.Random) -> tuple[float, float, float]:
    b = rng.uniform(0.2, 0.3)
    p_target = rng.uniform(0.2, 0.5)
    p_least = rng.uniform(0.01, 0.1)
    return b, p_target, p_least


def two_group_argv(n, alpha, b, p_target, p_least) -> list:
    return ["--n", n, "--alpha", alpha, "--b", b, "--p-target", p_target, "--p-least", p_least]


def build_exact(r: Round) -> None:
    _formula(r, 9, 6, "hetero")
    _formula(r, 9, 6, "worst")
    _formula(r, 10, 4, "common")
    for _ in range(5):
        _posterior(r)
    # The full sum costs about twice the truncated one at the same n, so
    # the full op runs at a smaller n to keep the class's share in line.
    for n, truncate in ((250, False), (300, True)):
        b, p, q = _two_group_params(r.rng)
        argv = ["worst-case"] + two_group_argv(n, 0.5, b, p, q) + (["--truncate"] if truncate else [])
        check = {"kind": "worst_exact", "b": b, "p": p, "n": n, "alpha": 0.5, "p_least": q, "truncate": truncate}
        r.add("worst_case", f"worst-case-n{n}" + ("-truncate" if truncate else ""), "worst-case", argv, check)
    b, p, q = _two_group_params(r.rng)
    argv = ["sweep", "--mode", "worst-case", "--out", "sweep.csv"] + two_group_argv("60:240:60", 0.5, b, p, q)
    check = {"kind": "sweep_exact", "b": b, "p": p, "alpha": 0.5, "p_least": q,
             "row": r.rng.randrange(4)}
    r.add("sweep", "sweep-worst-case-exact", "sweep-worst-case-exact", argv, check, csv="sweep.csv")
    # A common sum is closed-form and takes milliseconds, mostly CLI
    # dispatch; this many calls give the class a share like the others.
    for _ in range(COMMON_CALLS):
        n, b, k = r.rng.randint(100, 300), r.rng.uniform(0.05, 0.5), r.rng.randint(10, 100)
        exponent, dest = r.rng.uniform(0.5, 1.5), r.rng.randrange(k)
        argv = ["common", "--n", n, "--b", b, "--dist", f"zipf:{exponent!r}", "--dests", k, "--dest", dest]
        r.add("common", "common-exact", "common-exact", argv, {"kind": "expectation", "b": b, "p": _zipf(exponent, k)[dest]})


def oracle_cases(r: Round) -> list[dict]:
    """Small inputs (5 users, 3 destinations) checked against the enumeration oracles."""
    rng, cases = r.rng, []
    rows = [_dirichlet(rng, 3) for _ in range(5)]
    b = rng.uniform(0.1, 0.6)
    path = r.file("small", _scenario_doc(rows, b))
    user, dest = rng.randrange(5), rng.randrange(3)
    cases.append({"argv": ["exact", "--scenario", path, "--user", str(user), "--dest", str(dest)]})
    for _ in range(2):
        user, dest = rng.randrange(5), rng.randrange(3)
        view = r.file("smallview", _record_view(rng, rows, b, user))
        cases.append({"argv": ["posterior", "--scenario", path, "--observation", view,
                               "--user", str(user), "--dest", str(dest)]})
    return cases


# ---------------------------------------------------------------------------
# mc-generic: the generic sampler end to end


def _generic_pair(r: Round, n: int, k: int, samples: int, b_range: tuple[float, float], cls: str,
                  group: str) -> None:
    """A plain and a stratified estimate of one query.

    The query asks about the user's most likely destination: with a
    near-zero prior every sampled posterior is near zero, and a sample
    that misses the rare observed-link case then reports a standard
    error far too small for the plain-versus-stratified check.
    """
    rng = r.rng
    b = rng.uniform(*b_range)
    rows = [_dirichlet(rng, k) for _ in range(n)]
    user = rng.randrange(n)
    dest = max(range(k), key=rows[user].__getitem__)
    path = r.file("scenario", _scenario_doc(rows, b))
    pair = len(r.ops)
    for stratify in (False, True):
        out = f"mc{len(r.ops)}.csv"
        argv = ["mc", "--scenario", path, "--user", user, "--dest", dest, "--samples", samples,
                "--seed", r.seed(), "--threads", r.threads, "--out", out] + (["--stratify"] if stratify else [])
        check = {"kind": "mc", "samples": samples, "pair": pair}
        r.add("mc_generic", cls + ("-stratified" if stratify else ""), group, argv, check, csv=out)


def build_mc_generic(r: Round) -> None:
    for _ in range(3):
        _generic_pair(r, 10, 3, 8_000, (0.22, 0.28), "small-crowd", "small-crowd")
    # Large crowds use a higher b: more samples land in the observed-link
    # and input-only cases, which keeps both standard errors trustworthy
    # at these sample counts.
    _generic_pair(r, 20, 6, 200, (0.35, 0.4), "large-crowd-n20", "large-crowd")
    _generic_pair(r, 40, 4, 80, (0.35, 0.4), "large-crowd-n40", "large-crowd")


# ---------------------------------------------------------------------------
# mc-structured: the closed-form samplers


def _structured_pair(r: Round, mode: str, n: int, samples: int) -> None:
    rng = r.rng
    b = rng.uniform(0.15, 0.3)
    if mode == "worst-case":
        p, q = rng.uniform(0.2, 0.5), rng.uniform(0.01, 0.1)
        alpha = rng.uniform(0.2, 0.8)
        params = two_group_argv(n, alpha, b, p, q)[2:]
        check = {"kind": "mc", "mode": mode, "n": n, "b": b, "p": p, "alpha": alpha, "p_least": q}
    else:
        exponent, k = rng.uniform(0.8, 1.2), rng.randint(10, 50)
        dest = rng.randrange(k)
        params = ["--b", b, "--dist", f"zipf:{exponent!r}", "--dests", k, "--dest", dest]
        check = {"kind": "mc", "mode": mode, "n": n, "b": b, "p": _zipf(exponent, k)[dest],
                 "row": _zipf(exponent, k), "dest": dest}
    check.update(samples=samples, pair=len(r.ops))
    for stratify in (False, True):
        out = f"mc{len(r.ops)}.csv"
        argv = ["mc", "--mode", mode, "--n", n, *params, "--samples", samples, "--seed", r.seed(),
                "--out", out] + (["--stratify"] if stratify else [])
        cmd = "mc_worst_case" if mode == "worst-case" else "mc_common"
        r.add(cmd, f"{mode}-n{n}" + ("-stratified" if stratify else ""), f"{mode}-n{n}", argv, dict(check), csv=out)


def build_mc_structured(r: Round) -> None:
    for mode in ("worst-case", "common"):
        _structured_pair(r, mode, 1_000_000, 14_000 if mode == "worst-case" else 20_000)
        _structured_pair(r, mode, 300, 100_000)
    rng = r.rng
    b, p, q = rng.uniform(0.15, 0.3), rng.uniform(0.2, 0.5), rng.uniform(0.01, 0.1)
    argv = ["sweep", "--mode", "worst-case", "--method", "mc", "--samples", 5000, "--seed", r.seed(),
            "--out", "sweep-worst.csv"] + two_group_argv("250000:1000000:250000", rng.uniform(0.2, 0.8), b, p, q)
    r.add("sweep", "sweep-worst-case-mc", "sweep-mc", argv, {"kind": "sweep_mc", "b": b, "p": p, "samples": 5000},
          csv="sweep-worst.csv")
    b, exponent, k = rng.uniform(0.15, 0.3), rng.uniform(0.8, 1.2), rng.randint(10, 50)
    dest = rng.randrange(k)
    argv = ["sweep", "--mode", "common", "--method", "mc", "--samples", 5000, "--seed", r.seed(),
            "--out", "sweep-common.csv", "--n", "250000:1000000:250000", "--b", b,
            "--dist", f"zipf:{exponent!r}", "--dests", k, "--dest", dest]
    r.add("sweep", "sweep-common-mc", "sweep-mc", argv,
          {"kind": "sweep_mc", "b": b, "p": _zipf(exponent, k)[dest], "samples": 5000}, csv="sweep-common.csv")


MAKE_OPS = {"exact": build_exact, "mc-generic": build_mc_generic, "mc-structured": build_mc_structured}


def build_round(workload: str, seed: int, index: int, threads: int) -> dict:
    """The operation list of round ``index``; a pure function of its arguments."""
    r = Round(workload, seed, index, threads)
    MAKE_OPS[workload](r)
    oracles = oracle_cases(r) if workload == "exact" else []
    spec = r.spec()
    spec["oracle_cases"] = oracles
    return spec
