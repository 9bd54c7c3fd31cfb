"""Benchmark of the onion-anon command line, end to end and layer by layer.

Usage::

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 30 --trace 0

``--workload`` is ``exact``, ``mc-generic``, ``mc-structured`` or ``all``.
The run repeats rounds of the workload's operation list (see
``workloads.py``) until ``--seconds`` have passed, at least one round.
Each round runs in a fresh interpreter (``worker.py``), so the package's
``lru_cache``s start cold and peak memory belongs to one round.  The
operations run one after another, each a real ``onion_anon.cli.main``
call with stdout captured: a closed loop with a single client.

With ``--trace 0`` the last line reports the end-to-end metrics, taken
with tracing off.  With ``--trace 1`` each round runs twice, untraced
and then traced, and the last line reports the per-layer metrics from
the traced run; their difference is ``trace.overhead_s``.  Lines before
the last one print every metric by name with its unit and sample count.

Every output is checked outside the timed region, and the SHA-256 of
each round's stdout and CSV bytes is kept in ``benchmarks/.runs`` so
that a later run of the same sources and seed that prints different
bytes counts as failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, build_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
LAYERS = ("cli", "montecarlo", "seeding", "scipy", "inference", "structured")
COMMANDS = ("exact", "posterior", "worst_case", "sweep", "common", "mc_generic", "mc_worst_case", "mc_common")


def clock() -> float:
    """System-wide monotonic clock, comparable with the worker's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(mode: str, directory: Path, spec_path: Path | None = None) -> tuple[dict | None, str]:
    """Run ``worker.py`` in a fresh interpreter; returns (result, error text)."""
    result_path = directory / f"result-{mode}.json"
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(spec_path or ""), str(result_path), mode]
    started = clock()
    try:
        proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return None, f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    return result, ""


def setup_probe(work: Path) -> float:
    """Set-up time of one fresh interpreter that imports the CLI and stops."""
    probe, error = run_worker("setup", work)
    if error:
        raise RuntimeError(error)
    return probe["setup_s"]


def run_round(workload: str, seed: int, index: int, threads: int, work: Path, trace: bool) -> dict:
    spec = build_round(workload, seed, index, threads)
    files = spec.pop("files")
    inputs = json.dumps({"spec": spec, "files": files}, sort_keys=True).encode()
    out = {"index": index, "ops": spec["ops"], "oracle_cases": spec["oracle_cases"],
           "inputs": hashlib.sha256(inputs).hexdigest()}
    spec["spans_path"] = str(RUNS / f"spans-{workload}-seed{seed}.jsonl")
    # Alternate which run goes first so that drift in machine speed does
    # not bias trace.overhead_s.
    modes = ("plain", "traced")[:: 1 if index % 2 == 0 else -1] if trace else ("plain",)
    for mode in modes:
        directory = work / f"round{index}-{mode}"
        directory.mkdir()
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out[mode], out[mode + "_error"] = run_worker(mode, directory, spec_path)
    return out


def source_digest() -> str:
    """Identifies the program under test: a hash of every source file."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def output_digest(results: list[dict]) -> str:
    h = hashlib.sha256()
    for result in results:
        for text in (result["stdout"], result["csv"]):
            data = text.encode()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


class DigestLog:
    """Digests of earlier runs, by source hash, then workload/seed/round/inputs.

    The inputs hash is part of the key so that a change to the benchmark's
    own input generation is not mistaken for non-reproducible output.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def record(self, source: str, key: str, digest: str) -> tuple[str | None, list[str]]:
        """Store ``digest``; return a same-source digest it contradicts and other sources that differ."""
        mine = self.data.setdefault(source, {})
        previous = mine.setdefault(key, digest)
        others = [s[:12] for s, seen in self.data.items() if s != source and seen.get(key, digest) != digest]
        return (previous if previous != digest else None), others

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data), encoding="utf-8")
        os.replace(tmp, self.path)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def quantile_note(values: list[float]) -> str:
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
    return f"n={len(values)}"


def mc_samples(op: dict, result: dict) -> int:
    argv = op["argv"]
    samples = int(argv[argv.index("--samples") + 1])
    if argv[0] == "sweep":
        return samples * (len(result["csv"].splitlines()) - 1)
    return samples


def is_mc(op: dict) -> bool:
    return op["argv"][0] == "mc" or (op["argv"][0] == "sweep" and "mc" in op["argv"])


def summarize_outputs(rounds: list[dict], workload: str, seed: int, log: DigestLog, source: str,
                      lines: list[str]) -> tuple[int, int]:
    """Count attempted and failed operations, including digest disagreements."""
    attempted = failed = 0
    for r in rounds:
        digests = {}
        for mode in ("plain", "traced"):
            if mode not in r:
                continue
            count = len(r["ops"]) + len(r["oracle_cases"])
            attempted += count
            result = r[mode]
            if result is None:
                failed += count
                lines.append(f"FAILED round {r['index']} ({mode}): {r[mode + '_error']}")
                continue
            for op, out in zip(r["ops"], result["ops"]):
                if out["problem"]:
                    failed += 1
                    lines.append(f"FAILED round {r['index']} {op['cls']}: {out['problem']}  argv={op['argv']}")
            for case in result["oracle"]:
                if case["problem"]:
                    failed += 1
                    lines.append(f"FAILED round {r['index']} oracle: {case['problem']}  argv={case['argv']}")
            digests[mode] = output_digest(result["ops"])
        if not digests:
            continue
        if len(set(digests.values())) > 1:
            failed += 1
            lines.append(f"FAILED round {r['index']}: traced and untraced outputs differ")
        digest = next(iter(digests.values()))
        previous, others = log.record(source, f"{workload}/{seed}/{r['index']}/{r['inputs'][:16]}", digest)
        if previous is not None:
            failed += 1
            lines.append(f"FAILED round {r['index']}: output digest {digest[:16]} differs from "
                         f"{previous[:16]} recorded for the same sources and seed")
        if others:
            lines.append(f"note: round {r['index']} output differs from that of sources {', '.join(others)}")
        wall = (r["plain"] or r["traced"])["wall"]
        lines.append(f"round {r['index']}  wall {wall:.4f} s  inputs sha256 {r['inputs'][:16]}  output sha256 {digest}")
    return attempted, failed


def end_to_end(rounds: list[dict], setups: list[float], lines: list[str]) -> dict:
    ok = [r for r in rounds if r["plain"] is not None]
    walls = [r["plain"]["wall"] for r in ok]
    rss = [r["plain"]["peak_kb"] / 1024.0 for r in ok]
    per_cmd = defaultdict(list)
    by_group: Counter = Counter()
    mc_seconds = 0.0
    samples = 0
    accuracy = []
    for r in ok:
        for op, out in zip(r["ops"], r["plain"]["ops"]):
            by_group[op["group"]] += out["seconds"]
            if out["code"] != 0:
                continue
            per_cmd[op["cmd"]].append(out["seconds"])
            if is_mc(op):
                mc_seconds += out["seconds"]
                samples += mc_samples(op, out)
            if op["argv"][0] == "mc":
                std_error = float(out["stdout"].split()[1].split("=")[1])
                accuracy.append(out["seconds"] * (std_error / 1e-4) ** 2)
    lines.append("share of wall_s by op class (pooled over rounds):")
    total_wall = sum(walls)
    for group, seconds in sorted(by_group.items(), key=lambda item: -item[1]):
        lines.append(f"  share.{group:<26} {seconds / total_wall:>8.3f}  "
                     f"{seconds / len(ok):.4g} s per round of {total_wall / len(ok):.4g} s")
    refs = [t for r in ok for t in r["plain"]["ref_s"]]
    ref = statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setups), "s", quantile_note(setups)),
        "wall_ref": (statistics.median(walls) / ref, "x", "median wall_s / median ref_kernel_s"),
        "peak_rss_mb": (statistics.median(rss), "MB", quantile_note(rss) + " rounds"),
    }
    lines.append("end-to-end, tracing off (medians):")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<22} {value:>12.6g} {unit:<6} {note}")
    lines.append(f"  {'wall_s':<22} {statistics.median(walls):>12.6g} {'s':<6} {quantile_note(walls)} rounds")
    lines.append(f"  {'ref_kernel_s':<22} {ref:>12.6g} {'s':<6} {quantile_note(refs)} kernel timings")
    for cmd in COMMANDS:
        if per_cmd[cmd]:
            values = per_cmd[cmd]
            lines.append(f"  {'cmd.' + cmd + '_s':<22} {statistics.median(values):>12.6g} {'s':<6} "
                         f"{quantile_note(values)} ops")
    if samples:
        lines.append(f"  {'samples_per_s':<22} {samples / mc_seconds:>12.6g} {'1/s':<6} "
                     f"{samples} samples in {mc_seconds:.3f} s of mc/sweep-mc time")
        lines.append(f"  {'time_to_accuracy_s':<22} {statistics.median(accuracy):>12.6g} {'s':<6} "
                     f"{quantile_note(accuracy)} mc ops; op wall x (std_error / 1e-4)^2")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def input_properties(rounds: list[dict], mode: str) -> dict[str, float]:
    """Workload properties the workloads were chosen for, per round, with their bases."""
    totals: Counter = Counter()
    ok = [r for r in rounds if r.get(mode) is not None]
    for r in ok:
        for op, out in zip(r["ops"], r[mode]["ops"]):
            if op["cmd"] == "exact":
                totals["formula_ops"] += 1
                totals["typed"] += op["check"]["kind"].startswith("typed")
            if op["cls"] == "sweep-worst-case-exact":
                totals["sweep_hits"] += out["cache_hits"]
                totals["sweep_lookups"] += out["cache_hits"] + out["cache_misses"]
            if op["argv"][0] == "mc" and op["check"].get("n") == 1_000_000:
                totals["n1e6"] += 1
            if op["argv"][0] == "mc" and op["check"].get("n") == 300:
                totals["n300"] += 1
            totals["hits"] += out["cache_hits"]
            totals["lookups"] += out["cache_hits"] + out["cache_misses"]
    rounds_n = max(len(ok), 1)
    return {
        "input.formula_typed_share": totals["typed"] / totals["formula_ops"] if totals["formula_ops"] else 0.0,
        "input.formula_ops": totals["formula_ops"] / rounds_n,
        "input.sweep_hit_ratio": totals["sweep_hits"] / totals["sweep_lookups"] if totals["sweep_lookups"] else 0.0,
        "input.sweep_lookups": totals["sweep_lookups"] / rounds_n,
        "input.ops_n1e6": totals["n1e6"] / rounds_n,
        "input.ops_n300": totals["n300"] / rounds_n,
        "structured.seen_counts.hit_ratio": totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0,
        "structured.seen_counts.lookups": totals["lookups"] / rounds_n,
    }


def per_layer(rounds: list[dict], lines: list[str]) -> dict:
    traced = [r for r in rounds if r.get("traced") is not None and r["plain"] is not None]
    n = max(len(traced), 1)
    seconds, calls, self_s, counts, errors, children = (Counter() for _ in range(6))
    spans = 0
    overhead = []
    for r in traced:
        t = r["traced"]["trace"]
        seconds.update(t["seconds"])
        calls.update(t["calls"])
        self_s.update(t["self_s"])
        counts.update(t["counts"])
        errors.update(t["errors"])
        children.update(t["montecarlo_children"])
        spans += t["spans"]
        overhead.append(r["traced"]["wall"] - r["plain"]["wall"])
    posterior_calls = calls["inference.posterior"]
    generic = counts["montecarlo.generic_samples"]
    m = {
        "cli.main.s": seconds["cli.main"] / n,
        "cli.self_s": self_s["cli"] / n,
        "montecarlo.estimate_expected_posterior.s": seconds["montecarlo.estimate_expected_posterior"] / n,
        "montecarlo.estimate_expected_posterior.calls": calls["montecarlo.estimate_expected_posterior"] / n,
        "montecarlo.self_s": self_s["montecarlo"] / n,
        "montecarlo.samples": counts["montecarlo.samples"] / n,
        "montecarlo.generic_samples": generic / n,
        "montecarlo.view_reuse": 1.0 - counts["montecarlo.posterior_calls"] / generic if generic else 0.0,
        "seeding.uniform_block.s": seconds["seeding.uniform_block"] / n,
        "seeding.uniform_block.calls": calls["seeding.uniform_block"] / n,
        "seeding.variates": counts["seeding.variates"] / n,
        "scipy.binom_ppf.s": seconds["scipy.binom_ppf"] / n,
        "scipy.binom_ppf.calls": calls["scipy.binom_ppf"] / n,
        "scipy.binom_ppf.draws": counts["scipy.binom_ppf.draws"] / n,
        "inference.posterior.s": seconds["inference.posterior"] / n,
        "inference.posterior.calls": posterior_calls / n,
        "inference.injection_sum.s": seconds["inference.injection_sum"] / n,
        "inference.injection_sum.calls": calls["inference.injection_sum"] / n,
        "inference.injection_sum.per_view": calls["inference.injection_sum"] / posterior_calls if posterior_calls else 0.0,
        "inference.self_s": self_s["inference"] / n,
        "inference.expected_posterior_formula.s": seconds["inference.expected_posterior_formula"] / n,
        "inference.expected_posterior_formula.calls": calls["inference.expected_posterior_formula"] / n,
        "inference.expected_posterior_formula.typed_s": seconds["inference.expected_posterior_formula.typed"] / n,
        "inference.expected_posterior_formula.hetero_s": seconds["inference.expected_posterior_formula.hetero"] / n,
        "structured.worst_case_expected_exact.s": seconds["structured.worst_case_expected_exact"] / n,
        "structured.worst_case_expected_exact.calls": calls["structured.worst_case_expected_exact"] / n,
        "structured.common_expected_exact.s": seconds["structured.common_expected_exact"] / n,
        "structured.common_expected_exact.calls": calls["structured.common_expected_exact"] / n,
        "structured.binomial_weights.calls": calls["structured.binomial_weights"] / n,
        "structured.self_s": self_s["structured"] / n,
    }
    m.update(input_properties(traced, "traced"))
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer] / n
    m["trace.overhead_s"] = statistics.mean(overhead) if overhead else 0.0
    m["trace.spans"] = spans / n
    lines.append(f"per layer, traced run (per round, mean of {len(traced)} rounds; ratios over pooled counts):")
    for name, value in m.items():
        lines.append(f"  {name:<46} {value:>14.6g} {unit_of(name)}")
    if children:
        largest = max(children, key=children.get)
        lines.append(f"  largest child of montecarlo: {largest} ({children[largest] / n:.6g} s of "
                     f"{m['montecarlo.estimate_expected_posterior.s']:.6g} s)")
    base = m["montecarlo.estimate_expected_posterior.s"]
    if base:
        lines.append(f"  scipy.binom_ppf.s / montecarlo.estimate_expected_posterior.s = "
                     f"{m['scipy.binom_ppf.s'] / base:.4f}")
    lines.append("  bases: view_reuse over generic_samples; injection_sum.per_view over posterior.calls; "
                 "hit ratios over their lookups; formula_typed_share over formula_ops")
    return {name: {"value": value, "unit": unit_of(name)} for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share", "reuse", "per_view")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    threads = min(2, os.cpu_count() or 1)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
             "machine " + json.dumps(machine())]
    try:
        # Untimed: warms the file cache and any bytecode the interpreter writes.
        setup_probe(work)
        rounds = []
        setups = []
        start = clock()
        # A bare set-up probe before every round spreads the set-up samples
        # over the whole run, as the rounds are, so that a slow stretch of
        # the machine weighs on both alike.
        while not rounds or clock() - start < seconds:
            setups.append(setup_probe(work))
            rounds.append(run_round(workload, seed, len(rounds), threads, work, trace))
        setups += [r["plain"]["setup_s"] for r in rounds if r["plain"] is not None]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup_probe(work))
        if not any(r["plain"] is not None for r in rounds):
            raise RuntimeError("no round completed: " + rounds[0]["plain_error"])
        log = DigestLog(RUNS / "digests.json")
        attempted, failed = summarize_outputs(rounds, workload, seed, log, source_digest(), lines)
        log.save()
        metrics = end_to_end(rounds, setups, lines)
        if trace:
            metrics = per_layer(rounds, lines)
        else:
            for name, value in input_properties(rounds, "plain").items():
                lines.append(f"  {name:<38} {value:>12.6g} {unit_of(name)}")
        lines.append(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onion_anon" / "cli.py").is_file():
        print(f"error: no onion_anon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {w: r["metrics"] for w, r in results.items()},
            }
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
