"""Run one round of a workload in a fresh interpreter.

Usage: ``python3 worker.py ROOT SPEC RESULT MODE`` with MODE one of
``setup`` (import the CLI and stop), ``plain`` or ``traced``.  The
working directory holds the round's input files.

The worker reports the monotonic clock reading at which
``onion_anon.cli`` was imported and its parser built; the parent, which
noted the clock before starting this process, turns that into the
set-up time.  Everything else the benchmark needs is imported after
that reading, so it does not count as set-up.

Before an operation, once ``REF_EVERY_S`` seconds have passed since the
last timing, the worker times a reference kernel ``REF_REPEATS`` times:
a fixed ``scipy.stats.binom.ppf`` call that runs none of the package's
code.  The parent divides round walls by the
kernel's median time, which cancels part of the host's speed drift (see
README.md).  Kernel time is left out of op seconds and of the wall.
"""
import os
import sys
import time

REF_EVERY_S = 0.2
REF_REPEATS = 2


def main() -> int:
    root, spec_path, result_path, mode = sys.argv[1:5]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from onion_anon import cli

    cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"onion_anon was imported from {cli.__file__}, not from {src}")

    import contextlib
    import io
    import json
    import resource
    import traceback
    from time import perf_counter

    import numpy as np
    from scipy.stats import binom

    if mode == "setup":
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"ready": ready}, handle)
        return 0

    from onion_anon.structured import _seen_counts_mean

    import checks
    import spans

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    ops = spec["ops"]
    recorder = None
    main_fn = cli.main
    if mode == "traced":
        recorder = spans.Recorder()
        spans.install(recorder)
        main_fn = recorder.wrap("cli.main", cli.main)

    ref_u = np.random.default_rng(0).random(200)
    ref_times = []
    last_ref = float("-inf")
    results = []
    list_start = perf_counter()
    for index, op in enumerate(ops):
        if perf_counter() - last_ref >= REF_EVERY_S:
            for _ in range(REF_REPEATS):
                start = perf_counter()
                binom.ppf(ref_u, 1_000_000, 0.3)
                ref_times.append(perf_counter() - start)
            last_ref = perf_counter()
        if recorder is not None:
            recorder.op = index
        before = _seen_counts_mean.cache_info()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main_fn(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
        after = _seen_counts_mean.cache_info()
        csv = ""
        if op["csv"] and os.path.exists(op["csv"]):
            with open(op["csv"], encoding="utf-8", newline="") as handle:
                csv = handle.read()
        results.append({
            "seconds": seconds, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv": csv,
            "cache_hits": after.hits - before.hits, "cache_misses": after.misses - before.misses,
        })
    wall = perf_counter() - list_start - sum(ref_times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if recorder is not None:
        trace = spans.summarize(recorder, [op["check"]["kind"].startswith("typed") for op in ops])
        recorder.dump(spec["spans_path"])

    for op, result in zip(ops, results):
        try:
            result["problem"] = checks.check_op(op, result, results)
        except Exception:
            result["problem"] = "check raised: " + traceback.format_exc(limit=2).replace("\n", " ")
    oracle = []
    for case in spec["oracle_cases"]:
        try:
            problem = checks.check_oracle_case(case["argv"])
        except Exception:
            problem = "check raised: " + traceback.format_exc(limit=2).replace("\n", " ")
        oracle.append({"argv": case["argv"], "problem": problem})

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"ready": ready, "wall": wall, "peak_kb": peak_kb, "ops": results,
                   "oracle": oracle, "trace": trace, "ref_s": ref_times}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
