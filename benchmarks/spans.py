"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side only: :func:`install`
replaces the names that one module of ``onion_anon`` looks up in
another with wrappers, so every call across those module boundaries
leaves a span.  Nothing in ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span (-1 at the top) and ``op`` the index of the
operation in the round, which all spans of one CLI call share.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.op = -1

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped so that each call records a span named ``name``."""

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, perf_counter(), 0.0, parent, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record[5] = attrs(args, kwargs, result)
                return result
            except BaseException:
                self.errors[name.split(".")[0]] += 1
                raise
            finally:
                record[2] = perf_counter()
                self.stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _BinomProxy:
    """Stands in for ``scipy.stats.binom`` with a traced ``ppf``."""

    def __init__(self, real, ppf):
        self._real = real
        self.ppf = ppf

    def __getattr__(self, name):
        return getattr(self._real, name)


def _estimate_attrs(args, kwargs, result):
    generic = kwargs.get("mode", "generic") == "generic"
    return {"montecarlo.samples": int(args[2]), "montecarlo.generic_samples": int(args[2]) if generic else 0}


def install(recorder: Recorder) -> None:
    """Wrap the calls at each module boundary the per-layer metrics name.

    ``attrs`` functions turn a call's arguments or result into counts,
    keyed by the metric they add to.
    """
    from onion_anon import cli, inference, montecarlo, structured

    w = recorder.wrap
    cli.estimate_expected_posterior = w(
        "montecarlo.estimate_expected_posterior", cli.estimate_expected_posterior, _estimate_attrs
    )
    cli.expected_posterior_formula = w("inference.expected_posterior_formula", cli.expected_posterior_formula)
    cli.posterior = w("inference.posterior", cli.posterior)
    cli.worst_case_expected_exact = w("structured.worst_case_expected_exact", cli.worst_case_expected_exact)
    cli.common_expected_exact = w("structured.common_expected_exact", cli.common_expected_exact)
    montecarlo.uniform_block = w(
        "seeding.uniform_block", montecarlo.uniform_block, lambda a, k, out: {"seeding.variates": int(out.size)}
    )
    montecarlo.posterior = w("inference.posterior", montecarlo.posterior)
    real = montecarlo.binom
    montecarlo.binom = _BinomProxy(
        real, w("scipy.binom_ppf", real.ppf, lambda a, k, out: {"scipy.binom_ppf.draws": int(np.size(a[0]))})
    )
    inference.injection_sum = w("inference.injection_sum", inference.injection_sum)
    structured.binomial_weights = w("structured.binomial_weights", structured.binomial_weights)


def summarize(recorder: Recorder, typed_ops: list[bool]) -> dict:
    """Totals for one round: time and calls per span name, self time per layer.

    A span's self time is its duration minus the time its child spans
    cover.  Spans nest strictly on one thread, so children never overlap
    and their coverage is the sum of their durations.  A layer's self
    time sums that over the layer's spans; the layers' self times add
    up to the total time under ``cli.main``.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    mc_children: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        duration = end - start
        seconds[name] += duration
        calls[name] += 1
        self_s[name.split(".")[0]] += duration - child_time[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name.startswith("montecarlo."):
            mc_children[name] += duration
            if name == "inference.posterior":
                counts["montecarlo.posterior_calls"] += 1
        if name == "inference.expected_posterior_formula":
            seconds["inference.expected_posterior_formula.typed" if typed_ops[op] else
                    "inference.expected_posterior_formula.hetero"] += duration
        if attrs:
            counts.update(attrs)
    return {
        "seconds": dict(seconds),
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counts": dict(counts),
        "errors": dict(recorder.errors),
        "montecarlo_children": dict(mc_children),
        "spans": len(spans),
    }
