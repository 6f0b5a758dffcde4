"""Span tracing of triqsvm layers from outside the package.

The tracer replaces an entry point in the module that looks it up (for
example ``triqsvm.optimize.simulated_anneal``, the name ``train`` calls)
with a wrapper that records one span per call.  A span has a name, start
and end times, the id of the span that was open when it started, and
counts computed from the call's arguments and result.  Spans stay in
memory until the run ends.

``layer_metrics`` turns the spans of a run into per-layer numbers.  Each
timed operation of the benchmark is a ``bench.op`` root span and each
set-up a ``bench.setup`` root span; layer numbers are given per root.  A
layer's time is the wall time its spans cover (concurrent spans count
once), and a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``enabled``; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield Span(0, name, None, 0)
            return
        stack = self._stack()
        # A worker thread's outermost span belongs under the span the main
        # thread has open, which is the call that handed it the work.
        opener = stack or self._main_stack
        with self._lock:
            span = Span(next(self._ids), name, opener[-1].id if opener else None,
                        threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def paused(self):
        """Record nothing inside the block."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, module_name: str, attr: str, name: str, count=None) -> None:
        """Record a ``name`` span around every call of ``module_name.attr``.

        ``count(arguments, result)`` returns the span's counts; it runs after
        the span has ended.  A missing entry point is noted in ``missing``
        and left alone, so its metrics are reported as absent.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            self.missing_spans.add(name)
            return
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if count is not None and self.enabled:
                span.counts = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _roots(spans: list[Span]) -> dict[int, Span]:
    """Each span's root span."""
    by_id = {s.id: s for s in spans}
    root = {}
    for s in spans:
        top = s
        while top.parent in by_id:
            top = by_id[top.parent]
        root[s.id] = top
    return root


# Per-layer metric -> (unit, the span names it is computed from).  A metric
# whose spans come from an entry point that could not be wrapped is left out.
LAYER_METRICS = {
    "anneal.solve_s": ("s", ("anneal.solve",)),
    "anneal.solve_calls": ("count", ("anneal.solve",)),
    "anneal.flip_attempts": ("count", ("anneal.solve",)),
    "anneal.ns_per_flip": ("ns", ("anneal.solve",)),
    "anneal.best_hit_frac": ("ratio", ("anneal.solve",)),
    "anneal.selected_frac": ("ratio", ("anneal.solve",)),
    "anneal.greedy_s": ("s", ("anneal.greedy",)),
    "qkernel.gram_s": ("s", ("qkernel.gram",)),
    "qkernel.gram_entries": ("count", ("qkernel.gram",)),
    "qkernel.states": ("count", ("qkernel.gram", "kernels.cross")),
    "kernels.cross_s": ("s", ("kernels.cross",)),
    "kernels.cross_entries": ("count", ("kernels.cross",)),
    "kernels.gram_self_s": ("s", ("kernels.gram", "qkernel.gram")),
    "qubo.build_s": ("s", ("qubo.build",)),
    "qubo.build_entries": ("count", ("qubo.build",)),
    "qubo.offset_s": ("s", ("qubo.offset",)),
    "qubo.score_self_s": ("s", ("qubo.score", "cli.decide", "kernels.cross")),
    "optimize.iterations": ("count", ("optimize.train",)),
    "optimize.failed_iter_frac": ("ratio", ("optimize.train",)),
    "optimize.self_s": ("s", ("optimize.train", "kernels.gram", "qubo.build", "anneal.solve",
                              "anneal.greedy", "qubo.offset", "qubo.score")),
    "datagen.generate_s": ("s", ("datagen.generate",)),
    "datagen.points_per_s": ("1/s", ("datagen.generate",)),
    "datagen.csv_s": ("s", ("datagen.csv",)),
    "cli.map_s": ("s", ("cli.map",)),
    "cli.decide_s": ("s", ("cli.decide",)),
    "cli.overhead_s": ("s", ("cli.map", "cli.decide")),
    "cli.evaluate_s": ("s", ("cli.evaluate",)),
    "cli.threads": ("count", ("cli.map", "cli.decide")),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of a traced run, per operation (per set-up for
    ``datagen``).  A layer that did not run reads 0."""
    spans = tracer.spans
    root = _roots(spans)
    op_spans = [s for s in spans if root[s.id].name == "bench.op"]
    setup_spans = [s for s in spans if root[s.id].name == "bench.setup"]
    ops = sum(1 for s in spans if s.name == "bench.op")
    setups = sum(1 for s in spans if s.name == "bench.setup")
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def named(names, pool):
        return [s for s in pool if s.name in names]

    def busy(names, pool=op_spans):
        return covered((s.start, s.end) for s in named(names, pool))

    def self_time(names, pool=op_spans):
        return sum(
            s.end - s.start
            - covered((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
            for s in named(names, pool)
        )

    def total(names, key, pool=op_spans):
        return sum(s.counts.get(key, 0) for s in named(names, pool))

    def per(value, n):
        return value / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    solve_s = busy({"anneal.solve"})
    flips = total({"anneal.solve"}, "flips")
    gram_s = busy({"qkernel.gram"})
    generate_s = busy({"datagen.generate"}, setup_spans)
    map_s = busy({"cli.map"})
    decide_s = busy({"cli.decide"})
    iterations = total({"optimize.train"}, "iterations")
    maps = named({"cli.map"}, op_spans)
    threads = [len({c.thread for c in children[m.id] if c.name == "cli.decide"}) for m in maps]

    metrics = {
        "anneal.solve_s": per(solve_s, ops),
        "anneal.solve_calls": per(len(named({"anneal.solve"}, op_spans)), ops),
        "anneal.flip_attempts": per(flips, ops),
        "anneal.ns_per_flip": ratio(solve_s * 1e9, flips),
        "anneal.best_hit_frac": ratio(total({"anneal.solve"}, "best_hits"),
                                      total({"anneal.solve"}, "reads")),
        "anneal.selected_frac": ratio(total({"anneal.solve"}, "selected"),
                                      total({"anneal.solve"}, "n")),
        "anneal.greedy_s": per(busy({"anneal.greedy"}), ops),
        "qkernel.gram_s": per(gram_s, ops),
        "qkernel.gram_entries": per(total({"qkernel.gram"}, "entries"), ops),
        "qkernel.states": per(total({"qkernel.gram", "kernels.cross"}, "states"), ops),
        "kernels.cross_s": per(busy({"kernels.cross"}), ops),
        "kernels.cross_entries": per(total({"kernels.cross"}, "entries"), ops),
        "kernels.gram_self_s": per(self_time({"kernels.gram"}), ops),
        "qubo.build_s": per(busy({"qubo.build"}), ops),
        "qubo.build_entries": per(total({"qubo.build"}, "entries"), ops),
        "qubo.offset_s": per(busy({"qubo.offset"}), ops),
        "qubo.score_self_s": per(self_time({"qubo.score", "cli.decide"}), ops),
        "optimize.iterations": per(iterations, ops),
        "optimize.failed_iter_frac": ratio(total({"optimize.train"}, "failed"), iterations),
        "optimize.self_s": per(self_time({"optimize.train"}), ops),
        "datagen.generate_s": per(generate_s, setups),
        "datagen.points_per_s": ratio(total({"datagen.generate"}, "points", setup_spans),
                                      generate_s),
        "datagen.csv_s": per(busy({"datagen.csv"}, setup_spans), setups),
        "cli.map_s": per(map_s, ops),
        "cli.decide_s": per(decide_s, ops),
        "cli.overhead_s": per(map_s - decide_s, ops),
        "cli.evaluate_s": per(busy({"cli.evaluate"}), ops),
        "cli.threads": statistics.mean(threads) if threads else 0.0,
    }
    return {name: value for name, value in metrics.items()
            if not tracer.missing_spans.intersection(LAYER_METRICS[name][1])}


def per_call_ms(tracer: Tracer, name: str) -> float | None:
    """Mean duration in ms of the ``name`` spans inside operations."""
    root = _roots(tracer.spans)
    durations = [s.end - s.start for s in tracer.spans
                 if s.name == name and root[s.id].name == "bench.op"]
    return 1e3 * statistics.mean(durations) if durations else None
