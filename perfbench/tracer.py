"""Outside-in tracer: wraps swarmcut functions at their call sites.

Several swarmcut modules import functions by name (``from .graphs import
cut_values_all_masks``), so patching the defining module alone misses the
callers. Each span therefore lists every dotted call site that reaches its
function, and the tracer patches each one it can resolve. A span none of whose
sites resolves is reported as absent, so the benchmark keeps running against
a refactored program instead of crashing or printing zero.

Spans are aggregated in memory per name (calls, total time, self time, and
optionally every duration); a span's self time is its duration minus the time
its child spans cover. Time inside the traced region that no span covers is
``unattributed_s``, so the self times of all spans plus ``unattributed_s`` add
up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "open", "durations", "bytes")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.open = 0
        self.durations = [] if keep_durations else None
        self.bytes = 0


@dataclass(frozen=True)
class SpanSpec:
    """One traced function: the metric name, its call sites, and options.

    ``bytes_fn(args)`` returns the bytes a call computes from its array
    arguments; ``counts_objective`` counts the calls of the objective passed
    as the first argument (used for ``optimizer.minimize``).
    """

    name: str
    sites: list
    keep_durations: bool = False
    bytes_fn: Callable | None = None
    counts_objective: bool = False


def resolve(dotted: str):
    """Return (owner, attribute, current value) for a dotted name, or None.

    The longest importable prefix is the module; the rest is an attribute
    chain, so ``pkg.mod.Class.method`` resolves to (Class, "method", fn).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class ObjectiveCounter:
    """Evaluation counts seen through ``minimize``'s objective argument.

    ``calls`` lists, per ``minimize`` call, (counted evaluations, the
    ``evaluations`` field of the returned result, the expected count
    S * (1 + T * (2 * dim + 1)) of the finite-difference mode).
    """

    def __init__(self, probe_span: SpanStats | None):
        self.probe_span = probe_span
        self.evaluations = 0
        self.probe_evaluations = 0
        self.calls = []

    def call(self, fn, args, kwargs):
        f, rest = args[0], args[1:]
        before = self.evaluations
        probe = self.probe_span

        def counted(theta):
            self.evaluations += 1
            if probe is not None and probe.open:
                self.probe_evaluations += 1
            return f(theta)

        result = fn(counted, *rest, **kwargs)
        bounds = np.asarray(rest[0] if rest else kwargs.get("bounds"))
        cfg = rest[1] if len(rest) > 1 else kwargs.get("cfg")
        expected = None
        if bounds.ndim == 2 and getattr(cfg, "mode", None) == "adam_fd":
            expected = cfg.swarm_size * (1 + cfg.max_iters * (2 * bounds.shape[0] + 1))
        self.calls.append((self.evaluations - before, getattr(result, "evaluations", None), expected))
        return result


class Tracer:
    """Context manager that patches every resolvable site of ``specs``.

    Objective calls made while the ``probe_span`` span is open count as
    probe evaluations.
    """

    def __init__(self, specs, probe_span: str | None = None):
        self.specs = list(specs)
        self.spans = {s.name: SpanStats(s.keep_durations) for s in self.specs}
        self.absent = []
        self.missing_sites = []
        self._stack = [0.0]
        self._patched = []
        self.objective = ObjectiveCounter(self.spans.get(probe_span))

    @property
    def covered_s(self) -> float:
        """Total duration of top-level spans, i.e. traced time that is attributed."""
        return self._stack[0]

    def __enter__(self):
        for spec in self.specs:
            found = False
            for site in spec.sites:
                hit = resolve(site)
                if hit is None or not callable(hit[2]):
                    self.missing_sites.append(site)
                    continue
                owner, attr, original = hit
                setattr(owner, attr, self._wrap(spec, self.spans[spec.name], original))
                self._patched.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(spec.name)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        return False

    def _wrap(self, spec: SpanSpec, span: SpanStats, fn):
        stack = self._stack
        clock = time.perf_counter
        bytes_fn = spec.bytes_fn
        durations = span.durations
        objective = self.objective if spec.counts_objective else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if bytes_fn is not None:
                span.bytes += bytes_fn(args)
            stack.append(0.0)
            span.open += 1
            start = clock()
            try:
                if objective is not None and args and callable(args[0]):
                    return objective.call(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.open -= 1
                child = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - child
                if durations is not None:
                    durations.append(elapsed)

        return wrapper
