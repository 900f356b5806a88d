"""In-memory spans around calls into stabeq's layers, for the traced run.

The tracer rebinds module attributes in the benchmark's own process only;
nothing under src/ changes.  Each span records its name, start, end, parent
span and certificate id, plus the base f-evaluations and vectorized f-calls
made while it was open and the number of points it was asked for.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Field order of one span record.
FIELDS = ("name", "start", "end", "parent", "cert", "f_evals", "f_calls", "points")


def _points(x) -> int:
    return int(np.size(x))


def _pairs(grid) -> int:
    count = getattr(grid, "count", None)
    return count * count if count is not None else len(grid)


class Tracer:
    """Span recorder plus the counters of the base f-evaluations."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cert = -1
        self.f_evals = 0
        self.f_calls = 0

    def open(self, name: str, points: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, perf_counter(), 0.0, parent, self.cert, self.f_evals, self.f_calls, points]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = perf_counter()
        rec[5] = self.f_evals - rec[5]
        rec[6] = self.f_calls - rec[6]
        self._stack.pop()

    @contextmanager
    def span(self, name: str, points: int = 0):
        idx = self.open(name, points)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, points=None):
        """fn with a span around every call; points(args) sizes the request."""

        def wrapped(*args, **kwargs):
            idx = self.open(name, points(args) if points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapped

    def count_f(self, handle):
        """Count base evaluations through the callable the handle wraps."""
        inner = handle._fn

        def counted(xs):
            self.f_calls += 1
            self.f_evals += int(xs.size)
            return inner(xs)

        handle._fn = counted
        return handle

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind stabeq's layer entry points to traced versions, then restore."""
    from stabeq import approximants, bounds, harness
    from stabeq.quasinorm import PNormSpace

    make_fn = harness.make_test_function
    patches = [
        (harness, "calibrate_theta", tracer.wrap("harness.calibrate", harness.calibrate_theta, lambda a: _pairs(a[3]))),
        (harness, "decompose_full", tracer.wrap("approximants.decompose", harness.decompose_full)),
        (harness, "stability_bound", tracer.wrap("bounds.full_bound", harness.stability_bound, lambda a: _points(a[2]))),
        (approximants, "take_limit", tracer.wrap("approximants.take_limit", approximants.take_limit, lambda a: _points(a[2]))),
        (bounds, "psi_tilde_bound", tracer.wrap("bounds.psi", bounds.psi_tilde_bound, lambda a: _points(a[2]))),
        (PNormSpace, "pnorm", tracer.wrap("quasinorm.pnorm", PNormSpace.pnorm)),
        (harness, "make_test_function", lambda cfg: tracer.count_f(make_fn(cfg))),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time of nested spans of other layers.

    A span's self time is its duration minus its direct children.  Its layer
    time adds back the layer time of children in the same layer, so a layer's
    figure covers all of its own work, however its calls nest, and none of
    the work it hands to another layer.
    """
    self_t = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            self_t[rec[3]] -= rec[2] - rec[1]
    layer_t = list(self_t)
    # Children follow their parents in the list, so one backward pass folds
    # every same-layer subtree into its root.
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0 and _layer(spans[parent][0]) == _layer(spans[i][0]):
            layer_t[parent] += layer_t[i]
    return layer_t
