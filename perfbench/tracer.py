"""Spans around gyblink's public functions, installed from outside the package.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds
every reference to it in the loaded ``gyblink`` modules, including the
names other modules imported (``invariant`` imports ``trace_with_weight``,
``cli`` imports the checks, ``enhancement`` reaches ``rep`` by attribute).
Spans stay in memory as ``[name, start, end, parent, op, error]`` lists;
self time is a span's duration minus the durations of its direct children.
With ``enabled`` false the wrappers call straight through and record nothing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = {
    "rep": ("make_context", "trace_with_weight"),
    "invariant": (
        "trace_invariant",
        "markov_check",
        "skein_check",
        "quartic_check_type2",
        "multiplicativity_check",
        "cross_operator_check",
    ),
    "braids": ("random_braid", "conjugate", "stabilize", "juxtapose", "resolve_braid"),
    "operators": (
        "build_operator",
        "verify_gybe",
        "verify_far_commutativity",
        "unitarity_residual",
        "check_outer_diagonal",
    ),
    "enhancement": ("make_enhancement", "enhancement_report", "sampled_perpendicularity"),
    "tensorops": ("mat_inverse", "tensor_embed", "kron_power", "partial_trace_last"),
}

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a gyblink module binds it."""
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"gyblink.{layer}")
            for fname in names:
                original = getattr(module, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "gyblink"]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def run_op(self, op, fn, *args, **kwargs):
        """Call ``fn`` under a root span ``op`` tagged with the op index."""
        self.op = op
        try:
            return self.wrap("op", fn)(*args, **kwargs)
        finally:
            self.op = None


def self_times(spans) -> list[float]:
    """Per-span self time in seconds: duration minus direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total self ms, span durations in ms, errors."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s[NAME], {"calls": 0, "self_ms": 0.0, "durations_ms": [], "errors": {}})
        entry["calls"] += 1
        entry["self_ms"] += own * 1e3
        entry["durations_ms"].append((s[END] - s[START]) * 1e3)
        if s[ERROR]:
            entry["errors"][s[ERROR]] = entry["errors"].get(s[ERROR], 0) + 1
    return out


def quantile(values, q: float) -> float:
    """``q``-quantile as ``statistics.quantiles`` gives it; 0.0 when empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]
