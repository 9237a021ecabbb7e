"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` with a
wrapper that records a span (name, pair, parent, start, end, error). The CLI
imports with ``from .x import y``, so one function object is bound in several
``bezmin.*`` namespaces; every binding that is the same object is replaced,
matched by identity. ``Polynomial.__call__`` and ``Polynomial.normalize`` are
called tens of thousands of times per pair, so they are counted, not timed:
a span each would distort the self time of the layers that call them.

A layer's self time is its span minus the part of it that its child spans
cover (``self_times``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, function) pairs timed as spans; the metric prefix is
# "<module>.<function>"
LAYERS = (
    ("separation", "delta_tilde"),
    ("separation", "check_separation"),
    ("regions", "build_region_with_jitter"),
    ("regions", "build_region"),
    ("backends", "solve_quadrature"),
    ("backends", "build_rule"),
    ("sylvester", "inverse_norm_report"),
    ("sylvester", "build"),
    ("roots", "find_roots"),
    ("sylvester", "solve"),
    ("sylvester", "resultant"),
    ("backends", "solve_residue"),
    ("backends", "solve_reversed"),
    ("backends", "certify_main_bound"),
    ("ensemble", "random_polynomial"),
)
# Polynomial methods that are only counted: (attribute, metric prefix)
COUNTED = (("__call__", "poly.eval"), ("normalize", "poly.normalize"))
ROOT = "cli"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    pair: int
    start: float
    end: float = 0.0
    error: bool = False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        # counted-only names -> [calls, points]
        self.tallies: dict[str, list[int]] = {}
        self.nodes = 0
        self.pair = 0
        self.missing: list[str] = []
        self.bindings: dict[str, int] = {}
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.pair, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def exit(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _timed(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(span, error=True)
                raise
            self.exit(span)
            if count is not None:
                count(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; names that no longer exist go to ``missing``."""
        for mod_name, _ in LAYERS:
            importlib.import_module(f"bezmin.{mod_name}")
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if name == "bezmin" or name.startswith("bezmin.")
        ]
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules[f"bezmin.{mod_name}"], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            count = self._count_nodes if name == "backends.build_rule" else None
            wrapper = self._timed(name, original, count)
            n = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)
                        n += 1
            self.bindings[name] = n

        poly_cls = getattr(sys.modules["bezmin.poly"], "Polynomial", None)
        for attr, name in COUNTED:
            original = poly_cls and poly_cls.__dict__.get(attr)
            if original is None:
                self.missing.append(name)
                continue
            self._undo.append((poly_cls, attr, original))
            setattr(poly_cls, attr, self._counted(name, original))
            self.bindings[name] = 1

    def uninstall(self) -> None:
        while self._undo:
            ns, key, value = self._undo.pop()
            setattr(ns, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _counted(self, name: str, fn):
        # plain list cells: this wrapper runs ~20,000 times per certify pair
        tally = self.tallies.setdefault(name, [0, 0])
        if name == "poly.eval":
            ndarray = np.ndarray

            @functools.wraps(fn)
            def evaluate(self_, z):
                tally[0] += 1
                tally[1] += z.size if type(z) is ndarray else 1
                return fn(self_, z)

            return evaluate

        @functools.wraps(fn)
        def method(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return method

    def _count_nodes(self, rule) -> None:
        self.nodes += len(rule.nodes)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, pairs: int) -> dict[str, float]:
        """Per-pair stats per layer; layers never called read 0, layers that
        no longer exist are left out (see ``missing``)."""
        selfs = self_times(self.spans)
        agg: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0])
        for s in self.spans:
            a = agg[s.name]
            a[0] += selfs[s.id]
            a[1] += 1
            a[2] += s.error
        per = 1.0 / max(pairs, 1)
        out: dict[str, float] = {}
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            if name in self.missing:
                continue
            self_s, calls, errors = agg.get(name, (0.0, 0, 0))
            out[f"{name}.self_us_per_pair"] = self_s * 1e6 * per
            out[f"{name}.calls_per_pair"] = calls * per
            out[f"{name}.errors_per_pair"] = errors * per
        out[f"{ROOT}.self_us_per_pair"] = agg.get(ROOT, (0.0,))[0] * 1e6 * per
        for name, (calls, points) in self.tallies.items():
            out[f"{name}.calls_per_pair"] = calls * per
            if name == "poly.eval":
                out[f"{name}.points_per_pair"] = points * per
        if "backends.build_rule" not in self.missing:
            out["backends.build_rule.nodes_per_pair"] = self.nodes * per
        if not {"regions.build_region", "regions.build_region_with_jitter"} & set(
            self.missing
        ):
            out["regions.jitter_retries_per_pair"] = (
                out["regions.build_region.calls_per_pair"]
                - out["regions.build_region_with_jitter.calls_per_pair"]
            )
        return out
