"""Spans around the benchmark's calls into ordmatch's layers.

The benchmark reaches every layer through a `Layers` object.  Untraced, its
attributes are the ordmatch modules themselves, so calls cost nothing extra
and no span is taken.  Traced, each public function is wrapped so that a call
records one span (name, start, end, parent span, op id).  Spans stay in memory
until the run ends.  Nothing under `src/` is changed; the only spans are the
benchmark's own call sites, plus the calls `ordmatch.cli` makes into the
other modules during a traced `reproduce` op.
"""
from __future__ import annotations

import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType

from ordmatch import cli, core, distortion, generators, mechanisms, thin
from ordmatch.core import Metric

_LAYER_MODULES = {m.__name__ for m in (core, generators, mechanisms, distortion, thin)}

# Public functions whose layer is not simply their module.  Anything else in
# `mechanisms` is a matching mechanism, anything else in `thin` is cut/cycle
# bookkeeping.
_LAYER_OF = {
    "core.cost": "core.cost",
    "core.fractional_cost": "core.cost",
    "distortion.adversarial_distortion": "distortion.oracle",
    "distortion.adversarial_distortion_fractional": "distortion.oracle",
    "distortion.min_cost_matching": "distortion.min_cost_matching",
    "distortion.expected_distortion_known_metric": "distortion.expected",
    "distortion.sample_consistent_metric": "distortion.sample",
    "mechanisms.exact_rsd_marginals": "mechanisms.marginals",
    "mechanisms.monte_carlo_marginals": "mechanisms.marginals",
    "mechanisms.serializability_check": "mechanisms.serializability",
    "thin.hall_round": "thin.hall_round",
    "thin.bvn_decompose": "thin.bvn",
    "thin.thinness": "thin.thinness",
    "thin.thin_search": "thin.thin_search",
}
_MODULE_LAYER = {
    "core": "core.other",
    "generators": "generators",
    "mechanisms": "mechanisms.match",
    "distortion": "distortion.other",
    "thin": "thin.other",
}

# Counters read off a layer's result, where the work happens: name, f(result).
_RESULT_COUNTS = {
    "distortion.oracle": ("distortion.oracle.infinite", lambda rep: int(rep.value == math.inf)),
    "thin.bvn": ("thin.bvn.terms", lambda dec: len(dec.terms)),
}

# Layers reported by a traced run, in report order.
LAYERS = (
    "distortion.oracle",
    "distortion.min_cost_matching",
    "distortion.expected",
    "distortion.sample",
    "core.check_triangle",
    "core.cost",
    "generators",
    "mechanisms.match",
    "mechanisms.marginals",
    "mechanisms.serializability",
    "thin.hall_round",
    "thin.bvn",
    "thin.thinness",
    "thin.thin_search",
    "thin.other",
    "cli.main",
)


def layer_of(fn) -> str:
    short = fn.__module__.rsplit(".", 1)[-1]
    return _LAYER_OF.get(f"{short}.{fn.__name__}", _MODULE_LAYER.get(short, short))


class Tracer:
    """In-memory span store for one traced run (single-threaded).

    Spans open only directly under an op or under `cli.main`: a call that a
    layer makes back into a layer (a mechanism callback run by
    `serializability_check`, say) is part of the enclosing layer's span.
    """

    ROOTS = ("op", "cli.main")

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[tuple[int, str]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((idx, name))
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.counts[f"{name}.errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        count = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            if self._open and self._open[-1][1] not in self.ROOTS:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        traced.__name__ = fn.__name__
        return traced

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Busy time, self time and call count per span name.

        Self time is a span's duration minus the part its child spans cover
        (children of one span never overlap: the program is single-threaded).
        """
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[idx]
        return busy, own, calls


class _TracedModule:
    """A module whose public functions record a span per call."""

    def __init__(self, module: ModuleType, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if inspect.isfunction(value) and not attr.startswith("_"):
            value = self._tracer.wrap(layer_of(value), value)
        setattr(self, attr, value)
        return value


class Layers:
    """The benchmark's handle on ordmatch: modules, or span-taking proxies."""

    def __init__(self, tracer: Tracer | None = None):
        for module in (core, generators, mechanisms, distortion, thin):
            name = module.__name__.rsplit(".", 1)[-1]
            setattr(self, name, module if tracer is None else _TracedModule(module, tracer))
        self.check_triangle = Metric.check_triangle
        self.cli_main = cli.main
        if tracer is not None:
            self.check_triangle = tracer.wrap("core.check_triangle", Metric.check_triangle)
            self.cli_main = tracer.wrap("cli.main", self._traced_cli_main)
            # the names cli uses for the other layers, and their traced stand-ins
            self._cli_swaps = {}
            for name, value in vars(cli).items():
                if isinstance(value, ModuleType) and value.__name__ in _LAYER_MODULES:
                    self._cli_swaps[name] = _TracedModule(value, tracer)
                elif inspect.isfunction(value) and value.__module__ in _LAYER_MODULES:
                    self._cli_swaps[name] = tracer.wrap(layer_of(value), value)

    def _traced_cli_main(self, argv):
        """`cli.main` with cli's names for the other layers swapped for their
        traced stand-ins for the duration of the call."""
        saved = {name: getattr(cli, name) for name in self._cli_swaps}
        try:
            for name, value in self._cli_swaps.items():
                setattr(cli, name, value)
            return cli.main(argv)
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)
