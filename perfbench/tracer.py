"""Spans around the public functions of each turnwalk module, recorded from outside.

``Tracer.install()`` wraps every function named in a module's ``__all__``,
the statistics helpers of ``verify``, each ``Schedule`` subclass's
``prefix_probs`` and ``cli.run``, and rebinds every module-level name that
refers to the original, so calls between modules pass through the wrapper.
``uninstall()`` restores the originals.  Spans are kept in memory as
``[name, start, end, parent, op_id, work]``; ``work`` is the count a layer
metric needs (path steps, table elements, statistic inputs, DP cells).
"""

from __future__ import annotations

import functools
import inspect
import math
import time

import turnwalk
from turnwalk import analytics, cli, oracle, schedule, verify, walk, zigzag

MODULES = {"analytics": analytics, "oracle": oracle, "schedule": schedule,
           "verify": verify, "walk": walk, "zigzag": zigzag}
STATS = ("ks_one_sample_normal", "ks_two_sample", "ks_critical", "poisson_gof")
# layers reported under their own span name; other spans go to their module
NAMED = ("walk.sample_positions", "walk.sample_visit_stats", "oracle.exact_distribution")
REPORTED_MODULES = ("verify", "zigzag", "analytics", "cli")


def _args(fn, *names):
    """Reads the named arguments of a call to ``fn`` from (args, kwargs)."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return [bound[name] for name in names]
    return read


def _dp_cells(d: int, n: int) -> int:
    """Size of the exact DP's mass array: 2d directions over the box [-n, n]^d."""
    return 2 * d * (2 * n + 1) ** d


def _work_counters() -> dict:
    positions = _args(walk.sample_positions, "samples", "n")
    visits = _args(walk.sample_visit_stats, "samples", "n")
    exact = _args(oracle.exact_distribution, "d", "n")
    return {
        "walk.sample_positions": lambda a, k: math.prod(positions(a, k)),
        "walk.sample_visit_stats": lambda a, k: math.prod(visits(a, k)),
        "oracle.exact_distribution": lambda a, k: _dp_cells(*exact(a, k)),
        "schedule.prefix_probs": lambda a, k: int(a[1] if len(a) > 1 else k["n"]),
        "verify.ks_one_sample_normal": lambda a, k: len(a[0]),
        "verify.ks_two_sample": lambda a, k: len(a[0]) + len(a[1]),
        "verify.poisson_gof": lambda a, k: len(a[0]),
    }


def layer_of(name: str) -> str:
    """The per-layer metric prefix a span's self time is reported under."""
    if name.endswith(".prefix_probs"):
        return "schedule.prefix_probs"
    if name in NAMED:
        return name
    module, _, func = name.partition(".")
    if module == "verify" and func in STATS:
        return "verify.stats"
    return module if module in REPORTED_MODULES else "other"


def _targets() -> list:
    """(span name, original function) for every wrapped module function."""
    out = [("cli.run", cli.run)]
    for short, module in MODULES.items():
        names = list(module.__all__) + (list(STATS) if module is verify else [])
        out += [(f"{short}.{n}", getattr(module, n)) for n in names
                if inspect.isfunction(getattr(module, n))]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, work=None):
        """``fn`` recording a span called ``name`` around each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op_id, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if work is not None:
                    span[5] = work(args, kwargs)
        return traced

    def install(self) -> None:
        work = _work_counters()
        namespaces = [turnwalk, cli, *MODULES.values()]
        for name, fn in _targets():
            wrapped = self.wrap(name, fn, work.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._restore.append((ns, attr, fn))
                        setattr(ns, attr, wrapped)
        for cls in schedule.Schedule.__subclasses__():
            fn = cls.__dict__["prefix_probs"]
            self._restore.append((cls, "prefix_probs", fn))
            setattr(cls, "prefix_probs",
                    self.wrap(f"schedule.{cls.__name__}.prefix_probs", fn,
                               work["schedule.prefix_probs"]))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def layer_totals(spans: list, lo: int, hi: int) -> dict:
    """Per layer: calls, self time and work of the closed spans[lo:hi].

    A span's self time is its duration minus its children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _work in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i in range(lo, hi):
        name, start, end, _parent, _op, work = spans[i]
        acc = totals.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0, "work": 0})
        acc["calls"] += 1
        acc["self_s"] += (end - start) - child_time[i]
        acc["work"] += work
    return totals
