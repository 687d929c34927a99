"""Shared pieces of the benchmark: repo location, host stamp, statistics,
the span tracer, and the result line.

The tracer records spans from *outside* the program: it replaces a public
function at the module attribute its callers import it from with a wrapper
that pushes a span (name, start, end, parent) on entry and pops it on exit.
The program itself carries no tracing code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import platform
import re
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space the benchmark and the system under test may write to.
RUN_DIR = os.path.join(ROOT, ".bench_run")

#: Metric names: a letter or digit first, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
METRIC_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def require_source() -> None:
    """Exit non-zero (printing no result) when the program's source is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env() -> Dict[str, str]:
    """Environment for processes of the system under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # The pipeline's config knobs are fixed by the workload, never inherited.
    for key in ("REPRO_FULL", "REPRO_SCALE", "REPRO_INPUT", "REPRO_NO_VERIFY",
                "REPRO_NO_STATS"):
        env.pop(key, None)
    # Grid workers listen on unix sockets under TMPDIR; keep them inside the
    # checkout unless its path would push a socket past the 107-byte limit.
    if len(RUN_DIR) <= 67:
        os.makedirs(RUN_DIR, exist_ok=True)
        env["TMPDIR"] = RUN_DIR
    return env


def host_stamp() -> Dict[str, Any]:
    """Host class of a result: numbers from different classes never compare."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``nan`` when empty.

    ``inf`` entries (missed requests) sort last and propagate.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    frac = rank - low
    if frac == 0 or ordered[low + 1] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- tracing --------------------------------------------------------------------


class Span:
    __slots__ = ("name", "parent", "start", "end", "children_s")

    def __init__(self, name: str, parent: Optional["Span"], start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Single-threaded span recorder with parent links and counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the ``with`` body, child of the open one."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            if parent is not None:
                parent.children_s += span.duration
            self.spans.append(span)

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable[[Tuple, Dict, Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(args, kwargs, result)`` may add counts after each call.
        Wrapping the same function at every module that imports it gives one
        span name for all of its callers.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a direct one, on this host now."""

    class Holder:
        @staticmethod
        def noop() -> None:
            return None

    tracer = Tracer()
    direct = Holder.noop
    began = time.perf_counter()
    for _ in range(calls):
        direct()
    plain = time.perf_counter() - began
    tracer.wrap(Holder, "noop", "calibrate")
    wrapped = Holder.noop
    began = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - began
    return max(0.0, traced - plain) / calls


# -- result line ----------------------------------------------------------------


class Metrics:
    """Ordered ``name -> (value, unit)`` with name and value checks."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        if not METRIC_NAME.match(name) or not METRIC_UNIT.match(unit):
            raise ValueError(f"bad metric name or unit: {name!r} {unit!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = (value, unit)

    def to_json(self) -> Dict[str, Dict[str, Any]]:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in self.values.items()}


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Metrics, host: Dict[str, Any]) -> None:
    """Print the diagnostic host stamp, then the result as the last line."""
    print(json.dumps({"host": host}), flush=True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics.to_json(),
    }), flush=True)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
