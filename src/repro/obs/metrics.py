"""Process-wide metrics registry: counters, gauges, streaming histograms.

Every metric is identified by a dotted name plus an optional set of
string labels (``counter("pathfinder.conflicts", circuit="c432")``).
Lookups are memoized, so the idiomatic pattern for hot code is to
resolve the metric object once and call ``inc()``/``observe()`` on the
plain Python object -- an attribute update, no dictionary traffic.

Counters are monotone accumulators (ints or floats), gauges hold the
last value set, and histograms keep streaming summaries (count, sum,
min, max) plus power-of-two magnitude buckets from which approximate
percentiles are read back.  ``snapshot()`` flattens the whole registry
into a JSON-serializable dict keyed ``name`` or ``name{k=v,...}``.

A single process-wide default registry lives at :data:`REGISTRY`; the
module-level ``counter``/``gauge``/``histogram``/``snapshot``/``reset``
helpers operate on it.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]

#: (name, sorted label items) -> metric instance key.
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_key(name: str, labels: Dict[str, str]) -> str:
    """Human/JSON form: ``name`` or ``name{k=v,k2=v2}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in _labels_key(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing accumulator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def as_value(self) -> Number:
        return self.value


class Gauge:
    """Holds the most recently set value.

    ``version`` counts writes: the telemetry shipper uses it to tell a
    gauge this process actually touched from one inherited untouched
    across a ``fork`` (the value alone cannot distinguish the two).
    """

    __slots__ = ("name", "labels", "value", "version")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: Number = 0
        self.version: int = 0

    def set(self, value: Number) -> None:
        self.value = value
        self.version += 1

    def inc(self, amount: Number = 1) -> None:
        self.value += amount
        self.version += 1

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount
        self.version += 1

    def as_value(self) -> Number:
        return self.value


class Histogram:
    """Streaming summary of observed values.

    Exact count/sum/min/max; approximate percentiles from power-of-two
    magnitude buckets (each observation lands in the bucket of its
    binary exponent, so relative bucket error is bounded by 2x -- ample
    for timing breakdowns spanning orders of magnitude).
    """

    __slots__ = ("name", "labels", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        #: binary exponent -> observation count (exponent None for <= 0).
        self.buckets: Dict[Optional[int], int] = {}

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        exponent = math.frexp(value)[1] if value > 0.0 else None
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0..100) by fixed-bucket linear
        interpolation: the rank's position *within* its power-of-two
        bucket interpolates between the bucket edges, clamped to the
        exactly-tracked ``[vmin, vmax]``."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * q / 100.0))
        seen = 0
        ordered = sorted(
            self.buckets.items(), key=lambda kv: -math.inf if kv[0] is None else kv[0]
        )
        for exponent, n in ordered:
            if seen + n >= rank:
                if exponent is None:
                    lower, upper = min(self.vmin, 0.0), 0.0
                else:
                    # frexp puts v in [2^(e-1), 2^e).
                    lower = math.ldexp(1.0, exponent - 1)
                    upper = math.ldexp(1.0, exponent)
                # Clamp the interpolation edges to the exactly-tracked
                # extremes before interpolating: every observation in
                # this bucket lies inside [vmin, vmax], so the full
                # power-of-two span would otherwise place the estimate
                # outside any observed value (e.g. p99 above the true
                # maximum).  The interval stays non-empty because the
                # bucket holds at least one observation.
                lower = max(lower, self.vmin)
                upper = min(upper, self.vmax)
                fraction = (rank - seen) / n
                estimate = lower + fraction * (upper - lower)
                return min(self.vmax, max(self.vmin, estimate))
            seen += n
        return self.vmax

    def as_value(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p95": 0.0,
                    "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- cross-process shipping (repro.obs.aggregate) ------------------
    def state(self) -> Dict[str, object]:
        """Picklable/JSON-safe internal state for shard shipping."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": {
                "none" if exponent is None else str(exponent): n
                for exponent, n in self.buckets.items()
            },
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`state` into this one; bucket
        counts add exactly, so merged percentiles equal what one
        process observing both streams would report."""
        count = int(state["count"])
        if not count:
            return
        self.count += count
        self.total += float(state["total"])
        self.vmin = min(self.vmin, float(state["min"]))
        self.vmax = max(self.vmax, float(state["max"]))
        for key, n in state["buckets"].items():
            exponent = None if key == "none" else int(key)
            self.buckets[exponent] = self.buckets.get(exponent, 0) + int(n)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Registry of named metrics; creation is thread-safe and memoized.

    Updates on the returned metric objects are plain attribute writes
    (atomic enough under the GIL for counting); only registration takes
    the lock.
    """

    def __init__(self):
        self._metrics: Dict[_Key, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Dict[str, str]) -> Metric:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, dict(labels))
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {format_key(name, labels)} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-serializable view, sorted by key."""
        out: Dict[str, object] = {}
        for metric in self._metrics.values():
            out[format_key(metric.name, metric.labels)] = metric.as_value()
        return dict(sorted(out.items()))

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: The process-wide default registry.
REGISTRY = MetricsRegistry()

if hasattr(os, "register_at_fork"):
    # Pool workers fork from supervising threads: a registration lock
    # another thread held at that instant would stay held forever in
    # the child.
    os.register_at_fork(
        after_in_child=lambda: setattr(REGISTRY, "_lock", threading.Lock()))


def counter(name: str, **labels: str) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    return REGISTRY.histogram(name, **labels)


def snapshot() -> Dict[str, object]:
    return REGISTRY.snapshot()


def reset() -> None:
    REGISTRY.reset()
