"""Cross-process telemetry shipping: shard snapshots in, one registry out.

The supervised worker pool (:mod:`repro.resilience.workers`) runs
``--jobs N`` shards and served requests in worker processes,
each with its *own* process-wide metrics registry and span tree.
Without shipping, everything those workers record -- counters,
histograms, labeled copies, span aggregates -- dies with the pool, and
a ``--jobs N`` run under-reports ``pathfinder.extensions_tried`` by
roughly ``(N-1)/N``.  This module closes that gap:

* **Worker side** -- a per-process :class:`RegistryShipper` snapshots
  the registry and the flat span aggregates at shard completion and
  returns only the *delta* since the previous shipment (workers are
  long-lived and serve many shards; shipping absolutes would double
  count).  The delta rides back piggybacked on the shard-result
  payload as a :class:`ShardTelemetry` -- plain picklable data.
* **Parent side** -- :func:`merge_shard_telemetry` folds a shipment
  into the parent registry: counters increment by the shipped delta,
  histograms merge bucket-exactly, span aggregates fold into
  :func:`repro.obs.tracing.aggregates`, and timeline events feed the
  trace-event collector (:mod:`repro.obs.export`) on the worker's
  lane.  Gauges are point-in-time per process, so they merge under a
  ``shard=<origin>`` label instead of being summed.

Merging is deterministic: the supervisor merges shipments one at a
time on its own thread, and every fold is commutative addition, so a
``--jobs N`` snapshot equals a serial one (modulo timing fields) no
matter the completion, retry, or fallback order.

:func:`record_resource_usage` stamps ``run.peak_rss_bytes`` and
``run.cpu_seconds`` gauges (self + children, via
``resource.getrusage``) so every analysis snapshot carries its
resource footprint -- per shard under parallel runs, via the same
gauge-labeling rule.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
)

try:  # pragma: no cover - always present on POSIX, absent on Windows
    import resource
except ImportError:  # pragma: no cover
    resource = None


@dataclass
class ShardTelemetry:
    """One shard's registry/span delta, shipped parent-ward.

    Plain data only (pickles through the worker pipe and serializes
    into checkpoints if ever needed).
    """

    origin: str
    pid: int
    #: Metric deltas: ``(kind, name, sorted label items, payload)``.
    #: Counters/gauges carry a number payload; histograms carry their
    #: :meth:`~repro.obs.metrics.Histogram.state` dict.
    metrics: List[Tuple[str, str, Tuple[Tuple[str, str], ...], object]] = \
        field(default_factory=list)
    #: Flat span-aggregate deltas (``name -> {count, total_s}``).
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Wall-clock timeline events ``(name, start_epoch_s, dur_s,
    #: depth)`` -- empty unless trace capture is on.
    events: List[Tuple[str, float, float, int]] = field(default_factory=list)


class RegistryShipper:
    """Worker-side delta tracker over the process registry.

    Successive :meth:`collect` calls return only what changed since the
    previous call, so a worker that runs many shards ships each unit of
    work exactly once.  Histogram deltas are reconstructed from bucket
    count differences, which is exact; the min/max shipped are the
    worker's running extremes, whose merge (min-of-mins, max-of-maxes)
    is still the true global extreme.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else \
            obs_metrics.REGISTRY
        self._counters: Dict[str, float] = {}
        self._hists: Dict[str, Dict] = {}
        self._gauges: Dict[str, int] = {}
        self._spans: Dict[str, Dict[str, float]] = {}

    def collect(self, origin: str) -> ShardTelemetry:
        telemetry = ShardTelemetry(origin=origin, pid=os.getpid())
        for metric in self.registry.metrics():
            key = format_key(metric.name, metric.labels)
            labels = tuple(sorted(metric.labels.items()))
            if isinstance(metric, Counter):
                delta = metric.value - self._counters.get(key, 0)
                self._counters[key] = metric.value
                if delta:
                    telemetry.metrics.append(
                        ("counter", metric.name, labels, delta))
            elif isinstance(metric, Histogram):
                state = metric.state()
                delta = _hist_delta(self._hists.get(key), state)
                self._hists[key] = state
                if delta["count"]:
                    telemetry.metrics.append(
                        ("histogram", metric.name, labels, delta))
            elif isinstance(metric, Gauge):
                # Ship only gauges this worker actually touched since
                # the last shipment: a forked worker inherits the
                # parent's registry (including already-merged
                # ``shard=``-labeled gauges), and re-shipping those
                # untouched inheritances would pollute the merge.
                if metric.version != self._gauges.get(key):
                    telemetry.metrics.append(
                        ("gauge", metric.name, labels, metric.value))
                self._gauges[key] = metric.version
        for name, entry in tracing.aggregates().items():
            before = self._spans.get(name, {"count": 0, "total_s": 0.0})
            delta = {
                "count": entry["count"] - before["count"],
                "total_s": entry["total_s"] - before["total_s"],
            }
            self._spans[name] = {"count": entry["count"],
                                 "total_s": entry["total_s"]}
            if delta["count"]:
                telemetry.spans[name] = delta
        if tracing.events_enabled():
            telemetry.events = tracing.drain_events()
        return telemetry


def _hist_delta(before: Optional[Dict], after: Dict) -> Dict:
    """Bucket-exact difference of two histogram states."""
    if before is None:
        return dict(after)
    buckets = {}
    for key, n in after["buckets"].items():
        d = n - before["buckets"].get(key, 0)
        if d:
            buckets[key] = d
    return {
        "count": after["count"] - before["count"],
        "total": after["total"] - before["total"],
        # Window extremes are unknowable from running state; the
        # running extremes are safe to merge (see class docstring).
        "min": after["min"],
        "max": after["max"],
        "buckets": buckets,
    }


def merge_shard_telemetry(
    telemetry: ShardTelemetry,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold one shipped shard delta into this process's registry, span
    aggregates, and (when enabled) the trace-event collector."""
    registry = registry if registry is not None else obs_metrics.REGISTRY
    for kind, name, label_items, payload in telemetry.metrics:
        labels = dict(label_items)
        if kind == "counter":
            registry.counter(name, **labels).inc(payload)
        elif kind == "histogram":
            registry.histogram(name, **labels).merge_state(payload)
        elif kind == "gauge":
            # Gauges are point-in-time per process: a sum or last-set
            # would misreport, so shard gauges keep their origin label
            # (overriding any shard label inherited across a fork).
            labels["shard"] = telemetry.origin
            registry.gauge(name, **labels).set(payload)
    if telemetry.spans:
        tracing.merge_aggregates(telemetry.spans)
    if telemetry.events:
        from repro.obs import export

        export.ingest_span_events(telemetry.events, pid=telemetry.pid)


def record_resource_usage(
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Stamp ``run.peak_rss_bytes`` / ``run.cpu_seconds`` gauges for
    this process (self + reaped children) and return the values."""
    registry = registry if registry is not None else obs_metrics.REGISTRY
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return {}
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    peak_rss = max(own.ru_maxrss, kids.ru_maxrss) * scale
    cpu = (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)
    registry.gauge("run.peak_rss_bytes").set(peak_rss)
    registry.gauge("run.cpu_seconds").set(cpu)
    return {"run.peak_rss_bytes": peak_rss, "run.cpu_seconds": cpu}
