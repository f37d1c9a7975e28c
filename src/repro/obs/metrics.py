"""A unified metrics registry: counters, gauges, fixed-bucket histograms.

Every subsystem that previously kept private ad-hoc counters registers
into a :class:`MetricsRegistry` instead, and the registry renders straight
into the Prometheus text exposition the serving runtime already exposes
(``repro.serve.promexp.render_prometheus(*registries)``):

* the engine counts kernel dispatches per kernel
  (``repro_engine_kernel_dispatch_total{kernel=...}``),
* the sweep cache counts hits / misses per kind
  (``repro_sweep_cache_events_total{kind=...,outcome=...}``),
* the shared-memory arena counts segment creates / attaches
  (``repro_shm_arena_events_total{mode=...}``),
* ``ServeMetrics`` keeps every serving counter, gauge and histogram in
  its own private registry (one per runtime) and computes its snapshots
  from them.

Histograms use **fixed bucket boundaries** (cumulative ``le`` counts plus
exact ``sum`` / ``count``, exactly the Prometheus model).  Quantiles are
estimated by linear interpolation inside the winning bucket, clamped to
the observed min/max — monotone in the quantile by construction (so
p50 ≤ p95 ≤ p99 always holds) and exact for the mean.

The process-wide default registry is :data:`REGISTRY`; subsystem counters
attach to it at import time so the families exist (with or without
samples) on every ``/metrics`` scrape.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default histogram bounds for host-side latencies (seconds).  Spans the
#: serving path's realistic range — 100 µs micro-batches to multi-second
#: cold outliers — with roughly-logarithmic spacing; the implicit +Inf
#: bucket catches the rest.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Collector:
    """Shared name/help/type plumbing of the three collector kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()


class Counter(_Collector):
    """A monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            return [(dict(key), value) for key, value in self._values.items()]


class Gauge(_Collector):
    """A value that can go up and down, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            return [(dict(key), value) for key, value in self._values.items()]


class Histogram(_Collector):
    """A fixed-bucket histogram (cumulative ``le`` counts + sum + count).

    Args:
        name: Family name (conventionally ``*_seconds`` for latencies).
        help: One-line description.
        buckets: Strictly increasing finite upper bounds; the ``+Inf``
            bucket is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # Bisect is overkill for <=20 bounds; linear scan keeps this cheap.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def max(self) -> float:
        """The largest observed value (0.0 before the first observation)."""
        with self._lock:
            return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the *q*-th percentile (0–100) from the buckets.

        Linear interpolation inside the winning bucket, clamped to the
        observed ``[min, max]``; the +Inf bucket interpolates toward the
        observed max.  Monotone in *q* by construction.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            counts = list(self._counts)
            lo, hi = self._min, self._max
        target = q / 100.0 * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            lower = 0.0 if index == 0 else self.buckets[index - 1]
            upper = self.buckets[index] if index < len(self.buckets) else hi
            if cumulative + count >= target:
                fraction = (target - cumulative) / count
                value = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return float(min(max(value, lo), hi))
            cumulative += count
        return float(hi)

    def samples(self) -> Dict[str, Any]:
        """The exposition view: cumulative bucket counts + sum + count."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append((repr(bound), running))
        cumulative.append(("+Inf", total_count))
        return {"buckets": cumulative, "sum": total_sum, "count": total_count}


class MetricsRegistry:
    """A get-or-create registry of named collectors.

    Re-registering an existing name returns the existing collector (so
    module-level counters survive repeated imports and multiple runtimes
    can share the process registry), but a kind mismatch raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: Dict[str, _Collector] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs: Any):
        with self._lock:
            existing = self._collectors.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            collector = cls(name, help, **kwargs)
            self._collectors[name] = collector
            return collector

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Collector]:
        with self._lock:
            return self._collectors.get(name)

    def collectors(self) -> List[_Collector]:
        with self._lock:
            return list(self._collectors.values())

    def render(self) -> List[str]:
        """Prometheus text-exposition lines for every collector."""
        lines: List[str] = []
        for collector in self.collectors():
            if collector.help:
                lines.append(f"# HELP {collector.name} {collector.help}")
            lines.append(f"# TYPE {collector.name} {collector.kind}")
            if isinstance(collector, Histogram):
                view = collector.samples()
                for le, value in view["buckets"]:
                    lines.append(
                        f'{collector.name}_bucket{{le="{le}"}} {value}'
                    )
                lines.append(f"{collector.name}_sum {_fmt(view['sum'])}")
                lines.append(f"{collector.name}_count {view['count']}")
            else:
                for labels, value in collector.samples():
                    if labels:
                        body = ",".join(
                            f'{k}="{_escape(v)}"'
                            for k, v in sorted(labels.items())
                        )
                        lines.append(f"{collector.name}{{{body}}} {_fmt(value)}")
                    else:
                        lines.append(f"{collector.name} {_fmt(value)}")
        return lines


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: The process-wide default registry (engine / sweep / shm counters).
REGISTRY = MetricsRegistry()
