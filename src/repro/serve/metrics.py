"""Thread-safe serving metrics: a thin wrapper over one metrics registry.

:class:`ServeMetrics` is the runtime's accumulator — every submit, reject,
dispatch, and completion records into the instruments of its private
:class:`~repro.obs.metrics.MetricsRegistry` (one per runtime, so two
runtimes in one process never mix their numbers) — and
:meth:`ServeMetrics.snapshot` computes a consistent
:class:`MetricsSnapshot` from those same instruments at any moment,
including mid-load.  ``/metrics`` renders the registry verbatim, so a
snapshot and a scrape can never disagree.

The snapshot carries the numbers a serving operator actually watches:
p50/p95/p99 latency, request throughput, queue depth, batch occupancy,
and the accounting identity (submitted = completed + in-flight, with
rejected counted separately — a rejected request is never "submitted")
the test suite asserts.  Counters and means (histogram sum / count) are
exact for the runtime's whole lifetime; percentiles interpolate inside
the fixed buckets (see :meth:`~repro.obs.metrics.Histogram.percentile`).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["MetricsSnapshot", "ServeMetrics"]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent view of the serving counters and distributions.

    Attributes:
        submitted: Requests accepted into the queue.
        rejected: Requests refused by the ``"reject"`` backpressure policy.
        completed: Requests whose response futures have resolved.
        in_flight: Accepted requests not yet completed.
        batches: Micro-batches dispatched.
        throughput_rps: Completed requests per second of serving wall time
            (first accepted arrival to last completion).
        latency_p50_s / latency_p95_s / latency_p99_s / latency_mean_s:
            Total per-request latency (arrival to response) percentiles.
        queue_wait_mean_s: Mean time requests spent queued before dispatch.
        service_mean_s: Mean host service time of a micro-batch.
        batch_size_mean: Mean micro-batch size.
        batch_occupancy_mean: Mean batch size over ``max_batch`` (how full
            the batches the scheduler formed actually were).
        queue_depth_max / queue_depth_mean: Queue depth sampled at every
            accepted submit.
    """

    submitted: int
    rejected: int
    completed: int
    in_flight: int
    batches: int
    throughput_rps: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    queue_wait_mean_s: float
    service_mean_s: float
    batch_size_mean: float
    batch_occupancy_mean: float
    queue_depth_max: int
    queue_depth_mean: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the ``BENCH_serve.json`` per-point shape)."""
        return asdict(self)


def _count_bounds(limit: int) -> Tuple[int, ...]:
    """Histogram bounds for a count in ``[0, limit]``: 0, powers of 2, limit."""
    return tuple(sorted({0, limit, *(1 << k for k in range(limit.bit_length()))}))


class ServeMetrics:
    """Accumulates serving events; every method is thread-safe.

    Args:
        max_batch: The scheduler's batch cap — denominator of the
            occupancy metric and top bucket of the batch-size histogram.
        queue_depth: The request-queue bound — top bucket of the
            queue-depth histogram.
    """

    def __init__(self, max_batch: int, queue_depth: int) -> None:
        self.max_batch = int(max_batch)
        # One lock around every record and the snapshot, so a snapshot
        # never sees a request counted as submitted but not in flight.
        self._lock = threading.Lock()
        self._first_arrival: Optional[float] = None
        self._last_completion: Optional[float] = None
        self.registry = registry = MetricsRegistry()
        self._submitted = registry.counter(
            "repro_serve_requests_submitted_total",
            "Requests accepted into the queue.",
        )
        self._rejected = registry.counter(
            "repro_serve_requests_rejected_total",
            "Requests refused by the backpressure policy.",
        )
        self._completed = registry.counter(
            "repro_serve_requests_completed_total",
            "Requests served to completion.",
        )
        self._batches = registry.counter(
            "repro_serve_batches_total",
            "Micro-batches dispatched to the replica pool.",
        )
        self._in_flight = registry.gauge(
            "repro_serve_requests_in_flight",
            "Requests admitted but not yet completed.",
        )
        # Scrapes show every counter and the gauge from the start, at 0.
        for counter in (
            self._submitted, self._rejected, self._completed, self._batches
        ):
            counter.inc(0)
        self._in_flight.set(0)
        self._latency = registry.histogram(
            "repro_serve_latency_seconds",
            "Per-request latency (arrival to response)",
        )
        self._queue_wait = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time requests spent queued before dispatch",
        )
        self._service = registry.histogram(
            "repro_serve_service_seconds",
            "Host service time of a micro-batch",
        )
        self._batch_size = registry.histogram(
            "repro_serve_batch_size",
            "Requests per dispatched micro-batch",
            buckets=_count_bounds(self.max_batch),
        )
        self._queue_depth = registry.histogram(
            "repro_serve_queue_depth",
            "Request-queue depth sampled at every accepted submit",
            buckets=_count_bounds(int(queue_depth)),
        )

    # -------------------------------------------------------------- recording

    def record_submitted(self, queue_depth: int, arrival_s: float) -> None:
        """One request accepted into the queue (depth sampled after the put)."""
        with self._lock:
            self._submitted.inc()
            self._in_flight.inc()
            self._queue_depth.observe(queue_depth)
            if self._first_arrival is None or arrival_s < self._first_arrival:
                self._first_arrival = arrival_s

    def record_rejected(self) -> None:
        """One request refused by the backpressure policy."""
        with self._lock:
            self._rejected.inc()

    def record_batch(self, size: int, service_s: float) -> None:
        """One micro-batch completed on a replica."""
        with self._lock:
            self._batches.inc()
            self._batch_size.observe(size)
            self._service.observe(service_s)

    def record_response(
        self, latency_s: float, queue_wait_s: float, completion_s: float
    ) -> None:
        """One request's response resolved."""
        with self._lock:
            self._completed.inc()
            self._in_flight.dec()
            self._latency.observe(latency_s)
            self._queue_wait.observe(queue_wait_s)
            if (
                self._last_completion is None
                or completion_s > self._last_completion
            ):
                self._last_completion = completion_s

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> MetricsSnapshot:
        """Freeze a consistent view of everything recorded so far."""
        with self._lock:
            completed = int(self._completed.value())
            wall = 0.0
            if self._first_arrival is not None and self._last_completion is not None:
                wall = max(0.0, self._last_completion - self._first_arrival)
            batch_mean = self._batch_size.mean()
            return MetricsSnapshot(
                submitted=int(self._submitted.value()),
                rejected=int(self._rejected.value()),
                completed=completed,
                in_flight=int(self._in_flight.value()),
                batches=int(self._batches.value()),
                throughput_rps=completed / wall if wall > 0 else 0.0,
                latency_p50_s=self._latency.percentile(50),
                latency_p95_s=self._latency.percentile(95),
                latency_p99_s=self._latency.percentile(99),
                latency_mean_s=self._latency.mean(),
                queue_wait_mean_s=self._queue_wait.mean(),
                service_mean_s=self._service.mean(),
                batch_size_mean=batch_mean,
                batch_occupancy_mean=(
                    batch_mean / self.max_batch if self.max_batch > 0 else 0.0
                ),
                queue_depth_max=int(self._queue_depth.max()),
                queue_depth_mean=self._queue_depth.mean(),
            )
