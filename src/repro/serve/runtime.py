"""The always-on serving runtime: queue → micro-batcher → warm chip pool.

:class:`ServeRuntime` is the online counterpart of the offline
:class:`~repro.chipsim.ChipSimulator` entry points.  It programs the
scenario's chip **once** (a :class:`~repro.serve.program.ChipProgram`),
stamps out ``replicas`` warm copies, and then serves individually
submitted requests through a dynamic micro-batching scheduler:

1. :meth:`submit` validates a request, stamps its arrival time, and puts
   it on a bounded FIFO queue — blocking or rejecting per the configured
   backpressure policy when the queue is full;
2. the dispatcher thread waits for a *free* replica (in-flight batches are
   capped at the replica count), then lets the
   :class:`~repro.serve.batcher.MicroBatcher` coalesce queued requests —
   up to ``max_batch``, waiting at most ``max_wait_s`` — preserving
   arrival order;
3. the batch runs on the free replica as **one** engine call (this is the
   throughput lever: the fused kernel amortises its fixed per-call cost
   over the whole batch);
4. results fan back out per request as :class:`InferenceResponse` futures
   carrying the prediction, the measured host latencies, and the modeled
   per-image chip latency / energy.

Determinism contract: the replicas' ADC references and activation scales
are pinned at program-build time, so per-request predictions are
``array_equal`` to one offline :meth:`ChipSimulator.run` over the same
inputs — for any replica count, any ``max_batch``, and any arrival timing.
``tests/serve`` enforces this on both backends.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from ..obs.tracer import get_tracer, now
from .batcher import CLOSE, MicroBatcher
from .config import ServeConfig
from .events import NullEventLog, open_event_log
from .metrics import MetricsSnapshot, ServeMetrics
from .program import ChipProgram
from .promexp import MetricsServer, render_prometheus
from .worker import WorkerPool

__all__ = [
    "InferenceRequest",
    "InferenceResponse",
    "QueueFullError",
    "ServeRuntime",
]


class QueueFullError(RuntimeError):
    """Raised by :meth:`ServeRuntime.submit` under the ``"reject"`` policy."""


@dataclass
class InferenceRequest:
    """One queued request (internal envelope around a submitted image).

    ``arrival_s`` is on the tracer clock (:func:`repro.obs.tracer.now`),
    like every serving timestamp.  ``trace_ctx`` is the request span's
    pre-minted ``(trace_id, span_id)`` (None when tracing is off); the
    span itself is recorded at completion, once its duration is known.
    """

    request_id: int
    image: np.ndarray
    arrival_s: float
    future: Future = field(repr=False)
    trace_ctx: Optional[tuple] = None


@dataclass(frozen=True)
class InferenceResponse:
    """The per-request serving result.

    Attributes:
        request_id: The id :meth:`ServeRuntime.submit` assigned.
        prediction: Predicted class index.
        batch_size: Occupancy of the micro-batch the request rode in.
        queue_wait_s: Measured host time from arrival to dispatch.
        service_s: Measured host service time of the whole micro-batch.
        latency_s: Measured host time from arrival to response.
        chip_latency_s: Modeled chip latency of this image (constant for a
            fixed network / design point).
        chip_energy_j: Modeled chip energy of this image.
    """

    request_id: int
    prediction: int
    batch_size: int
    queue_wait_s: float
    service_s: float
    latency_s: float
    chip_latency_s: float
    chip_energy_j: float


class ServeRuntime:
    """Online inference over a pool of pre-programmed simulated chips.

    Args:
        config: The deployment configuration.
        program: Optional pre-built chip program; building one is the slow
            part of :meth:`start`, so callers standing up several runtimes
            of the same deployment (bench sweeps, tests) build once and
            share it.

    Use as a context manager::

        with ServeRuntime(ServeConfig(scenario="tiny_mlp")) as runtime:
            future = runtime.submit(image)
            response = future.result()
    """

    def __init__(
        self, config: ServeConfig, *, program: Optional[ChipProgram] = None
    ) -> None:
        self.config = config
        self.program = program
        self.metrics = ServeMetrics(config.max_batch, config.queue_depth)
        self.metrics.registry.gauge(
            "repro_serve_info", "Deployment identity labels."
        ).set(
            1,
            scenario=config.scenario,
            design=config.design,
            backend=config.backend,
            pool=config.pool,
        )
        #: The structured event sink (a no-op unless ``config.event_log``).
        self.events = NullEventLog()
        self._metrics_server: Optional[MetricsServer] = None
        self._queue: Optional[queue.Queue] = None
        self._pool: Optional[WorkerPool] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._slots: Optional[threading.Semaphore] = None
        self._started = False
        self._accepting = False
        self._next_id = 0
        # Serialises the accept-check + enqueue against stop()'s CLOSE, so a
        # request can never land on the queue behind the sentinel (where the
        # dispatcher would no longer see it and its future would never
        # resolve).
        self._accept_lock = threading.Lock()
        self._outstanding = 0
        self._done_cond = threading.Condition()
        # swap_program() support: the dispatcher submits batches under this
        # lock (never while a swap holds it), and the in-flight batch count
        # lets a swap wait for the old pool to go quiet.  A semaphore drain
        # would deadlock here — the dispatcher holds a slot while *blocked*
        # waiting for requests, so slots are not a quiescence signal.
        self._swap_lock = threading.Lock()
        self._inflight_batches = 0
        self._inflight_cond = threading.Condition(self._swap_lock)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "ServeRuntime":
        """Program the chip (if needed), warm the replicas, begin serving.

        When the config enables them, this also opens the JSONL event log
        and binds the ``/metrics`` endpoint on a daemon side thread (see
        :attr:`metrics_url`).
        """
        if self._started:
            raise RuntimeError("runtime is already started")
        self.events = open_event_log(
            self.config.event_log,
            max_bytes=self.config.event_log_max_bytes,
            backups=self.config.event_log_backups,
        )
        if self.program is None:
            self.program = ChipProgram.build(self.config)
        self._queue = queue.Queue(maxsize=self.config.queue_depth)
        self._pool = WorkerPool(self.program, self.config, events=self.events)
        self._pool.start()
        self._slots = threading.Semaphore(self.config.replicas)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._started = True
        self._accepting = True
        self._dispatcher.start()
        if self.config.metrics_port is not None:
            self._metrics_server = MetricsServer(
                self._render_metrics, port=self.config.metrics_port
            )
            self._metrics_server.start()
        self.events.emit(
            "runtime_start",
            scenario=self.config.scenario,
            design=self.config.design,
            replicas=self.config.replicas,
            pool=self.config.pool,
            metrics_url=self.metrics_url,
        )
        return self

    def stop(self) -> None:
        """Serve everything already queued, then release the pool (idempotent)."""
        if not self._started:
            return
        with self._accept_lock:
            if self._accepting:
                self._accepting = False
                assert self._queue is not None
                self._queue.put(CLOSE)
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        with self._done_cond:
            self._done_cond.wait_for(lambda: self._outstanding == 0, timeout=60.0)
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        self._started = False
        snapshot = self.metrics.snapshot()
        self.events.emit(
            "runtime_stop",
            submitted=snapshot.submitted,
            completed=snapshot.completed,
            rejected=snapshot.rejected,
            batches=snapshot.batches,
        )
        self.events.close()

    # ---------------------------------------------------------- observability

    def _render_metrics(self) -> str:
        """Fresh exposition text (called per ``/metrics`` scrape).

        The runtime's own registry, then the process-wide one (engine
        kernel dispatches, sweep cache hit/miss, shm arena events).
        """
        from ..obs.metrics import REGISTRY

        # Imported for the registration side effect: the sweep-cache family
        # must exist on every scrape even before any sweep code has run in
        # this process (the engine and shm families register when the
        # program machinery imports them).
        from ..sweep import cache as _sweep_cache  # noqa: F401

        return render_prometheus(self.metrics.registry, REGISTRY)

    @property
    def metrics_address(self):
        """The bound ``(host, port)`` of ``/metrics``; None when disabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.address

    @property
    def metrics_url(self) -> Optional[str]:
        """The scrape URL of ``/metrics``; None when disabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.url

    def swap_program(self, program: ChipProgram) -> None:
        """Hot-swap the served program without dropping queued requests.

        Blocks new batch dispatches, waits for the in-flight batches to
        complete, replaces the worker pool with one stamped from
        *program*, and resumes.  Requests queued during the swap are
        served by the new program; in-flight batches finish on the old
        one.  The runtime must be started.
        """
        if not self._started or self._pool is None:
            raise RuntimeError("runtime is not started")
        with self._inflight_cond:
            self._inflight_cond.wait_for(
                lambda: self._inflight_batches == 0, timeout=120.0
            )
            if self._inflight_batches:
                raise RuntimeError("in-flight batches did not drain for swap")
            old_pool = self._pool
            pool = WorkerPool(program, self.config, events=self.events)
            pool.start()
            self.program = program
            self._pool = pool
            self.events.emit(
                "program_swap",
                scenario=self.config.scenario,
                build_seconds=getattr(program, "build_seconds", None),
            )
        old_pool.shutdown()

    def __enter__(self) -> "ServeRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------- submission

    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one request; the future resolves to an :class:`InferenceResponse`.

        Under ``backpressure="block"`` a full queue stalls the caller until
        the dispatcher frees space; under ``"reject"`` it raises
        :class:`QueueFullError` immediately (and counts the rejection).
        """
        if not (self._started and self._accepting):
            raise RuntimeError("runtime is not accepting requests (call start)")
        assert self.program is not None and self._queue is not None
        image = self.program.validate_request(image)
        # Count the request as outstanding BEFORE it can possibly complete;
        # every decrement (including the rejection rollback) notifies, so
        # drain() never misses its wakeup.
        with self._done_cond:
            request_id = self._next_id
            self._next_id += 1
            self._outstanding += 1
        tracer = get_tracer()
        request = InferenceRequest(
            request_id=request_id,
            image=image,
            arrival_s=now(),
            future=Future(),
            trace_ctx=tracer.new_context() if tracer.enabled else None,
        )
        with self._accept_lock:
            if not self._accepting:  # lost the race against stop()
                self._mark_done(1)
                raise RuntimeError(
                    "runtime is not accepting requests (call start)"
                )
            if self.config.backpressure == "block":
                self._queue.put(request)
            else:
                try:
                    self._queue.put_nowait(request)
                except queue.Full:
                    self._mark_done(1)
                    self.metrics.record_rejected()
                    self.events.emit(
                        "request_rejected",
                        request_id=request_id,
                        queue_depth=self.config.queue_depth,
                    )
                    raise QueueFullError(
                        f"request queue is full ({self.config.queue_depth} deep)"
                    ) from None
        self.metrics.record_submitted(self._queue.qsize(), request.arrival_s)
        self.events.emit(
            "request_admitted",
            request_id=request_id,
            queue_depth=self._queue.qsize(),
        )
        return request.future

    def serve(self, images: Sequence[np.ndarray]) -> np.ndarray:
        """Submit a workload request-by-request and gather predictions in order.

        Convenience for benchmarks and the determinism tests; use
        ``backpressure="block"`` so nothing is rejected.
        """
        futures = [self.submit(image) for image in images]
        return np.array(
            [future.result().prediction for future in futures], dtype=np.int64
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted request has resolved; True on success."""
        with self._done_cond:
            return self._done_cond.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )

    def snapshot(self) -> MetricsSnapshot:
        """The current metrics snapshot (safe to call mid-load)."""
        return self.metrics.snapshot()

    # --------------------------------------------------------------- dispatch

    def _dispatch_loop(self) -> None:
        assert self._queue is not None and self._slots is not None
        batcher = MicroBatcher(
            self._queue,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
        )
        while True:
            self._slots.acquire()  # wait for a free chip replica first ...
            batch = batcher.next_batch()  # ... then coalesce the backlog
            if batch is None:
                self._slots.release()
                return
            dispatch_s = now()
            # Mint the batch span's ids now (recorded at completion): its
            # parent is the batch's first request, and the replica spans —
            # possibly in a worker process — parent under it, so one
            # request's tree stays connected across the pool boundary.
            tracer = get_tracer()
            batch_ctx = None
            if tracer.enabled:
                anchor = next(
                    (r.trace_ctx for r in batch if r.trace_ctx is not None),
                    None,
                )
                if anchor is not None:
                    batch_ctx = tracer.new_context(parent=anchor)
            images = np.stack([request.image for request in batch])
            # Submit under the swap lock: a program swap can never race a
            # dispatch onto a pool that is being replaced.
            with self._inflight_cond:
                assert self._pool is not None
                self._inflight_batches += 1
                future = self._pool.submit(images, trace_ctx=batch_ctx)
            self.events.emit(
                "batch_dispatched",
                size=len(batch),
                first_request_id=batch[0].request_id,
                last_request_id=batch[-1].request_id,
            )
            future.add_done_callback(
                partial(self._on_batch_done, batch, dispatch_s, batch_ctx)
            )

    def _on_batch_done(
        self,
        batch: List[InferenceRequest],
        dispatch_s: float,
        batch_ctx: Optional[tuple],
        future: Future,
    ) -> None:
        assert self._slots is not None
        self._slots.release()
        with self._inflight_cond:
            self._inflight_batches -= 1
            self._inflight_cond.notify_all()
        completion_s = now()
        assert self.program is not None
        try:
            predictions = future.result()
        except BaseException as error:  # surface the failure per request
            for request in batch:
                request.future.set_exception(error)
                self.events.emit(
                    "request_failed",
                    request_id=request.request_id,
                    error=repr(error),
                )
            self._mark_done(len(batch))
            return
        self._record_batch_spans(batch, batch_ctx, dispatch_s, completion_s)
        self.metrics.record_batch(len(batch), completion_s - dispatch_s)
        for request, prediction in zip(batch, predictions):
            response = InferenceResponse(
                request_id=request.request_id,
                prediction=int(prediction),
                batch_size=len(batch),
                queue_wait_s=dispatch_s - request.arrival_s,
                service_s=completion_s - dispatch_s,
                latency_s=completion_s - request.arrival_s,
                chip_latency_s=self.program.chip_latency_s,
                chip_energy_j=self.program.chip_energy_j,
            )
            self.metrics.record_response(
                response.latency_s, response.queue_wait_s, completion_s
            )
            self.events.emit(
                "request_served",
                request_id=request.request_id,
                prediction=response.prediction,
                batch_size=response.batch_size,
                latency_s=round(response.latency_s, 6),
            )
            request.future.set_result(response)
        self._mark_done(len(batch))

    def _record_batch_spans(
        self,
        batch: List[InferenceRequest],
        batch_ctx: Optional[tuple],
        dispatch_s: float,
        completion_s: float,
    ) -> None:
        """Synthesize the request / queue / batch spans of one served batch.

        The spans cover already-elapsed intervals, so they are recorded
        here with explicit timing: the same arrival, dispatch and
        completion stamps the responses and the metrics carry.  The batch
        span is recorded under its pre-minted context — the one the replica
        spans already parented to — and the batch parents under its first
        request, which gives that request the full connected tree
        ``request → queue → batch → replica → layer → kernel``.
        """
        tracer = get_tracer()
        if not tracer.enabled or batch_ctx is None:
            return
        anchor = next(
            (r.trace_ctx for r in batch if r.trace_ctx is not None), None
        )
        tracer.record_span(
            "batch",
            start_s=dispatch_s,
            duration_s=completion_s - dispatch_s,
            parent=anchor,
            context=batch_ctx,
            size=len(batch),
            first_request_id=batch[0].request_id,
        )
        for request in batch:
            if request.trace_ctx is None:
                continue
            tracer.record_span(
                "queue",
                start_s=request.arrival_s,
                duration_s=dispatch_s - request.arrival_s,
                parent=request.trace_ctx,
                request_id=request.request_id,
            )
            tracer.record_span(
                "request",
                start_s=request.arrival_s,
                duration_s=completion_s - request.arrival_s,
                context=request.trace_ctx,
                request_id=request.request_id,
            )

    def _mark_done(self, count: int) -> None:
        with self._done_cond:
            self._outstanding -= count
            self._done_cond.notify_all()
