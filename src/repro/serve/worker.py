"""Warm chip replicas and the pool that executes micro-batches on them.

A :class:`ChipWorker` owns exactly one :class:`~repro.serve.program.WarmChip`
and executes one micro-batch at a time; :class:`WorkerPool` keeps
``replicas`` of them behind an executor and guarantees a batch only ever
runs on a *free* replica.

Two pool modes share the interface:

``"thread"``
    Replicas are instantiated up front in the serving process and handed
    out through a free-list; the heavy numpy kernels release the GIL, so
    replicas genuinely overlap on multicore hosts.  All replicas alias the
    one in-process program (its arrays are immutable).

``"process"``
    One replica per worker process, stamped by the pool initializer.  How
    the program reaches the workers is the ``program_transport`` knob:
    ``"shm"`` publishes every tensor once in a
    :class:`~repro.engine.shm.SharedArena` and ships only the picklable
    manifest — workers map the arrays read-only, zero-copy, so program
    memory is O(1) in the worker count and startup skips the deserialise
    entirely; ``"pickle"`` ships each worker its own serialised copy (the
    portable baseline); ``"auto"`` picks shm when the platform has it.
    The pool owns the arena and unlinks it on :meth:`WorkerPool.shutdown`
    — including after a worker crash, so no stale ``/dev/shm`` segment
    outlives the deployment.

Replicas are interchangeable by construction (same program, no variation
draws consumed at instantiation), so *which* replica serves a batch can
never change a result — only its timing.
"""

from __future__ import annotations

import os
import pickle
import queue
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from ..engine.shm import shm_available
from ..obs.tracer import NULL_TRACER, Tracer, get_tracer, set_tracer
from .config import ServeConfig
from .events import NullEventLog
from .program import ChipProgram, WarmChip

__all__ = ["ChipWorker", "WorkerPool"]


class ChipWorker:
    """One warm chip replica executing micro-batches sequentially.

    Attributes:
        replica_id: Stable identifier of the replica within its pool.
        chip: The warm programmed chip.
        service_delay_s: Artificial extra service time per batch (testing).
        batches_served: Micro-batches this replica has executed.
        images_served: Images this replica has executed.
    """

    def __init__(
        self,
        replica_id: int,
        chip: WarmChip,
        *,
        service_delay_s: float = 0.0,
    ) -> None:
        self.replica_id = replica_id
        self.chip = chip
        self.service_delay_s = float(service_delay_s)
        self.batches_served = 0
        self.images_served = 0

    def infer(self, images: np.ndarray) -> np.ndarray:
        """Predictions of one micro-batch (one engine call for the batch)."""
        if self.service_delay_s > 0:
            time.sleep(self.service_delay_s)
        predictions = self.chip.predict(images)
        self.batches_served += 1
        self.images_served += len(images)
        return predictions


#: The per-process replica of the process-pool mode (set by the initializer).
_PROCESS_WORKER: Optional[ChipWorker] = None
#: The worker's mapping of the shared program arena (shm transport only);
#: kept referenced for the replica's lifetime.
_PROCESS_ARENA = None
#: Initialisation facts of this worker process (pid, transport, init time).
_PROCESS_INFO: Dict[str, object] = {}


def _init_process_worker(payload, transport: str, service_delay_s: float) -> None:
    """Process-pool initializer: stamp this process's replica.

    *payload* is a :class:`~repro.serve.program.SharedProgramHandle` for the
    ``"shm"`` transport (attach + map, zero-copy) or pickled program bytes
    for ``"pickle"`` (private deserialised copy).
    """
    global _PROCESS_WORKER, _PROCESS_ARENA, _PROCESS_INFO
    # A fork-started worker inherits the parent's tracer object — and with
    # it copies of the parent's finished-span rings, which would replay as
    # duplicates.  Workers always start quiet; tracing is re-established
    # per batch when a trace context rides in on the dispatch.
    set_tracer(NULL_TRACER)
    start = time.perf_counter()
    if transport == "shm":
        program, _PROCESS_ARENA = payload.load()
    else:
        program = pickle.loads(payload)
    # No warm-up request: in a fresh process it costs one request's compute
    # at start and buys the first request almost nothing.
    _PROCESS_WORKER = ChipWorker(
        os.getpid(),
        program.instantiate(warm_up=False),
        service_delay_s=service_delay_s,
    )
    _PROCESS_INFO = {
        "pid": os.getpid(),
        "transport": transport,
        "init_s": time.perf_counter() - start,
    }


def _process_infer(images: np.ndarray, trace_ctx=None):
    """Process-pool task body: run one micro-batch on this process's replica.

    Without *trace_ctx* the return value is the bare predictions array (the
    original pickling contract).  With a ``(trace_id, span_id)`` context the
    batch runs under a fresh process-local tracer — the replica span (and
    every layer/kernel span beneath it) parents under the shipped context —
    and the result is ``(predictions, spans)`` for the pool to re-ingest on
    the serving side.
    """
    assert _PROCESS_WORKER is not None, "worker process was not initialised"
    if trace_ctx is None:
        return _PROCESS_WORKER.infer(images)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with tracer.span(
            "replica",
            parent=tuple(trace_ctx),
            replica=_PROCESS_WORKER.replica_id,
            mode="process",
        ):
            predictions = _PROCESS_WORKER.infer(images)
    finally:
        set_tracer(previous)
    return predictions, tracer.drain()


def _memory_bytes() -> Dict[str, int]:
    """This process's private and proportional RSS from smaps_rollup.

    ``private`` counts only pages exclusive to the process — fork-shared
    interpreter pages and mapped shared-memory file pages are excluded, so
    it isolates exactly the per-worker cost the shm transport removes.
    Returns zeros where /proc is unavailable.
    """
    private = pss = 0
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in ("Private_Clean:", "Private_Dirty:"):
                    private += int(fields[1]) * 1024
                elif fields[0] == "Pss:":
                    pss = int(fields[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return {"private_bytes": private, "pss_bytes": pss}


def _worker_probe(hold_s: float = 0.0) -> Dict[str, object]:
    """Occupying warmup task: report this worker's init facts and memory.

    ``hold_s`` keeps the worker busy briefly so a round of probes spreads
    across *distinct* workers instead of one fast worker draining them all.
    """
    assert _PROCESS_WORKER is not None, "worker process was not initialised"
    if hold_s > 0:
        time.sleep(hold_s)
    info = dict(_PROCESS_INFO)
    info.update(_memory_bytes())
    return info


class WorkerPool:
    """``replicas`` warm chips behind an executor, one batch per free chip.

    Args:
        program: The programmed chip every replica is stamped from.
        config: The deployment configuration (replica count, pool mode,
            program transport, service-delay injection).
        events: Structured event sink (``worker_start`` / ``worker_stop``
            per replica); defaults to the no-op log.
    """

    def __init__(
        self,
        program: ChipProgram,
        config: ServeConfig,
        *,
        events=None,
    ) -> None:
        self.program = program
        self.config = config
        self.events = events if events is not None else NullEventLog()
        self.replicas = config.replicas
        self.mode = config.pool
        #: The transport the pool resolved at start ("shm" / "pickle" for
        #: process pools, "inproc" for thread pools); None before start.
        self.transport: Optional[str] = None
        self._executor = None
        self._free: Optional[queue.SimpleQueue] = None
        self._workers: List[ChipWorker] = []
        self._arena = None

    # -------------------------------------------------------------- lifecycle

    def _resolve_transport(self) -> str:
        """The concrete program transport of this deployment."""
        requested = self.config.program_transport
        if requested == "pickle":
            return "pickle"
        if requested == "shm":
            if not shm_available():
                raise RuntimeError(
                    "program_transport='shm' requested but shared memory is "
                    "unavailable on this platform"
                )
            return "shm"
        return "shm" if shm_available() else "pickle"

    def start(self) -> None:
        """Instantiate the replicas and open the executor."""
        if self._executor is not None:
            raise RuntimeError("worker pool is already started")
        if self.mode == "thread":
            self.transport = "inproc"
            self._workers = [
                ChipWorker(
                    replica,
                    self.program.instantiate(),
                    service_delay_s=self.config.service_delay_s,
                )
                for replica in range(self.replicas)
            ]
            self._free = queue.SimpleQueue()
            for worker in self._workers:
                self._free.put(worker)
            self._executor = ThreadPoolExecutor(
                max_workers=self.replicas, thread_name_prefix="chip-worker"
            )
        else:
            self.transport = self._resolve_transport()
            if self.transport == "shm":
                handle, self._arena = self.program.share()
                payload = handle
            else:
                payload = pickle.dumps(
                    self.program, protocol=pickle.HIGHEST_PROTOCOL
                )
            self._executor = ProcessPoolExecutor(
                max_workers=self.replicas,
                initializer=_init_process_worker,
                initargs=(payload, self.transport, self.config.service_delay_s),
            )
        for replica in range(self.replicas):
            self.events.emit(
                "worker_start",
                replica=replica,
                mode=self.mode,
                transport=self.transport,
            )

    def shutdown(self) -> None:
        """Finish in-flight batches and release the replicas (idempotent).

        The program arena is closed and unlinked even when the executor
        refuses a clean shutdown (e.g. a worker was killed and the pool is
        broken) — a crashed worker must not leak a stale shared-memory
        segment.
        """
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                for replica in range(self.replicas):
                    self.events.emit(
                        "worker_stop", replica=replica, mode=self.mode
                    )
        finally:
            self._executor = None
            self._workers = []
            self._free = None
            if self._arena is not None:
                arena, self._arena = self._arena, None
                arena.close()
                arena.unlink()

    # -------------------------------------------------------------- dispatch

    def _thread_infer(self, images: np.ndarray, trace_ctx=None) -> np.ndarray:
        assert self._free is not None
        worker = self._free.get()  # a free replica always exists: the
        try:                       # runtime caps in-flight batches at
            tracer = get_tracer()  # the replica count
            if trace_ctx is not None and tracer.enabled:
                with tracer.span(
                    "replica",
                    parent=trace_ctx,
                    replica=worker.replica_id,
                    mode="thread",
                ):
                    return worker.infer(images)
            return worker.infer(images)
        finally:
            self._free.put(worker)

    def submit(self, images: np.ndarray, *, trace_ctx=None) -> Future:
        """Run one micro-batch on a free replica; resolves to predictions.

        *trace_ctx* — the dispatching batch span's ``(trace_id, span_id)``
        — makes the replica (and the engine spans beneath it) parent under
        the batch.  For process pools the worker's spans travel back with
        the result and are re-ingested into this process's tracer before
        the returned future resolves, so one request's tree is connected
        by the time the response future fires.
        """
        if self._executor is None:
            raise RuntimeError("worker pool is not started")
        if self.mode == "thread":
            return self._executor.submit(self._thread_infer, images, trace_ctx)
        if trace_ctx is None:
            return self._executor.submit(_process_infer, images)
        inner = self._executor.submit(_process_infer, images, trace_ctx)
        outer: Future = Future()

        def _collect(done: Future) -> None:
            try:
                predictions, spans = done.result()
            except BaseException as error:
                outer.set_exception(error)
                return
            tracer = get_tracer()
            if tracer.enabled and spans:
                tracer.ingest(spans)
            outer.set_result(predictions)

        inner.add_done_callback(_collect)
        return outer

    # ------------------------------------------------------------ observation

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty for thread pools)."""
        processes = getattr(self._executor, "_processes", None) or {}
        return sorted(processes)

    def warmup(self, *, timeout_s: float = 120.0) -> List[Dict[str, object]]:
        """Block until every replica exists; return per-worker init facts.

        Process pools spawn workers lazily (one per submitted task, up to
        ``replicas``); this floods the pool with short occupying probes
        until ``replicas`` distinct worker pids have answered, so the
        per-worker initialisation cost is paid *now* rather than on the
        first real request.  Each returned record carries the worker's
        ``pid``, ``transport``, ``init_s`` (program receive + instantiate
        time) and its ``private_bytes`` / ``pss_bytes`` memory split.
        Thread pools are fully built by :meth:`start`; an empty list is
        returned.
        """
        if self._executor is None:
            raise RuntimeError("worker pool is not started")
        if self.mode == "thread":
            return []
        seen: Dict[int, Dict[str, object]] = {}
        deadline = time.monotonic() + timeout_s
        while len(seen) < self.replicas:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"only {len(seen)}/{self.replicas} workers initialised "
                    f"within {timeout_s:.0f}s"
                )
            futures = [
                self._executor.submit(_worker_probe, 0.05)
                for _ in range(self.replicas)
            ]
            for future in futures:
                info = future.result(timeout=timeout_s)
                seen.setdefault(int(info["pid"]), info)
        return [seen[pid] for pid in sorted(seen)]

