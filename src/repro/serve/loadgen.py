"""Seeded synthetic traffic against a :class:`~repro.serve.runtime.ServeRuntime`.

Two classic load shapes, both deterministic in their seed:

* **closed loop** — ``concurrency`` virtual clients, each submitting its
  next request the moment the previous one resolves.  Offered load adapts
  to the service rate, so this is the shape for saturation throughput and
  for batching studies (a busy pool grows a backlog that the micro-batcher
  coalesces).
* **open loop** — requests arrive on a schedule drawn once from the seeded
  generator (Poisson or uniform inter-arrivals at a target rate),
  independent of completions.  This is the shape for tail-latency-vs-load
  curves and for exercising backpressure: under the ``"reject"`` policy,
  arrivals that find the queue full are counted and skipped.

Requests cycle deterministically through a fixed image pool
(``request i -> images[i % len(images)]``), so a load run's per-request
predictions can be compared ``array_equal`` against one offline pass.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .metrics import MetricsSnapshot
from .runtime import InferenceResponse, QueueFullError, ServeRuntime

__all__ = ["LoadGenerator", "LoadResult"]

_PATTERNS = ("poisson", "uniform")


@dataclass
class LoadResult:
    """Outcome of one load run.

    Attributes:
        responses: Per-request responses in submission order (None where
            the request was rejected by backpressure).
        metrics: The runtime's metrics snapshot taken after the run.
        wall_s: Wall time from first submission to last response.
        offered: Requests the generator attempted to submit.
        completed: Requests that resolved with a response.
        rejected: Requests refused by the backpressure policy.
    """

    responses: List[Optional[InferenceResponse]]
    metrics: MetricsSnapshot
    wall_s: float
    offered: int
    completed: int
    rejected: int

    @property
    def predictions(self) -> np.ndarray:
        """Per-request predictions in submission order (-1 = rejected)."""
        return np.array(
            [
                -1 if response is None else response.prediction
                for response in self.responses
            ],
            dtype=np.int64,
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of load wall time."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0


class LoadGenerator:
    """Generates deterministic request streams from a fixed image pool.

    Args:
        images: Image pool of shape (N, C, H, W); request ``i`` carries
            ``images[i % N]``.
        seed: Seed of the arrival-schedule draws (open loop).
    """

    def __init__(self, images: np.ndarray, *, seed: int = 0) -> None:
        images = np.asarray(images)
        if images.ndim != 4 or len(images) == 0:
            raise ValueError("images must be a non-empty (N, C, H, W) array")
        self.images = images
        self.seed = int(seed)

    def request_image(self, index: int) -> np.ndarray:
        """The image request ``index`` carries (deterministic cycling)."""
        return self.images[index % len(self.images)]

    def arrival_intervals(
        self, requests: int, rate_rps: float, pattern: str = "poisson"
    ) -> np.ndarray:
        """The seeded open-loop inter-arrival times (seconds, length ``requests``).

        ``"poisson"`` draws exponential gaps with mean ``1/rate_rps``;
        ``"uniform"`` spaces arrivals exactly ``1/rate_rps`` apart.  Equal
        seeds give equal schedules — load runs are reproducible.
        """
        if requests < 1:
            raise ValueError("requests must be positive")
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if pattern not in _PATTERNS:
            raise ValueError(f"pattern must be one of {_PATTERNS}")
        if pattern == "uniform":
            return np.full(requests, 1.0 / rate_rps)
        rng = np.random.default_rng(self.seed)
        return rng.exponential(1.0 / rate_rps, size=requests)

    # ----------------------------------------------------------------- shapes

    def closed_loop(
        self, runtime: ServeRuntime, *, requests: int, concurrency: int
    ) -> LoadResult:
        """``concurrency`` clients, each re-submitting on completion."""
        if requests < 1:
            raise ValueError("requests must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be positive")
        start = time.perf_counter()
        futures: Dict[int, Future] = {}
        pending = set()
        next_index = 0
        while next_index < requests or pending:
            while next_index < requests and len(pending) < concurrency:
                future = runtime.submit(self.request_image(next_index))
                futures[next_index] = future
                pending.add(future)
                next_index += 1
            if pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
        wall = time.perf_counter() - start
        responses: List[Optional[InferenceResponse]] = [
            futures[index].result() for index in range(requests)
        ]
        return LoadResult(
            responses=responses,
            metrics=runtime.snapshot(),
            wall_s=wall,
            offered=requests,
            completed=len(responses),
            rejected=0,
        )

    def open_loop(
        self,
        runtime: ServeRuntime,
        *,
        requests: int,
        rate_rps: float,
        pattern: str = "poisson",
    ) -> LoadResult:
        """Schedule-driven arrivals at ``rate_rps``, independent of completions.

        Request ``i`` is due at ``start + sum(intervals[:i + 1])``.  With
        ``backpressure="reject"`` on the runtime, arrivals that find the
        queue full become ``None`` responses; with ``"block"`` a blocked
        submit holds up only the arrivals that fall due meanwhile — they
        are submitted as soon as it returns, and the rest keep their
        scheduled times.
        """
        due = np.cumsum(self.arrival_intervals(requests, rate_rps, pattern))
        start = time.perf_counter()
        futures: Dict[int, Future] = {}
        rejected = 0
        for index in range(requests):
            delay = start + float(due[index]) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures[index] = runtime.submit(self.request_image(index))
            except QueueFullError:
                rejected += 1
        runtime.drain()
        wall = time.perf_counter() - start
        responses = [
            futures[index].result() if index in futures else None
            for index in range(requests)
        ]
        return LoadResult(
            responses=responses,
            metrics=runtime.snapshot(),
            wall_s=wall,
            offered=requests,
            completed=len(futures),
            rejected=rejected,
        )
