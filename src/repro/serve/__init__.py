"""Online inference serving over a pool of pre-programmed simulated chips.

Every other entry point in the repository is an offline batch script:
program the arrays, run one workload, exit.  This subsystem is the online
counterpart — the "heavy traffic" scenario family of the ROADMAP:

* :class:`ChipProgram` captures the expensive one-off setup (programmed
  cell state, calibrated ADC references, pinned activation scales) as
  plain arrays; :class:`~repro.serve.program.WarmChip` replicas stamp out
  of it without re-characterising anything.
* :class:`ServeRuntime` keeps ``replicas`` warm chips behind a bounded
  request queue and a deadline-based :class:`MicroBatcher`; requests are
  coalesced in arrival order, dispatched to free replicas, and fan back
  out per request with measured host latency plus modeled chip
  latency / energy attached.
* :class:`LoadGenerator` drives seeded closed- and open-loop traffic for
  benchmarks (``benchmarks/bench_serve_load.py`` → ``BENCH_serve.json``).

The headline contract is determinism: pinned calibration makes per-request
results independent of batch boundaries and replica placement, so serving
N requests equals one offline :meth:`ChipSimulator.run` over the same
inputs, ``array_equal`` — enforced by ``tests/serve/``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batcher": ("MicroBatcher",),
    ".config": (
        "BACKPRESSURE_POLICIES",
        "POOL_MODES",
        "PROGRAM_TRANSPORTS",
        "SERVE_SCHEMA",
        "ServeConfig",
    ),
    ".events": ("EventLog", "NullEventLog", "open_event_log", "read_events", "tail_events"),
    ".loadgen": ("LoadGenerator", "LoadResult"),
    ".metrics": ("MetricsSnapshot", "ServeMetrics"),
    ".program": ("ChipProgram", "SharedProgramHandle", "WarmChip"),
    ".promexp": ("MetricsServer", "parse_exposition", "render_prometheus"),
    ".runtime": (
        "InferenceRequest",
        "InferenceResponse",
        "QueueFullError",
        "ServeRuntime",
    ),
    ".worker": ("ChipWorker", "WorkerPool"),
})
