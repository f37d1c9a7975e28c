"""Configuration of the online inference serving runtime.

:class:`ServeConfig` is the single declarative knob set of
:class:`~repro.serve.runtime.ServeRuntime`: which scenario is served, on
which simulated backend and host kernel (the layer-level ``"fused"`` by
default), how many warm chip replicas execute requests, how
the micro-batcher coalesces them, and how the bounded request queue pushes
back when the offered load exceeds the pool's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..config.schema import ConfigSchema, FieldSpec
from ..engine.kernels import DEFAULT_DEVICE_EXEC, validate_device_exec
from ..quant.calibration import CALIBRATION_MODES
from ..system.inference import InferenceConfig

__all__ = [
    "ServeConfig",
    "SERVE_SCHEMA",
    "BACKPRESSURE_POLICIES",
    "POOL_MODES",
    "PROGRAM_TRANSPORTS",
]

#: What :meth:`ServeRuntime.submit` does when the bounded queue is full.
BACKPRESSURE_POLICIES = ("block", "reject")

#: How the replica pool executes batches.
POOL_MODES = ("thread", "process")

#: How the process pool ships the chip program to its workers.
PROGRAM_TRANSPORTS = ("auto", "shm", "pickle")

_BACKENDS = ("device", "functional")


@dataclass(frozen=True)
class ServeConfig:
    """Declarative configuration of one serving deployment.

    Attributes:
        scenario: Registered :mod:`repro.chipsim.scenarios` entry to serve.
        backend: ``"device"`` (device-detailed tiled chip) or
            ``"functional"`` (statistical model).
        design: ``"curfe"`` or ``"chgfe"``.
        input_bits: Activation precision (1..8).
        weight_bits: Weight precision (4 or 8).
        adc_bits: SAR ADC resolution.
        device_exec: Device-backend kernel, one of the three in
            :mod:`repro.engine.kernels`; ``"fused"`` (default) runs each
            batch through the layer-level batched kernel, and the plane
            kernels ``"fast"`` and ``"exact"`` give bit-identical
            predictions more slowly.
        calibration: ``"workload"`` (default) or ``"nominal"`` ADC
            reference placement, applied once at program-build time.
        seed: Programming-variation seed shared by every replica — equal
            seeds are what make replicas interchangeable bit-for-bit.
        data_seed: Seed of the calibration workload draw.
        calibration_images: Images in the one-off calibration batch that
            programs the ADC references and pins the activation scales.
        replicas: Warm chip replicas in the pool.
        pool: ``"thread"`` (replicas share the process, numpy releases the
            GIL in the heavy kernels) or ``"process"`` (one replica per
            worker process, program shipped once at pool start).
        max_batch: Micro-batch size cap — the most requests one replica
            dispatch may coalesce.
        max_wait_s: How long the batcher holds an under-filled batch open
            for late arrivals once a replica is free.  ``0`` (default)
            coalesces greedily: everything already queued, no waiting.
        queue_depth: Bound of the request queue; arrivals beyond it hit the
            backpressure policy.
        backpressure: ``"block"`` stalls the submitting client until queue
            space frees; ``"reject"`` raises
            :class:`~repro.serve.runtime.QueueFullError` immediately.
        service_delay_s: Artificial extra service time per batch (fault
            injection for backpressure / queueing tests; 0 in production).
        program_transport: How process-pool workers receive the program —
            ``"auto"`` (default: one shared-memory arena when the platform
            supports it, pickle otherwise), ``"shm"`` (require the arena;
            raise when shared memory is unavailable), or ``"pickle"`` (ship
            each worker its own serialised copy — the portable baseline).
            Thread pools always alias the in-process program directly.
        metrics_port: Port of the Prometheus ``/metrics`` endpoint the
            runtime serves on a side thread — ``None`` (default) disables
            it, ``0`` binds an ephemeral port (reported by
            :attr:`~repro.serve.runtime.ServeRuntime.metrics_address`).
        event_log: Path of the structured JSONL event log; ``None``
            (default) disables event logging.
        event_log_max_bytes: Rotation threshold of the event-log file.
        event_log_backups: Rotated files kept (``path.1`` … ``path.N``).
    """

    scenario: str = "tiny_mlp"
    backend: str = "device"
    design: str = "curfe"
    input_bits: int = 4
    weight_bits: int = 8
    adc_bits: Optional[int] = 5
    device_exec: str = DEFAULT_DEVICE_EXEC
    calibration: str = "workload"
    seed: int = 0
    data_seed: int = 1
    calibration_images: int = 32
    replicas: int = 1
    pool: str = "thread"
    max_batch: int = 8
    max_wait_s: float = 0.0
    queue_depth: int = 256
    backpressure: str = "block"
    service_delay_s: float = 0.0
    program_transport: str = "auto"
    metrics_port: Optional[int] = None
    event_log: Optional[str] = None
    event_log_max_bytes: int = 1_000_000
    event_log_backups: int = 3

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        validate_device_exec(self.device_exec)
        if self.pool not in POOL_MODES:
            raise ValueError(f"pool must be one of {POOL_MODES}")
        if self.program_transport not in PROGRAM_TRANSPORTS:
            raise ValueError(
                f"program_transport must be one of {PROGRAM_TRANSPORTS}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if self.calibration_images < 1:
            raise ValueError("calibration_images must be at least 1")
        if self.service_delay_s < 0:
            raise ValueError("service_delay_s must be non-negative")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535] or None")
        if self.event_log_max_bytes < 1024:
            raise ValueError("event_log_max_bytes must be at least 1024")
        if self.event_log_backups < 1:
            raise ValueError("event_log_backups must be at least 1")
        if self.adc_bits is None:
            # Serving co-reports modeled chip latency / energy, which price
            # a concrete ADC; the no-ADC idealisation is an offline-analysis
            # configuration, not a deployable chip.
            raise ValueError(
                "serving requires a concrete adc_bits (the functional "
                "backend's adc_bits=None idealisation has no chip to model)"
            )

    def inference_config(self) -> InferenceConfig:
        """The matching :class:`InferenceConfig` of one chip replica."""
        return InferenceConfig(
            design=self.design,
            backend=self.backend,
            device_exec=self.device_exec,
            input_bits=self.input_bits,
            weight_bits=self.weight_bits,
            adc_bits=self.adc_bits,
            seed=self.seed,
            calibration=self.calibration,
        )

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible snapshot (parity with ``InferenceConfig``).

        The key set is declared by :data:`SERVE_SCHEMA`;
        ``ServeConfig.from_dict(c.to_dict()) == c``.
        """
        return SERVE_SCHEMA.to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServeConfig":
        """Rebuild a config from a :meth:`to_dict` payload.

        Unknown keys raise with a did-you-mean suggestion.
        """
        return SERVE_SCHEMA.from_dict(payload)


def _scenario_names():
    from ..chipsim.scenarios import SCENARIOS

    return tuple(SCENARIOS)


#: The :class:`~repro.config.ConfigSchema` of :class:`ServeConfig` — the
#: single declaration behind ``to_dict`` / ``from_dict`` and the ``serve``
#: YAML document kind.  The scenario enum reads the live
#: :mod:`repro.chipsim.scenarios` registry at validation time.
SERVE_SCHEMA = ConfigSchema(
    "ServeConfig",
    ServeConfig,
    [
        FieldSpec("scenario", "tiny_mlp", choices=_scenario_names,
                  doc="registered scenario to serve"),
        FieldSpec("backend", "device", choices=_BACKENDS,
                  doc="chip execution backend"),
        FieldSpec("design", "curfe", choices=("curfe", "chgfe"),
                  doc="IMC macro design"),
        FieldSpec("input_bits", 4, doc="activation precision (unsigned)"),
        FieldSpec("weight_bits", 8, doc="weight precision (signed)"),
        FieldSpec("adc_bits", 5, doc="SAR ADC resolution (required concrete)"),
        FieldSpec("device_exec", DEFAULT_DEVICE_EXEC,
                  validate=validate_device_exec,
                  doc="device-backend kernel: exact, fast or fused"),
        FieldSpec("calibration", "workload", choices=CALIBRATION_MODES,
                  doc="ADC reference placement at program-build time"),
        FieldSpec("seed", 0, doc="programming-variation seed (all replicas)"),
        FieldSpec("data_seed", 1, doc="calibration workload draw seed"),
        FieldSpec("calibration_images", 32,
                  doc="images in the one-off calibration batch"),
        FieldSpec("replicas", 1, doc="warm chip replicas in the pool"),
        FieldSpec("pool", "thread", choices=POOL_MODES,
                  doc="replica pool execution mode"),
        FieldSpec("max_batch", 8, doc="micro-batch size cap"),
        FieldSpec("max_wait_s", 0.0,
                  doc="batch hold-open window once a replica is free"),
        FieldSpec("queue_depth", 256, doc="request queue bound"),
        FieldSpec("backpressure", "block", choices=BACKPRESSURE_POLICIES,
                  doc="full-queue policy"),
        FieldSpec("service_delay_s", 0.0,
                  doc="artificial extra service time per batch (testing)"),
        FieldSpec("program_transport", "auto", choices=PROGRAM_TRANSPORTS,
                  doc="how process-pool workers receive the program"),
        FieldSpec("metrics_port", None,
                  doc="Prometheus /metrics port (null = off, 0 = ephemeral)"),
        FieldSpec("event_log", None,
                  doc="JSONL event-log path (null = off)"),
        FieldSpec("event_log_max_bytes", 1_000_000,
                  doc="event-log rotation threshold"),
        FieldSpec("event_log_backups", 3,
                  doc="rotated event-log files kept"),
    ],
)
