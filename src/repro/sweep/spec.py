"""Declarative design-space sweep specifications.

A :class:`SweepSpec` names the axes of a design-space exploration — which
scenarios, designs, execution backends, precisions, ADC resolutions,
calibration modes, and engine kernels — plus the shared workload
parameters (image count, seeds, variation, geometry).  :meth:`SweepSpec.expand`
turns the grid into a deterministic, de-duplicated list of
:class:`SweepJob` descriptors that the :class:`~repro.sweep.runner.SweepRunner`
shards across worker processes.

Axes that do not apply to a backend are *collapsed* rather than multiplied:
a functional-backend job ignores the device-kernel axis (its config
carries the default kernel), and an
analytic job (shape-level performance model, no runtime inference)
additionally ignores calibration — so a grid mixing backends never contains
duplicate work.  Spec-only scenarios (e.g. ``resnet18_cifar10``) pair only
with the analytic backend; incompatible combinations are dropped, and an
expansion that drops *everything* raises.

Every job carries its :class:`~repro.system.inference.InferenceConfig` as a
``to_dict()`` payload, so dispatching a job to a worker is a pure
serialisation round trip — the property the content-addressed cache keys
rely on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..chipsim.scenarios import get_scenario
from ..config.schema import ConfigSchema, FieldSpec
from ..devices.variation import DEFAULT_VARIATION, VariationModel
from ..engine.kernels import DEFAULT_DEVICE_EXEC, validate_device_exec
from ..geometry import DEFAULT_GEOMETRY, MacroGeometry
from ..system.inference import InferenceConfig
from .hashing import digest_payload, stable_seed

__all__ = ["SweepJob", "SweepSpec", "SWEEP_SCHEMA", "BACKENDS"]

#: Execution backends a sweep job can target.  ``"device"`` and
#: ``"functional"`` run quantised inference (the InferenceConfig backends);
#: ``"analytic"`` evaluates the shape-level system performance model only.
BACKENDS = ("device", "functional", "analytic")

#: Canonical values of the axes a backend ignores (collapsed on expansion).
_COLLAPSED_EXEC = DEFAULT_DEVICE_EXEC
_COLLAPSED_CALIBRATION = "workload"


@dataclass(frozen=True)
class SweepJob:
    """One fully resolved point of the design-space grid.

    Attributes:
        job_id: Human-readable unique key (stable across runs of the same
            spec — it doubles as the record key in ``BENCH_sweep.json``).
        scenario: Registered scenario name.
        backend: ``"device"``, ``"functional"``, or ``"analytic"``.
        config: ``InferenceConfig.to_dict()`` payload (inference backends;
            analytic jobs carry the design/precision fields for the
            performance model but never build an engine from it).
        images: Workload images evaluated by the job.
        batch_size: Inference batch size (first batch calibrates).
        data_seed: Seed of the workload draw — shared by every job of the
            same scenario so quality metrics are comparable across the grid.
    """

    job_id: str
    scenario: str
    backend: str
    config: Mapping[str, Any]
    images: int
    batch_size: int
    data_seed: int

    def inference_config(self) -> InferenceConfig:
        """Rebuild the job's :class:`InferenceConfig` (inference backends)."""
        if self.backend == "analytic":
            raise ValueError("analytic jobs have no inference config")
        return InferenceConfig.from_dict(self.config)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible payload (worker dispatch format)."""
        payload = asdict(self)
        payload["config"] = dict(self.config)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepJob":
        """Rebuild a job from its :meth:`to_dict` payload."""
        return cls(**dict(payload))


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over scenarios × ``InferenceConfig`` axes.

    Attributes:
        scenarios: Registered scenario names to sweep.
        backends: Execution backends (see :data:`BACKENDS`).
        designs: ``"curfe"`` / ``"chgfe"`` axis.
        precisions: ``(input_bits, weight_bits)`` pairs.
        adc_bits: ADC resolutions.
        calibrations: ``"workload"`` / ``"nominal"`` axis (inference only).
        device_execs: Engine kernel names (device only), each one of the
            three in :mod:`repro.engine.kernels` — ``"fused"`` (default),
            ``"fast"``, ``"exact"``.
        images: Images per job.
        batch_size: Inference batch size.
        seed: Master seed — programming draws use it directly (so jobs that
            differ only in ADC / calibration share programmed state and the
            cache can serve them), per-scenario data seeds derive from it.
        calibration_samples: Per-layer calibration budget.
        variation: Device-variation statistics.
        geometry: Macro geometry.
    """

    scenarios: Tuple[str, ...]
    backends: Tuple[str, ...] = ("device",)
    designs: Tuple[str, ...] = ("curfe",)
    precisions: Tuple[Tuple[int, int], ...] = ((4, 8),)
    adc_bits: Tuple[int, ...] = (5,)
    calibrations: Tuple[str, ...] = ("workload",)
    device_execs: Tuple[str, ...] = (DEFAULT_DEVICE_EXEC,)
    images: int = 8
    batch_size: int = 128
    seed: int = 0
    calibration_samples: int = 4096
    variation: VariationModel = DEFAULT_VARIATION
    geometry: MacroGeometry = DEFAULT_GEOMETRY

    def __post_init__(self) -> None:
        for axis_name in (
            "scenarios", "backends", "designs", "precisions", "adc_bits",
            "calibrations", "device_execs",
        ):
            axis = getattr(self, axis_name)
            if not isinstance(axis, tuple):
                object.__setattr__(self, axis_name, tuple(axis))
            if not getattr(self, axis_name):
                raise ValueError(f"axis {axis_name!r} must not be empty")
        for backend in self.backends:
            if backend not in BACKENDS:
                raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        for device_exec in self.device_execs:
            validate_device_exec(device_exec)
        pairs = tuple(tuple(pair) for pair in self.precisions)
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("precisions entries must be (input_bits, weight_bits)")
        object.__setattr__(self, "precisions", pairs)
        if self.images < 1:
            raise ValueError("images must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot (recorded in ``BENCH_sweep.json``).

        The key set is declared by :data:`SWEEP_SCHEMA`; axes serialise to
        lists, ``precisions`` to a list of two-element lists.
        """
        return SWEEP_SCHEMA.to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from its :meth:`to_dict` payload.

        Unknown keys raise with a did-you-mean suggestion.
        """
        return SWEEP_SCHEMA.from_dict(payload)

    def digest(self) -> str:
        """Content digest of the spec (cache namespace / record identity)."""
        return digest_payload(self.to_dict())

    # ---------------------------------------------------------------- expansion

    def data_seed(self, scenario: str) -> int:
        """The per-scenario workload seed (shared by all the scenario's jobs)."""
        return stable_seed(self.seed, "workload", scenario)

    def expand(self) -> List[SweepJob]:
        """Expand the grid into de-duplicated, deterministic jobs.

        Inapplicable axis values are collapsed per backend (see the module
        docstring) and spec-only scenarios pair only with the analytic
        backend; if nothing survives, the spec is inconsistent and raises.
        """
        jobs: List[SweepJob] = []
        seen: set = set()
        for scenario_name in self.scenarios:
            scenario = get_scenario(scenario_name)
            for backend in self.backends:
                if not scenario.runtime and backend != "analytic":
                    continue
                for design in self.designs:
                    for input_bits, weight_bits in self.precisions:
                        for adc in self.adc_bits:
                            for calibration in self.calibrations:
                                for device_exec in self.device_execs:
                                    job = self._make_job(
                                        scenario_name, backend, design,
                                        int(input_bits), int(weight_bits),
                                        int(adc), calibration, device_exec,
                                    )
                                    if job.job_id not in seen:
                                        seen.add(job.job_id)
                                        jobs.append(job)
        if not jobs:
            raise ValueError(
                "the sweep grid expanded to zero jobs (spec-only scenarios "
                "need the analytic backend)"
            )
        return jobs

    def _make_job(
        self,
        scenario: str,
        backend: str,
        design: str,
        input_bits: int,
        weight_bits: int,
        adc: int,
        calibration: str,
        device_exec: str,
    ) -> SweepJob:
        """Resolve one grid point, collapsing inapplicable axes."""
        if backend != "device":
            device_exec = _COLLAPSED_EXEC
        if backend == "analytic":
            calibration = _COLLAPSED_CALIBRATION
        segments = [scenario, backend, design, f"x{input_bits}w{weight_bits}",
                    f"adc{adc}"]
        if backend != "analytic":
            segments.append(calibration)
        if backend == "device":
            segments.append(device_exec)
        config = InferenceConfig(
            design=design,
            backend="functional" if backend == "analytic" else backend,
            device_exec=device_exec,
            input_bits=input_bits,
            weight_bits=weight_bits,
            adc_bits=adc,
            geometry=self.geometry,
            variation=self.variation,
            seed=self.seed,
            calibration=calibration,
            calibration_samples=self.calibration_samples,
        )
        return SweepJob(
            job_id=":".join(segments),
            scenario=scenario,
            backend=backend,
            config=config.to_dict(),
            images=self.images,
            batch_size=self.batch_size,
            data_seed=self.data_seed(scenario),
        )

    def subset(self, **overrides) -> "SweepSpec":
        """A copy of the spec with some fields replaced."""
        return replace(self, **overrides)


def _axis(value: Any) -> Tuple[Any, ...]:
    """Normalise a YAML list / scalar axis value to a tuple."""
    if isinstance(value, (str, int, float)):
        return (value,)
    return tuple(value)


def _validate_scenarios(names: Sequence[str]) -> None:
    for name in names:
        get_scenario(name)  # raises with the registered names


#: The :class:`~repro.config.ConfigSchema` of :class:`SweepSpec` — the
#: single declaration behind ``to_dict`` / ``from_dict`` and the ``sweep``
#: YAML document kind.  Axes accept YAML scalars as one-element axes.
SWEEP_SCHEMA = ConfigSchema(
    "SweepSpec",
    SweepSpec,
    [
        FieldSpec("scenarios", to_payload=list, from_payload=_axis,
                  validate=_validate_scenarios,
                  doc="registered scenario names to sweep (required)"),
        FieldSpec("backends", ("device",), to_payload=list, from_payload=_axis,
                  doc=f"execution-backend axis, each of {BACKENDS}"),
        FieldSpec("designs", ("curfe",), to_payload=list, from_payload=_axis,
                  doc="curfe / chgfe design axis"),
        FieldSpec("precisions", ((4, 8),),
                  to_payload=lambda pairs: [list(pair) for pair in pairs],
                  from_payload=lambda pairs: tuple(
                      tuple(pair) for pair in pairs),
                  doc="(input_bits, weight_bits) pairs"),
        FieldSpec("adc_bits", (5,), to_payload=list, from_payload=_axis,
                  doc="ADC resolution axis"),
        FieldSpec("calibrations", ("workload",), to_payload=list,
                  from_payload=_axis,
                  doc="ADC calibration-mode axis (inference backends)"),
        FieldSpec("device_execs", (DEFAULT_DEVICE_EXEC,), to_payload=list,
                  from_payload=_axis,
                  doc="device-kernel axis: exact, fast and/or fused"),
        FieldSpec("images", 8, doc="workload images per job"),
        FieldSpec("batch_size", 128, doc="inference batch size"),
        FieldSpec("seed", 0, doc="master seed (programming + data seeds)"),
        FieldSpec("calibration_samples", 4096,
                  doc="per-layer calibration activation budget"),
        FieldSpec("variation", DEFAULT_VARIATION,
                  to_payload=asdict,
                  from_payload=lambda p: (
                      VariationModel(**p) if isinstance(p, Mapping) else p),
                  doc="device-variation statistics"),
        FieldSpec("geometry", DEFAULT_GEOMETRY,
                  to_payload=asdict,
                  from_payload=lambda p: (
                      MacroGeometry(**p) if isinstance(p, Mapping) else p),
                  doc="macro geometry"),
    ],
)
