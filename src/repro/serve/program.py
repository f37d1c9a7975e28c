"""The programmed-chip image a serving pool replicates.

Offline entry points rebuild everything per run: train / load weights,
characterise every cell, calibrate the ADC references, then infer once and
exit.  A serving pool cannot afford that — so :class:`ChipProgram` captures
the *outcome* of the expensive one-off setup as plain arrays:

* the scenario's float weights (so replicas rebuild the architecture with
  :meth:`~repro.chipsim.scenarios.Scenario.build_skeleton`, never retrain);
* the characterised per-cell :class:`~repro.engine.ArrayState` tensors of
  every weight layer, via the same
  :func:`~repro.sweep.cache.arrays_from_state` /
  :func:`~repro.sweep.cache.restore_state` round trip the sweep cache uses;
* the workload-calibrated ADC reference levels of every layer;
* the frozen per-layer activation scales — pinning these is what makes a
  request's result independent of whichever micro-batch it rides in;
* the modeled per-image chip latency / energy of the deployment, priced
  once from the chip's layer mapping.

:meth:`ChipProgram.build` pays the setup cost once;
:meth:`ChipProgram.instantiate` stamps out a :class:`WarmChip` replica in
milliseconds-to-seconds without consuming any variation draws — replicas
are bit-identical to each other and to the builder chip by construction.
The dataclass holds only numpy arrays and plain scalars, so a program
pickles cleanly across the process-pool boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..chipsim.scenarios import get_scenario, model_arrays
from ..chipsim.simulator import ChipSimulator, network_spec_from_model
from ..engine.shm import ArenaManifest, SharedArena
from ..obs.tracer import get_tracer, timed
from ..system.inference import InferenceConfig, QuantizedInferenceEngine
from ..system.performance import SystemPerformanceModel
from ..sweep.cache import arrays_from_state, restore_state
from .config import ServeConfig

__all__ = ["ChipProgram", "SharedProgramHandle", "WarmChip"]

#: Separator of the flat ``section__layer__tensor`` arena keys.
_SEP = "__"


class WarmChip:
    """One ready-to-serve chip replica (programmed, calibrated, pinned).

    Attributes:
        engine: The replica's :class:`QuantizedInferenceEngine`.
        simulator: The owning :class:`ChipSimulator` (device backend only;
            None for functional replicas).
        program: The :class:`ChipProgram` this replica was stamped from.
    """

    def __init__(
        self,
        engine: QuantizedInferenceEngine,
        simulator: Optional[ChipSimulator],
        program: "ChipProgram",
    ) -> None:
        self.engine = engine
        self.simulator = simulator
        self.program = program

    @property
    def chip_latency_s(self) -> float:
        """Modeled chip latency per image (constant for a fixed network)."""
        return self.program.chip_latency_s

    @property
    def chip_energy_j(self) -> float:
        """Modeled chip energy per image."""
        return self.program.chip_energy_j

    def predict(
        self, images: np.ndarray, *, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Class predictions for a batch; independent of how it was split.

        The engine's ADC references and activation scales are pinned, so
        the result for image ``i`` does not depend on ``batch_size`` or on
        the other images — the determinism contract ``tests/serve``
        enforces.
        """
        images = np.asarray(images)
        return self.engine.predict(images, batch_size=batch_size or len(images))

    def run(self, images: np.ndarray, labels: Optional[np.ndarray] = None, *,
            batch_size: Optional[int] = None):
        """The offline :meth:`ChipSimulator.run` co-report of this warm chip.

        Device backend only — this is the "single offline run over the same
        inputs" the serving determinism contract compares against.
        """
        if self.simulator is None:
            raise ValueError(
                "offline co-reports need the device backend; functional "
                "replicas only predict"
            )
        return self.simulator.run(
            images, labels, batch_size=batch_size or len(images)
        )


@dataclass
class ChipProgram:
    """Content of one programmed chip, as plain picklable arrays.

    Attributes:
        scenario: Registered scenario name the program serves.
        name: Network name used in reports.
        config: ``InferenceConfig.to_dict()`` payload of every replica.
        input_shape: Per-request input shape ``(C, H, W)``.
        model_arrays: Float weights / biases per weight layer.
        layer_arrays: Characterised cell tensors per weight layer (device
            backend; None for functional programs).
        calibration_levels: Calibrated ADC reference levels per layer
            (device backend; empty under nominal calibration).
        activation_scales: Frozen per-layer activation scales.
        calibration_images: The calibration batch (functional replicas
            re-run it to reproduce the builder's engine state exactly).
        chip_latency_s: Modeled chip latency per image.
        chip_energy_j: Modeled chip energy per image.
        build_seconds: Wall time the one-off build took.
        kernel_plans: Ahead-of-time compiled kernel operand tables per
            weight layer (``{layer: {table: array}}``), exported by the
            builder engine for the configured ``device_exec``.  Replicas
            install them with
            :meth:`~repro.system.inference.QuantizedInferenceEngine.apply_kernel_plans`
            instead of recompiling, so request #1 runs the hot path only.
    """

    scenario: str
    name: str
    config: Dict[str, Any]
    input_shape: Tuple[int, ...]
    model_arrays: Dict[str, Dict[str, np.ndarray]]
    layer_arrays: Optional[Dict[str, Dict[str, np.ndarray]]]
    calibration_levels: Dict[str, Dict[str, np.ndarray]]
    activation_scales: Dict[str, float]
    calibration_images: np.ndarray
    chip_latency_s: float
    chip_energy_j: float
    build_seconds: float = field(default=0.0)
    kernel_plans: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        serve_config: ServeConfig,
        *,
        model=None,
        inference_config: Optional[InferenceConfig] = None,
    ) -> "ChipProgram":
        """Pay the one-off setup cost and capture the programmed chip.

        Builds (or accepts) the scenario model, programs one chip, runs the
        calibration batch through it — which writes the ADC reference banks
        and records every layer's activation scale — and harvests the
        resulting state.

        Args:
            serve_config: The deployment configuration.
            model: Optional prebuilt scenario model (skips
                ``scenario.build``, e.g. when the caller already trained it).
            inference_config: Optional explicit replica config; defaults to
                ``serve_config.inference_config()``.
        """
        # build_seconds derives from this measurement; the same block is
        # the program.build span when tracing is enabled.
        build_t = timed(
            "program.build",
            scenario=serve_config.scenario,
            backend=serve_config.backend,
        )
        with build_t:
            program = cls._build_body(
                serve_config, model=model, inference_config=inference_config
            )
        program.build_seconds = build_t.duration_s
        return program

    @classmethod
    def _build_body(
        cls,
        serve_config: ServeConfig,
        *,
        model,
        inference_config: Optional[InferenceConfig],
    ) -> "ChipProgram":
        scenario = get_scenario(serve_config.scenario)
        config = inference_config or serve_config.inference_config()
        if model is None:
            model = scenario.build(seed=config.seed)
        workload = scenario.workload(
            images=serve_config.calibration_images, seed=serve_config.data_seed
        )
        calibration_images = np.asarray(workload.images)

        if config.backend == "device":
            simulator = ChipSimulator(
                model, config=config, name=serve_config.scenario
            )
            report = simulator.run(
                calibration_images, batch_size=len(calibration_images)
            )
            engine = simulator.inference
            scales = engine.freeze_activation_scales()
            levels = engine.calibration_levels()
            states = engine.layer_array_states()
            layer_arrays = {
                layer: arrays_from_state(state) for layer, state in states.items()
            }
            kernel_plans = engine.export_kernel_plans()
            chip_latency = float(report.performance.total_latency)
            chip_energy = float(report.performance.total_energy)
        else:
            engine = QuantizedInferenceEngine(model, config)
            scales = engine.freeze_activation_scales(calibration_images)
            levels = {}
            layer_arrays = None
            kernel_plans = {}
            if config.adc_bits is None:
                raise ValueError(
                    "a served chip needs a concrete adc_bits to price its "
                    "modeled latency / energy"
                )
            perf = SystemPerformanceModel(
                config.design,
                input_bits=config.input_bits,
                weight_bits=config.weight_bits,
                adc_bits=config.adc_bits,
                geometry=config.geometry,
            ).evaluate(network_spec_from_model(model, name=serve_config.scenario))
            chip_latency = float(perf.total_latency)
            chip_energy = float(perf.total_energy)

        return cls(
            scenario=serve_config.scenario,
            name=serve_config.scenario,
            config=config.to_dict(),
            input_shape=tuple(model.input_shape),
            model_arrays=model_arrays(model),
            layer_arrays=layer_arrays,
            calibration_levels=levels,
            activation_scales=scales,
            calibration_images=calibration_images,
            chip_latency_s=chip_latency,
            chip_energy_j=chip_energy,
            kernel_plans=kernel_plans,
        )

    # ------------------------------------------------------------ instantiate

    def instantiate(self, *, warm_up: bool = True) -> WarmChip:
        """Stamp out one warm replica of the programmed chip.

        Device programs restore the characterised cell state through the
        sweep-cache round trip (no variation draws are consumed), apply the
        captured reference levels, pin the activation scales, and run one
        calibration image as a warm-up request.  ``warm_up=False`` skips
        that request: a process-pool worker's first request runs about as
        fast without it, so there it would only delay the worker's start.
        Functional programs rebuild the engine and replay the calibration
        batch — the builder's own warmup, reproduced exactly.  Either way
        the replica's per-image results are bit-identical to the builder's.
        """
        with get_tracer().span("program.instantiate", scenario=self.scenario):
            model = get_scenario(self.scenario).load_model(
                self.model_arrays, seed=int(self.config["seed"])
            )
            config = InferenceConfig.from_dict(self.config)
            if config.backend == "device":
                assert self.layer_arrays is not None
                layer_states = {
                    layer: restore_state(config.design, arrays)
                    for layer, arrays in self.layer_arrays.items()
                }
                simulator = ChipSimulator(
                    model, config=config, layer_states=layer_states, name=self.name
                )
                engine = simulator.inference
                if self.calibration_levels:
                    engine.apply_calibration(self.calibration_levels)
                engine.apply_activation_scales(self.activation_scales)
                # Warm start: install the ahead-of-time compiled kernel tables
                # (zero-copy when they are shared-memory views), then precompile
                # whatever remains (direct-level tables; everything, for a
                # program that predates kernel plans) — request #1 runs the hot
                # path only.
                if self.kernel_plans:
                    engine.apply_kernel_plans(self.kernel_plans)
                engine.precompile()
                # One calibration image through the hot path, so request #1
                # finds warm host caches and an already-grown heap instead of
                # paying for them; references and scales are pinned, so it
                # changes no result.
                if warm_up:
                    engine.predict(self.calibration_images[:1], batch_size=1)
                return WarmChip(engine, simulator, self)
            engine = QuantizedInferenceEngine(model, config)
            engine.predict(
                self.calibration_images, batch_size=len(self.calibration_images)
            )
            engine.apply_activation_scales(self.activation_scales)
            return WarmChip(engine, None, self)

    def validate_request(self, image: np.ndarray) -> np.ndarray:
        """Coerce one request payload to the program's input shape."""
        image = np.asarray(image, dtype=float)
        if image.shape != self.input_shape:
            raise ValueError(
                f"request shape {image.shape} does not match the served "
                f"network's input shape {self.input_shape}"
            )
        return image

    # ------------------------------------------------------------ shared memory

    def _flat_arrays(self) -> Dict[str, np.ndarray]:
        """Every tensor of the program under one flat arena key space.

        ``model__{layer}__{name}`` float weights/biases,
        ``state__{layer}__{tensor}`` characterised cell arrays,
        ``levels__{layer}__{group}`` calibrated reference levels,
        ``plan__{layer}__{table}`` compiled kernel tables, and the
        ``calibration_images`` batch.  Layer names must not contain the
        ``__`` separator (scenario layer names never do).
        """
        sections = [
            ("model", self.model_arrays),
            ("state", self.layer_arrays or {}),
            ("levels", self.calibration_levels),
            ("plan", self.kernel_plans),
        ]
        flat: Dict[str, np.ndarray] = {"calibration_images": self.calibration_images}
        for section, payload in sections:
            for layer, arrays in payload.items():
                if _SEP in layer:
                    raise ValueError(
                        f"layer name {layer!r} contains the reserved "
                        f"separator {_SEP!r}"
                    )
                for tensor, array in arrays.items():
                    flat[f"{section}{_SEP}{layer}{_SEP}{tensor}"] = np.asarray(array)
        return flat

    def _arena_meta(self) -> Dict[str, Any]:
        """The program's JSON-safe scalars, stored in the arena manifest."""
        return {
            "scenario": self.scenario,
            "name": self.name,
            "config": self.config,
            "input_shape": [int(dim) for dim in self.input_shape],
            "activation_scales": {
                layer: float(scale)
                for layer, scale in self.activation_scales.items()
            },
            "chip_latency_s": float(self.chip_latency_s),
            "chip_energy_j": float(self.chip_energy_j),
            "build_seconds": float(self.build_seconds),
            "has_layer_arrays": self.layer_arrays is not None,
        }

    def share(self) -> Tuple["SharedProgramHandle", SharedArena]:
        """Pack the whole program into one shared-memory arena.

        Returns ``(handle, arena)``: the picklable handle is what crosses
        the process boundary (a few hundred bytes), the owning arena is
        what the caller must :meth:`~repro.engine.shm.SharedArena.unlink`
        when the deployment shuts down.  Workers reconstruct a zero-copy
        program with :meth:`SharedProgramHandle.load`.
        """
        arena = SharedArena.create(self._flat_arrays(), meta=self._arena_meta())
        return SharedProgramHandle(manifest=arena.manifest), arena

    @classmethod
    def from_arena(cls, arena: SharedArena) -> "ChipProgram":
        """Rebuild a program whose tensors are views into *arena*.

        The views are read-only; every consumer of a program either only
        reads its arrays (cell state, kernel tables, calibration batch) or
        copies out of them (model rebuild), so a shared program behaves
        exactly like a private one — ``instantiate()`` replicas are
        array-equal to pickle-path replicas.
        """
        meta = arena.meta
        sections: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {
            "model": {}, "state": {}, "levels": {}, "plan": {}
        }
        calibration_images = None
        for key in arena.keys():
            if key == "calibration_images":
                calibration_images = arena.view(key)
                continue
            section, layer, tensor = key.split(_SEP, 2)
            sections[section].setdefault(layer, {})[tensor] = arena.view(key)
        return cls(
            scenario=meta["scenario"],
            name=meta["name"],
            config=meta["config"],
            input_shape=tuple(meta["input_shape"]),
            model_arrays=sections["model"],
            layer_arrays=sections["state"] if meta["has_layer_arrays"] else None,
            calibration_levels=sections["levels"],
            activation_scales=meta["activation_scales"],
            calibration_images=calibration_images,
            chip_latency_s=meta["chip_latency_s"],
            chip_energy_j=meta["chip_energy_j"],
            build_seconds=meta["build_seconds"],
            kernel_plans=sections["plan"],
        )


@dataclass(frozen=True)
class SharedProgramHandle:
    """Picklable pointer to a :class:`ChipProgram` published in an arena.

    This is what the process pool ships to each worker instead of the
    pickled program: the worker attaches the segment and maps every tensor
    read-only, zero-copy.
    """

    manifest: ArenaManifest

    def load(self) -> Tuple[ChipProgram, SharedArena]:
        """Attach the arena and rebuild the zero-copy program.

        Returns ``(program, arena)``; keep the arena referenced for the
        program's lifetime (the worker global of
        :mod:`repro.serve.worker` does).
        """
        arena = SharedArena.attach(self.manifest)
        return ChipProgram.from_arena(arena), arena
