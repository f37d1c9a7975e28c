"""Named, parameterised scenario registry for the chip simulator and sweeps.

:class:`~repro.system.nn.SmallCNN` (the Fig. 10 accuracy workload) mostly
fits single macros; the multi-tile scenarios are built to *not* fit, so
row-tile partial-sum accumulation and column-tile sharding are genuinely
exercised.  Every entry is a :class:`Scenario` in the :data:`SCENARIOS`
registry — the single catalogue the benchmarks (``bench_chipsim_scale.py``,
``bench_sweep_grid.py``) and the design-space sweep runner
(:mod:`repro.sweep`) draw from:

* ``small_cnn`` / ``deep_cnn`` / ``wide_mlp`` — randomly initialised
  runtime networks of increasing tile footprint, evaluated for throughput,
  energy, and quantisation fidelity against their own float forward pass;
* ``tiny_mlp`` — a seconds-scale single-tile network for CI smoke sweeps;
* ``reference`` — the *trained* Fig. 10 reference classifier with its
  labelled synthetic test split (real accuracy numbers);
* ``resnet18_cifar10`` / ``resnet18_imagenet`` — shape-level
  :class:`~repro.system.networks.NetworkSpec` entries for analytic
  system-performance jobs (no runtime model).

Entries are declarative: a builder plus a parameter mapping, so variants
(e.g. a 32×32 ``deep_cnn``) are registered as data —
``SCENARIOS["deep_cnn"].with_params("deep_cnn_32", input_shape=(3, 32, 32))``
— instead of new functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..system.networks import NetworkSpec
from ..system.nn import Conv2D, Flatten, Linear, MaxPool2D, ReLU, SequentialNet

__all__ = [
    "Scenario",
    "ScenarioWorkload",
    "SCENARIOS",
    "model_arrays",
    "register_scenario",
    "get_scenario",
    "deep_cnn",
    "wide_mlp",
    "small_cnn",
    "tiny_mlp",
]


def small_cnn(
    *, input_shape: Tuple[int, int, int] = (3, 16, 16), num_classes: int = 10, seed: int = 0
) -> SequentialNet:
    """The reference :class:`~repro.system.nn.SmallCNN` (mostly single-tile)."""
    from ..system.nn import SmallCNN

    return SmallCNN(input_shape=input_shape, num_classes=num_classes, seed=seed)


def deep_cnn(
    *, input_shape: Tuple[int, int, int] = (3, 16, 16), num_classes: int = 10, seed: int = 0
) -> SequentialNet:
    """A deeper VGG-style CNN: three conv stages plus a wide classifier.

    For 16×16×3 inputs: conv3×3(3→16) → ReLU → pool2 → conv3×3(16→32) →
    ReLU → pool2 → conv3×3(32→48) → ReLU → flatten → fc(768→96) → ReLU →
    fc(96→C).  conv2 unrolls to 144×32 (2×2 tiles), conv3 to 288×48 (3×3
    tiles), fc1 to 768×96 (6×6 tiles) on the paper's 128×16 macros.
    """
    rng = np.random.default_rng(seed)
    channels, height, width = input_shape
    layers = [
        Conv2D(channels, 16, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(16, 32, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 48, 3, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Linear(48 * (height // 4) * (width // 4), 96, rng=rng),
        ReLU(),
        Linear(96, num_classes, rng=rng),
    ]
    return SequentialNet(layers, input_shape=input_shape, num_classes=num_classes)


def wide_mlp(
    *, input_shape: Tuple[int, int, int] = (3, 16, 16), num_classes: int = 10, seed: int = 0
) -> SequentialNet:
    """A wide MLP: flatten → fc(768→256) → ReLU → fc(256→64) → ReLU → fc(64→C).

    The first layer alone spans 6 row tiles × 16 column tiles (96 macros),
    making cross-tile partial sums the dominant digital activity.
    """
    rng = np.random.default_rng(seed)
    channels, height, width = input_shape
    features = channels * height * width
    layers = [
        Flatten(),
        Linear(features, 256, rng=rng),
        ReLU(),
        Linear(256, 64, rng=rng),
        ReLU(),
        Linear(64, num_classes, rng=rng),
    ]
    return SequentialNet(layers, input_shape=input_shape, num_classes=num_classes)


def tiny_mlp(
    *, input_shape: Tuple[int, int, int] = (1, 6, 6), num_classes: int = 4, seed: int = 0
) -> SequentialNet:
    """A seconds-scale MLP (flatten → fc(36→16) → ReLU → fc(16→C)).

    Fits a single macro tile; exists so CI smoke sweeps and the sweep-runner
    tests can run full device-detailed jobs in well under a second each.
    """
    rng = np.random.default_rng(seed)
    channels, height, width = input_shape
    layers = [
        Flatten(),
        Linear(channels * height * width, 16, rng=rng),
        ReLU(),
        Linear(16, num_classes, rng=rng),
    ]
    return SequentialNet(layers, input_shape=input_shape, num_classes=num_classes)


def _reference_trained(*, seed: int = 0, epochs: int = 12, **_ignored) -> SequentialNet:
    """The trained Fig. 10 reference classifier (process-cached)."""
    from ..system.training import reference_model_and_dataset

    model, _dataset, _baseline = reference_model_and_dataset(seed=seed, epochs=epochs)
    return model


def _reference_skeleton(*, seed: int = 0, epochs: int = 12, **overrides) -> SequentialNet:
    """The untrained reference architecture (``epochs`` is a training knob)."""
    return small_cnn(seed=seed, **overrides)


@dataclass(frozen=True)
class ScenarioWorkload:
    """The evaluation data of one scenario materialisation.

    Attributes:
        images: Input batch of shape (N, C, H, W).
        labels: Ground-truth labels, or None when the scenario has no
            labelled data (randomly initialised networks).
    """

    images: np.ndarray
    labels: Optional[np.ndarray]


@dataclass(frozen=True)
class Scenario:
    """A named, parameterised benchmark scenario.

    Attributes:
        name: Registry key.
        description: One-line description.
        builder: Model factory (keyword args: ``seed`` plus ``params``);
            None for spec-only scenarios.
        params: Declarative builder parameters merged under any call-site
            overrides — variants are registered as data, not as new
            functions.
        spec_builder: Shape-level :class:`NetworkSpec` factory for analytic
            performance jobs; runtime scenarios derive their spec from the
            built model instead.
        trained: True when ``build`` returns a *trained* model (slow —
            worth caching); such scenarios also provide ``skeleton`` so a
            weight cache can rebuild the architecture without retraining.
        skeleton: Untrained architecture factory matching ``builder``'s
            output (trained scenarios only).
        data_builder: Workload factory ``(images, seed, params) ->
            ScenarioWorkload``; None selects uniform random inputs without
            labels.
    """

    name: str
    description: str
    builder: Optional[Callable[..., SequentialNet]] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    spec_builder: Optional[Callable[[], NetworkSpec]] = None
    trained: bool = False
    skeleton: Optional[Callable[..., SequentialNet]] = None
    data_builder: Optional[Callable[..., ScenarioWorkload]] = None

    def __post_init__(self) -> None:
        if self.builder is None and self.spec_builder is None:
            raise ValueError(
                f"scenario {self.name!r} needs a builder or a spec_builder"
            )
        if self.trained and self.builder is not None and self.skeleton is None:
            raise ValueError(
                f"trained scenario {self.name!r} must provide a skeleton "
                "factory for weight-cache rebuilds"
            )

    # -------------------------------------------------------------- interface

    @property
    def runtime(self) -> bool:
        """True when the scenario builds an executable model."""
        return self.builder is not None

    def build(self, *, seed: int = 0, **overrides) -> SequentialNet:
        """Build the scenario's model (training it for trained scenarios)."""
        if self.builder is None:
            raise ValueError(
                f"scenario {self.name!r} is spec-only (analytic jobs); it "
                "has no runtime model"
            )
        return self.builder(seed=seed, **{**dict(self.params), **overrides})

    def build_skeleton(self, *, seed: int = 0, **overrides) -> SequentialNet:
        """Build the untrained architecture (for weight-cache restores)."""
        factory = self.skeleton if self.trained else self.builder
        if factory is None:
            raise ValueError(f"scenario {self.name!r} has no runtime model")
        return factory(seed=seed, **{**dict(self.params), **overrides})

    def load_model(
        self, arrays: Mapping[str, Mapping[str, np.ndarray]], *, seed: int = 0
    ) -> SequentialNet:
        """The architecture with :func:`model_arrays` weights loaded.

        Builds the skeleton (never retrains) and copies every weight
        layer's ``"weight"`` and ``"bias"`` into it.

        Raises:
            ValueError: When *arrays* miss a weight layer.
        """
        model = self.build_skeleton(seed=seed)
        weight_layers = model.weight_layers()
        missing = set(weight_layers) - set(arrays)
        if missing:
            raise ValueError(
                f"model arrays do not cover weight layers {sorted(missing)}"
            )
        for name, layer in weight_layers.items():
            layer.weight[...] = arrays[name]["weight"]
            layer.bias[...] = arrays[name]["bias"]
        return model

    def network_spec(self) -> NetworkSpec:
        """The shape-level network spec (spec-only scenarios)."""
        if self.spec_builder is None:
            raise ValueError(
                f"scenario {self.name!r} has no spec builder; derive the "
                "spec from the built model instead"
            )
        return self.spec_builder()

    def workload(self, *, images: int, seed: int) -> ScenarioWorkload:
        """Materialise the evaluation batch (deterministic in ``seed``).

        Scenarios without a ``data_builder`` draw uniform random inputs and
        carry no labels (their quality metric is fidelity against their own
        float forward pass); labelled scenarios return real test data.
        """
        if images < 1:
            raise ValueError("images must be positive")
        if self.data_builder is not None:
            return self.data_builder(images=images, seed=seed, params=dict(self.params))
        model_shape = self.build_skeleton(seed=0).input_shape
        rng = np.random.default_rng(seed)
        return ScenarioWorkload(
            images=rng.random((images, *model_shape)), labels=None
        )

    def with_params(
        self, name: str, *, description: Optional[str] = None, **params
    ) -> "Scenario":
        """A derived entry with updated parameters (not auto-registered)."""
        return replace(
            self,
            name=name,
            description=description or self.description,
            params={**dict(self.params), **params},
        )


def model_arrays(model: SequentialNet) -> Dict[str, Dict[str, np.ndarray]]:
    """Copies of a model's float weights as ``{layer: {"weight", "bias"}}``.

    The one weight format of the sweep's trained-model cache and of the
    serving :class:`~repro.serve.ChipProgram`;
    :meth:`Scenario.load_model` loads it back.
    """
    return {
        name: {
            "weight": np.array(layer.weight, copy=True),
            "bias": np.array(layer.bias, copy=True),
        }
        for name, layer in model.weight_layers().items()
    }


def _reference_workload(*, images: int, seed: int, params: Mapping[str, Any]) -> ScenarioWorkload:
    """The labelled synthetic test split the reference model was trained for.

    ``seed`` is ignored on purpose: the split is fixed by the dataset seed
    (1234, the same configuration ``reference_model_and_dataset`` trains
    on), so every sweep job of the scenario scores the same images.  The
    dataset is built directly — *not* through the training entry point —
    so a worker that restored the trained weights from the sweep cache
    never pays for training just to fetch the evaluation data.
    """
    from ..system.training import reference_dataset

    dataset = reference_dataset()
    return ScenarioWorkload(
        images=dataset.test_images[:images], labels=dataset.test_labels[:images]
    )


#: Scenario registry swept by ``bench_chipsim_scale.py`` / ``bench_sweep_grid.py``.
SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name collisions raise)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario, failing with the available names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        ) from None


register_scenario(
    Scenario(
        name="small_cnn",
        description="Fig. 10 reference CNN (mostly single-tile layers)",
        builder=small_cnn,
    )
)
register_scenario(
    Scenario(
        name="deep_cnn",
        description="deeper VGG-style CNN (multi-row x multi-column tiles)",
        builder=deep_cnn,
    )
)
register_scenario(
    Scenario(
        name="wide_mlp",
        description="wide MLP (96-macro first layer, cross-tile psums)",
        builder=wide_mlp,
    )
)
register_scenario(
    Scenario(
        name="tiny_mlp",
        description="seconds-scale single-tile MLP (CI smoke sweeps)",
        builder=tiny_mlp,
    )
)
register_scenario(
    Scenario(
        name="reference",
        description="trained Fig. 10 reference classifier + labelled test split",
        builder=_reference_trained,
        params={"epochs": 12},
        trained=True,
        skeleton=_reference_skeleton,
        data_builder=_reference_workload,
    )
)


def _resnet18_cifar10_spec() -> NetworkSpec:
    from ..system.networks import resnet18_cifar10

    return resnet18_cifar10()


def _resnet18_imagenet_spec() -> NetworkSpec:
    from ..system.networks import resnet18_imagenet

    return resnet18_imagenet()


register_scenario(
    Scenario(
        name="resnet18_cifar10",
        description="ResNet18 / CIFAR10 shape spec (analytic system perf)",
        spec_builder=_resnet18_cifar10_spec,
    )
)
register_scenario(
    Scenario(
        name="resnet18_imagenet",
        description="ResNet18 / ImageNet shape spec (analytic system perf)",
        spec_builder=_resnet18_imagenet_spec,
    )
)
