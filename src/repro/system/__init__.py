"""System-level evaluation: NeuroSim-style performance model, DNN inference, accuracy."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".accuracy": ("AccuracyPoint", "AccuracySweep", "adc_resolution_sweep", "evaluate_accuracy"),
    ".activity": ("LayerActivity",),
    ".chip": ("BufferParameters", "ChipParameters", "DigitalLogicParameters"),
    ".htree": ("HTree", "HTreeParameters"),
    ".inference": ("InferenceConfig", "QuantizedInferenceEngine"),
    ".layers": ("ConvLayer", "LayerShape", "LinearLayer", "PoolLayer"),
    ".mapping": ("LayerMapping", "MacroGeometry", "map_layer"),
    ".networks": ("NetworkSpec", "resnet18_cifar10", "resnet18_imagenet", "vgg8_cifar10"),
    ".nn": ("SequentialNet", "SmallCNN"),
    ".performance": (
        "LayerPerformance",
        "SystemPerformanceModel",
        "SystemPerformanceResult",
    ),
    ".training": (
        "TrainingConfig",
        "TrainingHistory",
        "reference_model_and_dataset",
        "train_small_cnn",
    ),
})
