"""Datasets used by the accuracy experiments (synthetic CIFAR10 substitute)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".synthetic": ("SyntheticImageConfig", "SyntheticImageDataset"),
})
