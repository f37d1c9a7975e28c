"""Shared fixtures for the serving-runtime tests.

Chip programs are the expensive part of every serving test, and they are
immutable once built — so the tiny-scenario programs are built once per
session and shared.
"""

import numpy as np
import pytest

from repro.serve import ChipProgram, ServeConfig


@pytest.fixture(scope="session")
def device_serve_config():
    """The tiny device-backend deployment every serving test starts from."""
    return ServeConfig(
        scenario="tiny_mlp",
        backend="device",
        design="curfe",
        device_exec="fused",
        calibration_images=8,
        replicas=1,
        max_batch=4,
    )


@pytest.fixture(scope="session")
def functional_serve_config():
    """The matching functional-backend deployment."""
    return ServeConfig(
        scenario="tiny_mlp",
        backend="functional",
        design="curfe",
        calibration_images=8,
        replicas=1,
        max_batch=4,
    )


@pytest.fixture(scope="session")
def device_program(device_serve_config):
    """One device-backend chip program, built once for the whole session."""
    return ChipProgram.build(device_serve_config)


@pytest.fixture(scope="session")
def functional_program(functional_serve_config):
    """One functional-backend chip program, built once for the session."""
    return ChipProgram.build(functional_serve_config)


@pytest.fixture(scope="session")
def request_images(device_program):
    """A deterministic request workload larger than the image pool's batch."""
    rng = np.random.default_rng(77)
    return rng.random((13, *device_program.input_shape))
