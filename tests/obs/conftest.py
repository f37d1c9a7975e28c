"""Shared fixtures for the observability tests.

Every test leaves the process-wide tracer exactly as it found it — the
suite runs in one process, so a leaked collecting tracer would silently
change other tests' hot paths.
"""

import numpy as np
import pytest

from repro.obs.tracer import get_tracer, set_tracer
from repro.serve import ChipProgram, ServeConfig


@pytest.fixture(autouse=True)
def restore_tracer():
    """Snapshot/restore the global tracer around every test."""
    previous = get_tracer()
    yield
    set_tracer(previous)


@pytest.fixture(scope="session")
def obs_serve_config():
    """A tiny single-replica device deployment for tracing tests."""
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
def obs_program(obs_serve_config):
    """One chip program built once for the whole observability session."""
    return ChipProgram.build(obs_serve_config)


@pytest.fixture(scope="session")
def obs_request_images(obs_program):
    """A deterministic request workload spanning several batches."""
    rng = np.random.default_rng(321)
    return rng.random((9, *obs_program.input_shape))
