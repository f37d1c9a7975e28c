"""Prebuilt layer-state reuse: program once, serve/run forever.

The serving pool (``repro.serve``) and the sweep cache both rely on the
same contract of :class:`ChipSimulator` / ``layer_states``: a chip whose
arrays were characterised once can be rebuilt from the harvested state —
or run repeatedly — without re-programming, and every such run is
bit-identical to the original.
"""

import numpy as np
import pytest

from repro.chipsim import ChipSimulator
from repro.chipsim.scenarios import get_scenario
from repro.sweep import arrays_from_state, restore_state


@pytest.fixture(scope="module")
def scenario_model():
    return get_scenario("tiny_mlp").build(seed=0)


@pytest.fixture(scope="module")
def workload(scenario_model):
    rng = np.random.default_rng(123)
    return rng.random((10, *scenario_model.input_shape))


@pytest.fixture(scope="module")
def cold_simulator(scenario_model):
    return ChipSimulator(scenario_model, design="curfe", adc_bits=5)


def test_repeated_runs_reuse_programmed_state(cold_simulator, workload):
    first = cold_simulator.run(workload)
    states_after_first = cold_simulator.inference.layer_array_states()
    second = cold_simulator.run(workload)
    # same programmed arrays, bit-identical outputs: the first run's lazy
    # workload calibration is reused, not recomputed differently
    np.testing.assert_array_equal(first.predictions, second.predictions)
    for name, state in cold_simulator.inference.layer_array_states().items():
        assert state is states_after_first[name]


def test_prebuilt_states_are_adopted_not_rebuilt(
    scenario_model, cold_simulator, workload
):
    states = cold_simulator.inference.layer_array_states()
    warm = ChipSimulator(
        scenario_model, design="curfe", adc_bits=5, layer_states=states
    )
    for name, quantized in warm.inference.quantized_layers.items():
        assert quantized.engine.array_state is states[name]
    np.testing.assert_array_equal(
        warm.run(workload).predictions, cold_simulator.run(workload).predictions
    )


def test_serialised_state_round_trip_is_bit_identical(
    scenario_model, cold_simulator, workload
):
    # the sweep-cache / serve-program path: harvest as plain arrays,
    # restore into fresh ArrayStates, inject into a new simulator
    config = cold_simulator.config
    restored = {
        name: restore_state(config.design, arrays_from_state(state))
        for name, state in cold_simulator.inference.layer_array_states().items()
    }
    warm = ChipSimulator(
        scenario_model, design="curfe", adc_bits=5, layer_states=restored
    )
    np.testing.assert_array_equal(
        warm.run(workload).predictions, cold_simulator.run(workload).predictions
    )


def test_partial_layer_states_are_rejected(scenario_model, cold_simulator):
    states = dict(cold_simulator.inference.layer_array_states())
    states.pop(next(iter(states)))
    with pytest.raises(ValueError, match="every weight layer"):
        ChipSimulator(
            scenario_model, design="curfe", adc_bits=5, layer_states=states
        )
