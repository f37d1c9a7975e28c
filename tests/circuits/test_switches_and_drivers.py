"""Tests for pre-charge, wordline driver and reference bank."""

import numpy as np
import pytest

from repro.circuits.precharge import PrechargeCircuit, PrechargeParameters
from repro.circuits.reference_bank import ReferenceBank, ReferenceBankParameters
from repro.circuits.wordline_driver import WordlineDriver, WordlineDriverParameters
from repro.devices.passives import Capacitor


class TestPrecharge:
    def test_settles_to_vpre_within_window(self):
        circuit = PrechargeCircuit()
        cap = Capacitor(50e-15)
        assert circuit.is_settled(cap, initial_voltage=1.0, tolerance=5e-3)

    def test_final_voltage_approaches_target(self):
        circuit = PrechargeCircuit()
        cap = Capacitor(50e-15)
        final = circuit.final_voltage(cap, 1.2)
        assert final == pytest.approx(1.5, abs=5e-3)

    def test_precharge_energy(self):
        circuit = PrechargeCircuit()
        cap = Capacitor(50e-15)
        # Recharging a 0.3 V droop costs C * Vpre * dV.
        assert circuit.precharge_energy(cap, 1.2) == pytest.approx(50e-15 * 1.5 * 0.3)

    def test_no_energy_when_already_charged(self):
        circuit = PrechargeCircuit()
        assert circuit.precharge_energy(Capacitor(50e-15), 1.6) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PrechargeParameters(precharge_voltage=0.0)
        with pytest.raises(ValueError):
            PrechargeParameters(precharge_time=0.0)


class TestWordlineDriver:
    def test_voltages_follow_bits(self):
        driver = WordlineDriver()
        voltages = driver.wordline_voltages([1, 0, 1])
        assert voltages[0] == driver.params.read_voltage
        assert voltages[1] == driver.params.idle_voltage

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            WordlineDriver().wordline_voltages([2])
        with pytest.raises(ValueError):
            WordlineDriver().energy([0, 3])

    def test_energy_counts_only_active_rows(self):
        driver = WordlineDriver()
        dense = driver.energy([1] * 32)
        sparse = driver.energy([1] * 8 + [0] * 24)
        assert dense == pytest.approx(4 * sparse)

    def test_latency(self):
        assert WordlineDriver().latency() == pytest.approx(0.5e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WordlineDriverParameters(wordline_capacitance=0.0)


class TestReferenceBank:
    def test_reference_range_orders_endpoints(self):
        bank = ReferenceBank()
        rising = bank.reference_range(lambda m: 0.5 + 1e-3 * m, 0, 480)
        assert rising[0] < rising[1]
        falling = bank.reference_range(lambda m: 1.5 - 1e-3 * m, 0, 480)
        assert falling[0] < falling[1]

    def test_invalid_mac_order(self):
        with pytest.raises(ValueError):
            ReferenceBank().reference_range(lambda m: m, 5, 5)

    def test_generation_energy_scales_with_bits(self):
        bank = ReferenceBank()
        assert bank.generation_energy(5) == pytest.approx(5 * bank.params.replica_energy_per_level)
        with pytest.raises(ValueError):
            bank.generation_energy(0)

    def test_latency(self):
        assert ReferenceBank().latency() > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReferenceBankParameters(num_reference_rows=0)
