"""Peripheral circuit substrate: TIA, SAR ADC, PCTs, accumulators, drivers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".accumulator": ("AccumulationModule", "AccumulatorParameters"),
    ".adc": ("ADCMode", "ADCParameters", "CalibratedMACQuantizer", "MACQuantizer", "SARADC"),
    ".precharge": ("PrechargeCircuit", "PrechargeParameters"),
    ".reference_bank": ("ReferenceBank", "ReferenceBankParameters"),
    ".tia": ("TIAParameters", "TransimpedanceAmplifier"),
    ".wordline_driver": ("WordlineDriver", "WordlineDriverParameters"),
})
