"""The resistor-capacitor pair behind a single synapse.

An excitatory synapse is a series resistor driving the membrane capacitor
from a supply voltage; an inhibitory synapse is a transistor-gated parallel
resistor that bleeds the capacitor to ground.  Both transients are
first-order linear ODEs with time constant tau = R * C:

    charge:     tau * dV/dt = v_in - V
    discharge:  tau * dV/dt = -V

Their exact solutions, folded over a whole stimulation, are the closed
form in :mod:`ifcirc.kernel`; :mod:`ifcirc.oracle` integrates the ODEs
themselves.  All quantities are plain SI floats (ohms, farads, seconds,
volts).  The circuit is treated as ideal: no capacitor leakage, no
transistor on-resistance, no diode drops.  Hardware quantization lives in
:mod:`ifcirc.hardware`, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RCParams"]


@dataclass(frozen=True)
class RCParams:
    """One resistor-capacitor pair, the physics behind a single synapse."""

    resistance: float  # ohms
    capacitance: float  # farads

    def __post_init__(self) -> None:
        if not (math.isfinite(self.resistance) and self.resistance > 0):
            raise ValueError(f"resistance must be a positive real, got {self.resistance}")
        if not (math.isfinite(self.capacitance) and self.capacitance > 0):
            raise ValueError(f"capacitance must be a positive real, got {self.capacitance}")

    @property
    def tau(self) -> float:
        """Seconds to reach ~63.2% of the target voltage (or to retain ~36.8%)."""
        return self.resistance * self.capacitance
