"""Fine-step numerical integration of the charge/discharge ODEs.

The closed form in :mod:`ifcirc.kernel` is the exact solution of

    charge:     tau * dV/dt = v_in - V
    discharge:  tau * dV/dt = -V

folded over a stimulation schedule, with tau = R * C per synapse.  This
module integrates those differential forms directly, slot by slot with
RK4, and shares no code with the kernel, so it is an independent
reference for it: the two must agree to ~1e-6 relative.  Each slot is
marched in units of its own time constant, dV/ds = target - V with
s = t / tau, at the default step of 1/1000 of that tau.
"""
from __future__ import annotations

import math
from itertools import chain, repeat

from .dataset import _check_real
from .neuron import IFNeuron, StimulationSchedule

__all__ = ["integrate_schedule"]

STEP_DIVISOR = 1000.0

# One march takes at most this many steps (a few seconds of RK4); a finer
# step or a longer slot is refused instead of running for hours.
MAX_STEPS = 10**7


def _march(v: float, target: float, x: float, step_divisor: float) -> float:
    """March dV/ds = target - V from v over x = dt / tau: target v_in charges, 0.0 discharges."""
    if x * step_divisor > MAX_STEPS:
        raise ValueError(
            f"integrating {x!r} time constants at {step_divisor!r} steps each "
            f"takes over {MAX_STEPS} steps"
        )
    # Fixed steps plus one partial final step so the total duration is exact.
    step = 1.0 / step_divisor
    n_full = int(x // step)
    remainder = x - n_full * step
    steps = repeat(step, n_full)
    if remainder > 0.0:
        steps = chain(steps, (remainder,))
    for h in steps:
        k1 = target - v
        k2 = target - (v + 0.5 * h * k1)
        k3 = target - (v + 0.5 * h * k2)
        k4 = target - (v + h * k3)
        v += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return v


def integrate_schedule(
    neuron: IFNeuron,
    schedule: StimulationSchedule,
    v_in: float,
    step_divisor: float = STEP_DIVISOR,
) -> float:
    """Slot-by-slot numerical integration from rest; reference for ``infer_network``.

    Each slot is stepped at its own time constant R * C over ``step_divisor``,
    so every transient is resolved alike, whatever the neuron's other synapses.
    """
    _check_real("v_in", v_in)
    _check_real("step divisor", step_divisor)
    if math.isinf(1.0 / step_divisor):
        raise ValueError(
            f"step divisor {step_divisor!r} is too small: the step 1/divisor overflows"
        )
    synapses = neuron.synapse_map()
    voltage = 0.0
    for slot in schedule.slots:
        syn = synapses.get((slot.input_index, slot.polarity))
        if syn is None or slot.duration == 0.0:
            continue
        x = slot.duration / (syn.resistance * neuron.capacitance)
        target = v_in if slot.polarity == "excitatory" else 0.0
        voltage = _march(voltage, target, x, step_divisor)
    return voltage
