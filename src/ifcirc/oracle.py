"""Fine-step numerical integration of the charge/discharge ODEs.

The closed form in :mod:`ifcirc.kernel` is the exact solution of

    charge:     tau * dV/dt = v_in - V
    discharge:  tau * dV/dt = -V

folded over a stimulation schedule, with tau = R * C per synapse.  This
module integrates those differential forms directly, slot by slot with
RK4, and shares no code with the kernel, so it is an independent
reference for it: the two must agree to ~1e-6 relative at the default
step of tau_min / 1000, where tau_min is the smallest time constant among
the neuron's synapses.
"""
from __future__ import annotations

import math
from itertools import chain, repeat

from .neuron import IFNeuron, Polarity, StimulationSchedule

__all__ = ["integrate_schedule"]

STEP_DIVISOR = 1000.0

# One march takes at most this many steps (a few seconds of RK4); a finer
# step or a longer slot is refused instead of running for hours.
MAX_STEPS = 10**7


def _march(v: float, target: float, tau: float, dt: float, step: float) -> float:
    """March tau * dV/dt = target - V from v over dt: target v_in charges, 0.0 discharges."""
    if dt / step > MAX_STEPS:
        raise ValueError(f"integrating {dt!r} s at step {step!r} s takes over {MAX_STEPS} steps")
    # Fixed steps plus one partial final step so the total duration is exact.
    n_full = int(dt // step)
    remainder = dt - n_full * step
    steps = repeat(step, n_full)
    if remainder > 0.0:
        steps = chain(steps, (remainder,))
    for h in steps:
        k1 = (target - v) / tau
        k2 = (target - (v + 0.5 * h * k1)) / tau
        k3 = (target - (v + 0.5 * h * k2)) / tau
        k4 = (target - (v + h * k3)) / tau
        v += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return v


def integrate_schedule(
    neuron: IFNeuron,
    schedule: StimulationSchedule,
    v_in: float,
    step_divisor: float = STEP_DIVISOR,
) -> float:
    """Slot-by-slot numerical integration from rest; reference for ``infer_network``.

    The step is the smallest time constant among the neuron's synapses
    over ``step_divisor``, so every transient is finely resolved.
    """
    if not (math.isfinite(step_divisor) and step_divisor > 0):
        raise ValueError(f"step divisor must be a finite number > 0, got {step_divisor}")
    synapses = neuron.synapse_map()
    if synapses:
        tau_min = min(s.resistance for s in neuron.synapses) * neuron.capacitance
    else:
        tau_min = 1.0  # no synapses -> nothing integrates; any step works
    step = tau_min / step_divisor
    if not step > 0.0:
        raise ValueError(
            f"time constant {tau_min!r} s over step divisor {step_divisor!r} "
            f"leaves an integrator step of {step!r} s; it must be > 0"
        )
    voltage = 0.0
    for slot in schedule.slots:
        syn = synapses.get((slot.input_index, slot.polarity))
        if syn is None or slot.duration == 0.0:
            continue
        tau = syn.resistance * neuron.capacitance
        target = v_in if slot.polarity is Polarity.EXCITATORY else 0.0
        voltage = _march(voltage, target, tau, slot.duration, step)
    return voltage
