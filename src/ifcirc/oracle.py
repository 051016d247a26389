"""Fine-step numerical integration of the charge/discharge ODEs.

The closed form in :mod:`ifcirc.kernel` is the exact solution of

    charge:     tau * dV/dt = v_in - V
    discharge:  tau * dV/dt = -V

folded over a stimulation schedule.  This module integrates those
differential forms directly, slot by slot (RK4 by default, Euler for
convergence-order checks), and shares no code with the kernel, so it is an
independent reference for it: the two must agree to ~1e-6 relative at the
default step of tau_min / 1000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .neuron import IFNeuron, Polarity, StimulationSchedule
from .rc import RCParams

__all__ = ["IntegratorConfig", "integrate_charge", "integrate_discharge", "integrate_schedule"]

_METHODS = ("rk4", "euler")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    ``step=None`` resolves to tau_min / 1000 of the system under test,
    where tau_min is the smallest time constant involved.
    """

    step: float | None = None  # seconds
    method: str = "rk4"

    def __post_init__(self) -> None:
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"integrator step must be > 0, got {self.step}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")

    def resolve_step(self, tau_min: float) -> float:
        return self.step if self.step is not None else tau_min / 1000.0


DEFAULT_CONFIG = IntegratorConfig()


def _march_charge(v: float, v_in: float, tau: float, dt: float, step: float, method: str) -> float:
    # Fixed steps plus one partial final step so the total duration is exact.
    n_full = int(dt // step)
    remainder = dt - n_full * step
    steps = [step] * n_full
    if remainder > 0.0:
        steps.append(remainder)
    if method == "euler":
        for h in steps:
            v += h * (v_in - v) / tau
        return v
    for h in steps:
        k1 = (v_in - v) / tau
        k2 = (v_in - (v + 0.5 * h * k1)) / tau
        k3 = (v_in - (v + 0.5 * h * k2)) / tau
        k4 = (v_in - (v + h * k3)) / tau
        v += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return v


def _march_discharge(v: float, tau: float, dt: float, step: float, method: str) -> float:
    n_full = int(dt // step)
    remainder = dt - n_full * step
    steps = [step] * n_full
    if remainder > 0.0:
        steps.append(remainder)
    if method == "euler":
        for h in steps:
            v -= h * v / tau
        return v
    for h in steps:
        k1 = -v / tau
        k2 = -(v + 0.5 * h * k1) / tau
        k3 = -(v + 0.5 * h * k2) / tau
        k4 = -(v + h * k3) / tau
        v += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return v


def integrate_charge(
    v0: float, params: RCParams, v_in: float, dt: float, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Numerically integrate tau * dV/dt = v_in - V from v0 over dt."""
    if not (math.isfinite(dt) and dt >= 0.0):
        raise ValueError(f"duration must be >= 0, got {dt}")
    if dt == 0.0:
        return v0
    return _march_charge(v0, v_in, params.tau, dt, cfg.resolve_step(params.tau), cfg.method)


def integrate_discharge(
    v0: float, params: RCParams, dt: float, cfg: IntegratorConfig = DEFAULT_CONFIG
) -> float:
    """Numerically integrate tau * dV/dt = -V from v0 over dt."""
    if not (math.isfinite(dt) and dt >= 0.0):
        raise ValueError(f"duration must be >= 0, got {dt}")
    if dt == 0.0:
        return v0
    return _march_discharge(v0, params.tau, dt, cfg.resolve_step(params.tau), cfg.method)


def integrate_schedule(
    neuron: IFNeuron,
    schedule: StimulationSchedule,
    v_in: float,
    cfg: IntegratorConfig = DEFAULT_CONFIG,
) -> float:
    """Slot-by-slot numerical integration; reference for ``infer_network``.

    The step resolves against the smallest time constant among the
    neuron's synapses so every transient is finely resolved.
    """
    synapses = neuron.synapse_map()
    if synapses:
        tau_min = min(s.resistance for s in neuron.synapses) * neuron.capacitance
    else:
        tau_min = 1.0  # no synapses -> nothing integrates; any step works
    step = cfg.resolve_step(tau_min)
    voltage = 0.0
    for slot in schedule.slots:
        syn = synapses.get((slot.input_index, slot.polarity))
        if syn is None or slot.duration == 0.0:
            continue
        tau = syn.resistance * neuron.capacitance
        if slot.polarity is Polarity.EXCITATORY:
            voltage = _march_charge(voltage, v_in, tau, slot.duration, step, cfg.method)
        else:
            voltage = _march_discharge(voltage, tau, slot.duration, step, cfg.method)
    return voltage
