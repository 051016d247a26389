"""The fixed-step integrator used as ground truth elsewhere.

Here the roles flip: the analytic exponential solutions check the
integrator (convergence order, partial steps, step resolution), so the
two can legitimately vouch for each other in the acceptance sweep.  The
single-phase checks run one line of a 10 kOhm, 1 uF neuron; a start from
v0 is a charge slot of tau * ln(v_in / (v_in - v0)) from rest.
"""
import math
import re

import pytest

from ifcirc import (
    IFNeuron,
    Network,
    Polarity,
    Slot,
    StimulationSchedule,
    Synapse,
    build_schedule,
    infer_network,
    integrate_schedule,
)
from ifcirc.oracle import MAX_STEPS, STEP_DIVISOR

R, C = 10e3, 1e-6
TAU = R * C  # 10 ms
EXACT_ONE_TAU = 1.0 - math.exp(-1.0)
CHARGE, DISCHARGE = Polarity.EXCITATORY, Polarity.INHIBITORY


def line(*slots, step_divisor=STEP_DIVISOR):
    """Oracle voltage after (polarity, seconds) slots on input 0, wired through R per polarity."""
    polarities = dict.fromkeys(polarity for polarity, _ in slots)
    neuron = IFNeuron("u", C, tuple(Synapse(0, polarity, R) for polarity in polarities))
    schedule = StimulationSchedule(tuple(Slot(0, polarity, t) for polarity, t in slots))
    return integrate_schedule(neuron, schedule, 1.0, step_divisor)


def precharge(v0):
    """The charge slot that brings the rested capacitor to v0 (v_in = 1)."""
    return (CHARGE, -TAU * math.log1p(-v0))


def test_default_step_is_tau_over_1000():
    # the refusal names the step: tau_min / divisor, tau_min from the faster synapse
    neuron = IFNeuron("u", C, (Synapse(0, CHARGE, R), Synapse(1, CHARGE, 2 * R)))
    schedule = StimulationSchedule((Slot(1, CHARGE, 1e300),))
    with pytest.raises(ValueError, match=re.escape(f"at step {TAU / 1000.0!r} s")):
        integrate_schedule(neuron, schedule, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"at step {TAU / 250.0!r} s")):
        integrate_schedule(neuron, schedule, 1.0, step_divisor=250.0)


def test_config_rejects_bad_arguments():
    for divisor in (0.0, -1000.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step divisor must be a finite number > 0"):
            line((CHARGE, 0.01), step_divisor=divisor)


def test_step_that_is_not_positive_is_refused():
    # R·C = 1e-300 s is a valid neuron, but tau_min / 1e30 underflows to a zero step
    neuron = IFNeuron("u", 1e-297, (Synapse(0, CHARGE, 1e-3),))
    with pytest.raises(ValueError, match="integrator step of 0.0 s; it must be > 0"):
        integrate_schedule(neuron, build_schedule((0.5,), 0.05), 1.0, step_divisor=1e30)
    # R·C that underflows to 0 (or leaves 1/(R·C) infinite) is refused with the neuron
    for capacitance in (1e-30, 1e-23):
        with pytest.raises(ValueError, match="too small for a finite conductance"):
            IFNeuron("u", capacitance, (Synapse(0, CHARGE, 1e-300),))


def test_march_refuses_more_than_max_steps():
    with pytest.raises(ValueError, match=f"takes over {MAX_STEPS} steps"):
        line((CHARGE, TAU / 1e7 * (MAX_STEPS + 1)), step_divisor=1e7)
    with pytest.raises(ValueError, match=f"takes over {MAX_STEPS} steps"):
        line((DISCHARGE, 1e300), step_divisor=1e7)


def test_rk4_matches_analytic_charge():
    v = line((CHARGE, 0.01))
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-9)


def test_rk4_matches_analytic_discharge():
    v = line(precharge(0.8), (DISCHARGE, 0.005))
    assert v == pytest.approx(0.8 * math.exp(-0.5), rel=1e-9)


def test_rk4_fourth_order_convergence():
    err_coarse = abs(line((CHARGE, 0.01), step_divisor=10) - EXACT_ONE_TAU)
    err_fine = abs(line((CHARGE, 0.01), step_divisor=20) - EXACT_ONE_TAU)
    assert err_coarse / err_fine >= 8.0  # O(h^4): halving the step gains ~16x


def test_partial_final_step_covers_exact_duration():
    # dt = 2.5 steps at a deliberately coarse h = 0.4*tau: truncating the
    # remainder would land on 1-exp(-0.8) = 0.55, far outside even this
    # loose tolerance, while RK4's O(h^4) truncation error stays ~1e-4
    v = line((CHARGE, 0.01), step_divisor=2.5)
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-3)


def test_zero_duration_returns_initial_voltage():
    v0 = line(precharge(0.25))
    assert line(precharge(0.25), (CHARGE, 0.0), (DISCHARGE, 0.0)) == v0
    assert v0 == pytest.approx(0.25, rel=1e-9)


def test_negative_duration_rejected():
    # a slot refuses a negative duration, so none reaches the integrator
    with pytest.raises(ValueError):
        line((CHARGE, -0.01))
    with pytest.raises(ValueError):
        line(precharge(0.5), (DISCHARGE, -0.01))


def test_schedule_integration_matches_closed_form():
    neuron = IFNeuron(
        label="u",
        capacitance=1e-6,
        synapses=(
            Synapse(0, Polarity.EXCITATORY, 20e3),
            Synapse(1, Polarity.EXCITATORY, 100e3),
            Synapse(2, Polarity.EXCITATORY, 1.5e3),
            Synapse(0, Polarity.INHIBITORY, 10e3),
            Synapse(1, Polarity.INHIBITORY, 6.8e3),
        ),
    )
    schedule = build_schedule((0.3, 0.7), t_max=0.05)
    ode = integrate_schedule(neuron, schedule, 1.0)
    (closed,) = infer_network(Network(neurons=(neuron,), n_inputs=2), (0.3, 0.7))
    assert ode == pytest.approx(closed, rel=1e-9)


def test_schedule_integration_skips_unmatched_slots():
    neuron = IFNeuron(
        label="u", capacitance=1e-6, synapses=(Synapse(0, Polarity.EXCITATORY, 10e3),)
    )
    schedule = build_schedule((1.0, 1.0), t_max=0.01)  # slots for inputs 1, 2 unmatched
    v = integrate_schedule(neuron, schedule, 1.0)
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-9)
