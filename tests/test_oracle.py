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
    Slot,
    StimulationSchedule,
    Synapse,
    build_schedule,
    infer_network,
    integrate_schedule,
)
from ifcirc.oracle import MAX_STEPS, STEP_DIVISOR
from conftest import wiring

R, C = 10e3, 1e-6
TAU = R * C  # 10 ms
EXACT_ONE_TAU = 1.0 - math.exp(-1.0)
CHARGE, DISCHARGE = "excitatory", "inhibitory"


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
    # each slot steps at its own tau / divisor: a fast synapse elsewhere on the neuron
    # changes no other slot's march, bit for bit
    slots = StimulationSchedule((Slot(1, CHARGE, 0.03), Slot(1, DISCHARGE, 0.01)))
    own = (Synapse(1, CHARGE, 2 * R), Synapse(1, DISCHARGE, 3 * R))
    alone = IFNeuron("u", C, own)
    beside_fast = IFNeuron("u", C, (Synapse(0, CHARGE, R / 100), *own))
    for divisor in (STEP_DIVISOR, 250.0):
        v = integrate_schedule(alone, slots, 1.0, divisor)
        assert integrate_schedule(beside_fast, slots, 1.0, divisor) == v
    # the refusal names the slot's time constants, dt / (R·C) of its own synapse, and the divisor
    schedule = StimulationSchedule((Slot(1, CHARGE, 1e300),))
    refusal = f"integrating {1e300 / (2 * R * C)!r} time constants at {{}} steps each"
    with pytest.raises(ValueError, match=re.escape(refusal.format(1000.0))):
        integrate_schedule(beside_fast, schedule, 1.0)
    with pytest.raises(ValueError, match=re.escape(refusal.format(250.0))):
        integrate_schedule(beside_fast, schedule, 1.0, step_divisor=250.0)


def test_config_rejects_bad_arguments():
    for divisor in (0.0, -1000.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step divisor must be a finite number > 0"):
            line((CHARGE, 0.01), step_divisor=divisor)


def test_a_divisor_whose_step_overflows_is_refused():
    # 1 / 1e-320 is inf: the partial step would be inf * 0 = nan and skip every slot (0 V)
    with pytest.raises(ValueError, match=re.escape("step divisor 1e-320 is too small")):
        line((CHARGE, 0.01), step_divisor=1e-320)
    # a divisor of 1e-308 leaves a finite step: one RK4 step of the whole slot, 1 - 3/8
    assert line((CHARGE, 0.01), step_divisor=1e-308) == pytest.approx(0.625, rel=1e-12)


def test_step_that_is_not_positive_is_refused():
    # a step of 1/divisor cannot underflow to 0, and R·C that underflows to 0
    # (or leaves 1/(R·C) infinite) is refused with the neuron
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
    table = wiring(2, {
        (0, "excitatory"): 20e3,
        (1, "excitatory"): 100e3,
        (2, "excitatory"): 1.5e3,
        (0, "inhibitory"): 10e3,
        (1, "inhibitory"): 6.8e3,
    })
    net = Network(("u",), table, 1e-6)
    schedule = build_schedule((0.3, 0.7), t_max=0.05)
    ode = integrate_schedule(net.neurons[0], schedule, 1.0)
    (closed,) = infer_network(net, (0.3, 0.7))
    assert ode == pytest.approx(closed, rel=1e-9)


def test_schedule_integration_skips_unmatched_slots():
    neuron = IFNeuron(
        label="u", capacitance=1e-6, synapses=(Synapse(0, "excitatory", 10e3),)
    )
    schedule = build_schedule((1.0, 1.0), t_max=0.01)  # slots for inputs 1, 2 unmatched
    v = integrate_schedule(neuron, schedule, 1.0)
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-9)


def test_a_slot_spelled_as_in_model_files_charges():
    # the oracle told charge from discharge by identity with an enum member, so this
    # slot matched its synapse and was marched as a discharge: 0.0 V
    neuron = IFNeuron("a", 1e-6, (Synapse(1, "excitatory", 1e4),))
    schedule = StimulationSchedule((Slot(1, "excitatory", 0.01),))
    assert integrate_schedule(neuron, schedule, 1.0) == pytest.approx(EXACT_ONE_TAU, rel=1e-9)
