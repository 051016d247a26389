"""The fixed-step integrator used as ground truth elsewhere.

Here the roles flip: the analytic exponential solutions check the
integrator (convergence order, partial steps, step resolution), so the
two can legitimately vouch for each other in the acceptance sweep.
"""
import math

import pytest

from ifcirc import (
    IFNeuron,
    IntegratorConfig,
    Network,
    Polarity,
    RCParams,
    Synapse,
    build_schedule,
    infer_network,
    integrate_charge,
    integrate_discharge,
    integrate_schedule,
)

TEN_MS = RCParams(resistance=10e3, capacitance=1e-6)
EXACT_ONE_TAU = 1.0 - math.exp(-1.0)


def test_default_step_is_tau_over_1000():
    assert IntegratorConfig().resolve_step(0.01) == pytest.approx(1e-5)
    assert IntegratorConfig(step=2e-6).resolve_step(0.01) == 2e-6


def test_config_rejects_bad_arguments():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1e-6)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk5")


def test_march_refuses_more_than_max_steps():
    from ifcirc.oracle import MAX_STEPS

    cfg = IntegratorConfig(step=1e-9)
    with pytest.raises(ValueError, match=f"takes over {MAX_STEPS} steps"):
        integrate_charge(0.0, TEN_MS, v_in=1.0, dt=1e-9 * (MAX_STEPS + 1), cfg=cfg)
    with pytest.raises(ValueError, match=f"takes over {MAX_STEPS} steps"):
        integrate_discharge(1.0, TEN_MS, dt=1e300, cfg=cfg)


def test_rk4_matches_analytic_charge():
    v = integrate_charge(0.0, TEN_MS, v_in=1.0, dt=0.01)
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-9)


def test_rk4_matches_analytic_discharge():
    v = integrate_discharge(0.8, TEN_MS, dt=0.005)
    assert v == pytest.approx(0.8 * math.exp(-0.5), rel=1e-9)


def test_rk4_fourth_order_convergence():
    coarse = IntegratorConfig(step=TEN_MS.tau / 10)
    fine = IntegratorConfig(step=TEN_MS.tau / 20)
    err_coarse = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, coarse) - EXACT_ONE_TAU)
    err_fine = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, fine) - EXACT_ONE_TAU)
    assert err_coarse / err_fine >= 8.0  # O(h^4): halving the step gains ~16x


def test_euler_first_order_convergence():
    coarse = IntegratorConfig(step=TEN_MS.tau / 100, method="euler")
    fine = IntegratorConfig(step=TEN_MS.tau / 200, method="euler")
    err_coarse = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, coarse) - EXACT_ONE_TAU)
    err_fine = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, fine) - EXACT_ONE_TAU)
    assert 1.7 <= err_coarse / err_fine <= 2.3


def test_euler_is_much_coarser_than_rk4():
    cfg_e = IntegratorConfig(step=TEN_MS.tau / 100, method="euler")
    cfg_r = IntegratorConfig(step=TEN_MS.tau / 100, method="rk4")
    err_e = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, cfg_e) - EXACT_ONE_TAU)
    err_r = abs(integrate_charge(0.0, TEN_MS, 1.0, 0.01, cfg_r) - EXACT_ONE_TAU)
    assert err_e > 1e3 * err_r


def test_partial_final_step_covers_exact_duration():
    # dt = 2.5 steps at a deliberately coarse h = 0.4*tau: truncating the
    # remainder would land on 1-exp(-0.8) = 0.55, far outside even this
    # loose tolerance, while RK4's O(h^4) truncation error stays ~1e-4
    cfg = IntegratorConfig(step=0.004)
    v = integrate_charge(0.0, TEN_MS, 1.0, 0.01, cfg)
    assert v == pytest.approx(EXACT_ONE_TAU, rel=1e-3)


def test_zero_duration_returns_initial_voltage():
    assert integrate_charge(0.25, TEN_MS, 1.0, 0.0) == 0.25
    assert integrate_discharge(0.25, TEN_MS, 0.0) == 0.25


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        integrate_charge(0.0, TEN_MS, 1.0, -0.01)
    with pytest.raises(ValueError):
        integrate_discharge(0.0, TEN_MS, -0.01)


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
