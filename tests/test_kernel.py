"""Single charge and discharge phases of the closed form against an ODE oracle.

Each phase is one line of the kernel: a rested capacitor charged through
one excitatory synapse, or charged to a known voltage on a first line and
then drained through one inhibitory synapse.  A voltage v0 on the
capacitor is reached by charging from rest for tau * ln(v_in / (v_in - v0)).

The frozen constants below were produced by fine-step RK4 integration of
dv/dt = (v_in - v)/tau and dv/dt = -v/tau in a standalone script, not by
the closed forms under test.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifcirc.kernel import duration_matrix, forward
from conftest import capacitances, resistances, voltages
from test_refusals import LIBRARY_REFUSALS, refusal_tests

R, TAU = 10e3, 10e3 * 1e-6  # 10 kOhm into 1 uF: tau = 10 ms


def phases(charge=(), discharge=(), cap=1e-6, v_in=1.0, extra=(0.0,)):
    """Final potentials after charging then discharging a rested capacitor.

    ``charge`` and ``discharge`` list (resistance, seconds) pairs, each on
    its own line.  ``extra`` adds seconds to the last line, one batch row
    per value, so one call returns the potential at several durations.
    """
    pairs = [(0, r, t) for r, t in charge] + [(1, r, t) for r, t in discharge]
    g = np.zeros((2, 1, len(pairs)))
    d = np.zeros((len(extra), len(pairs)))
    for line, (phase, r, t) in enumerate(pairs):
        g[phase, 0, line] = 1.0 / (r * cap)
        d[:, line] = t
    d[:, -1] += extra
    return forward(d, g, v_in).v[0].tolist()


def precharge(v0, r, tau, v_in=1.0):
    """The charge line through r that brings a rested capacitor to v0; tau = r * C."""
    return (r, -tau * math.log1p(-v0 / v_in))


def test_charge_step_matches_ode_oracle():
    (v,) = phases(charge=[precharge(0.5, R, TAU), (10e3, 0.01)])
    assert v == pytest.approx(0.8160602794142788, rel=1e-10)


def test_discharge_step_matches_ode_oracle():
    (v,) = phases(charge=[precharge(0.8, R, TAU)], discharge=[(10e3, 0.005)])
    assert v == pytest.approx(0.4852245277701068, rel=1e-10)


def test_one_tau_charge_reaches_63_percent():
    (v,) = phases(charge=[(10e3, 0.01)])
    assert v == pytest.approx(0.6321205588285577, rel=1e-10)


def test_one_tau_discharge_retains_37_percent():
    # a 1-ohm line charges the capacitor to the supply to the last bit
    (v,) = phases(charge=[(1.0, 1.0)], discharge=[(10e3, 0.01)])
    assert v == pytest.approx(0.3678794411714422, rel=1e-10)


def test_zero_duration_is_identity():
    (alone,) = phases(charge=[(10e3, 0.003)])
    (padded,) = phases(charge=[(10e3, 0.003), (5e3, 0.0)], discharge=[(1e3, 0.0)])
    assert padded == alone


def test_invalid_step_arguments_rejected():  # its refusals are rows of test_refusals.py
    # negative inputs clamp to zero time, never to a negative duration
    assert duration_matrix([(-0.5, -0.0)], 0.05).tolist() == [[0.0, 0.0, 0.05]]
    assert not np.signbit(duration_matrix([(-0.0,)], 0.05)).any()


@given(r=resistances, c=capacitances, v_in=voltages,
       frac=st.floats(0.0, 0.99), dt=st.floats(0.0, 1.0))
def test_charge_bounded_and_monotone(r, c, v_in, frac, dt):
    line = precharge(frac * v_in, r, r * c, v_in)
    v0, v1, v2 = phases(charge=[line, (r, 0.0)], cap=c, v_in=v_in, extra=(0.0, dt, dt + 0.01))
    assert v0 <= v1 <= v_in
    # longer stimulation can only get closer to the supply
    assert v2 >= v1


@given(r=resistances, c=capacitances, v_in=voltages,
       frac=st.floats(0.0, 0.99), dt=st.floats(0.0, 1.0))
def test_discharge_bounded_and_monotone(r, c, v_in, frac, dt):
    line = precharge(frac * v_in, r, r * c, v_in)
    v0, v1, v2 = phases(
        charge=[line], discharge=[(r, 0.0)], cap=c, v_in=v_in, extra=(0.0, dt, dt + 0.01)
    )
    assert 0.0 <= v1 <= v0
    assert v2 <= v1


@given(r=resistances, c=capacitances, v_in=voltages,
       dt1=st.floats(1e-6, 0.1), dt2=st.floats(1e-6, 0.1))
def test_charge_semigroup(r, c, v_in, dt1, dt2):
    """Two consecutive charge lines equal one combined line (same tau, same v_in)."""
    (split,) = phases(charge=[(r, dt1), (r, dt2)], cap=c, v_in=v_in)
    (joint,) = phases(charge=[(r, dt1 + dt2)], cap=c, v_in=v_in)
    assert math.isclose(split, joint, rel_tol=1e-12, abs_tol=1e-13 * v_in)


@given(r=resistances, c=capacitances, v_in=voltages,
       dt1=st.floats(1e-6, 0.1), dt2=st.floats(1e-6, 0.1))
def test_discharge_semigroup(r, c, v_in, dt1, dt2):
    full = (1.0, 1.0)  # charged to the supply before the discharge lines run
    (split,) = phases(charge=[full], discharge=[(r, dt1), (r, dt2)], cap=c, v_in=v_in)
    (joint,) = phases(charge=[full], discharge=[(r, dt1 + dt2)], cap=c, v_in=v_in)
    assert math.isclose(split, joint, rel_tol=1e-12, abs_tol=1e-13 * v_in)


globals().update(refusal_tests(LIBRARY_REFUSALS["test_kernel"]))
