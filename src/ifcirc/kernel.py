"""The closed form of the circuit as one array kernel.

From a discharged capacitor, the excitatory phase charges each neuron
toward the supply and the inhibitory phase bleeds it to ground; both are
RC transients, so a whole stimulation collapses to

    V_e = v_in * (1 - exp(-D·G_e))      potential after the excitatory phase
    V   = V_e * exp(-D·G_i)             final membrane potential

D holds the stimulation time of every line, bias last, as ``durations``
of shape (n, lines).  G = 1/(R·C) per synapse, 0 where a line is unwired,
as ``conductances`` of shape (2, classes, lines), excitatory in [0].
Results are (classes, n).  Inference and energy accounting read V and V_e;
training differentiates V through :func:`sensitivities`.
Each line sum is an explicit loop over the few lines, never a BLAS
product, and the rest is elementwise, so a sample's potentials come from
the same float operations whatever the batch shape: a batch row is
bitwise equal to that sample evaluated alone.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .dataset import _check_real, _real_array

__all__ = ["Forward", "duration_matrix", "forward", "sensitivities"]


class Forward(NamedTuple):
    """One evaluation of the closed form over a batch; arrays are (classes, n)."""

    v_e: np.ndarray  # potential after the excitatory phase
    v: np.ndarray  # final potential
    factors: np.ndarray  # (2, classes, n): exp(-D·G_e) and exp(-D·G_i)


def duration_matrix(stimuli: Sequence[Sequence[float]], t_max: float) -> np.ndarray:
    """Stimulation time of every line, (n, inputs + 1), for n input vectors.

    Each component maps to clamp(x, 0, 1) * t_max; the bias line, appended
    last, always runs for the full t_max.  Negative inputs clamp to zero
    duration: a negative stimulation time has no physical meaning.  A stimulus
    that holds anything but real numbers, or NaN, is refused, and so is a
    ``t_max`` that is not a finite number > 0.
    """
    _check_real("t_max", t_max)
    x = _real_array(stimuli, "stimulus")
    if x.ndim != 2:
        raise ValueError(f"expected a batch of input vectors, got shape {x.shape}")
    if np.isnan(x).any():
        raise ValueError("stimulus contains NaN")
    durations = np.empty((x.shape[0], x.shape[1] + 1), order="F")  # contiguous lines
    np.clip(x, 0.0, 1.0, out=durations[:, :-1])
    durations[:, :-1] *= t_max
    durations[:, -1] = t_max
    durations += 0.0  # an input of -0.0 must not leave a -0.0 potential behind
    return durations


def forward(durations: np.ndarray, conductances: np.ndarray, v_in: float) -> Forward:
    """Potentials of every neuron for every input row of ``durations``."""
    rates = -conductances
    with np.errstate(over="ignore"):  # a line sum D·G past the largest float: exp(-inf) = 0
        exponents = rates[..., :1] * durations[:, 0]  # -D·G, (2, classes, n)
        for line in range(1, durations.shape[1]):
            exponents += rates[..., line : line + 1] * durations[:, line]
    factors = np.exp(exponents)
    # expm1 keeps V_e exact for short stimulations, where 1 - exp(...) cancels
    v_e = np.expm1(exponents[0])
    v_e *= -v_in
    return Forward(v_e, v_e * factors[1], factors)


def sensitivities(fwd: Forward, v_in: float) -> np.ndarray:
    """dV/d(D·G) per sample, (2, classes, n): v_in * exp(-D·G_e) * exp(-D·G_i) and -V."""
    return np.stack((v_in * fwd.factors[0] * fwd.factors[1], -fwd.v))
