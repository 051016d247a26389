"""Hardware realization: resistor catalogs, readout noise, energy.

Trained resistances land on arbitrary reals, but a physical build picks
from a parts catalog.  The default catalog keeps one significant digit
(3230 ohms -> 3000 ohms); E12/E24 series and explicit part lists are also
supported.  A catalog is its sorted array of parts, and rounding is one
lookup of the nearest part by absolute distance, ties toward the larger part.

Energy accounting follows the capacitor.  The excitatory phase charges it
from rest to V_e, drawing q = C * V_e from the supply at voltage v_in, so
the supply delivers C * v_in * V_e; the capacitor stores C * V_e^2 / 2 of
that and the series resistors dissipate the rest.  The inhibitory phase
draws nothing and turns C * (V_e^2 - V^2) / 2 of the stored energy into
heat.  Summed over both phases: supply = C * v_in * V_e, stored = C * V^2 / 2
and dissipated = supply - stored.  :func:`energy_per_inference` computes
them here from V_e and V, taken through the same kernel entry as inference.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from .dataset import _check_real, _write_rows
from .neuron import Network, _forward, infer_batch, infer_network

__all__ = [
    "E12_MANTISSAS",
    "E24_MANTISSAS",
    "ResistorCatalog",
    "DEFAULT_CATALOG",
    "round_resistance",
    "quantize_network",
    "perturb_readout",
    "MAX_GRID_POINTS",
    "ResponseMap",
    "response_map",
    "write_response_map_csv",
    "NeuronEnergy",
    "EnergyReport",
    "energy_per_inference",
    "energy_report_to_dict",
    "max_inference_time",
]

E12_MANTISSAS = (1.0, 1.2, 1.5, 1.8, 2.2, 2.7, 3.3, 3.9, 4.7, 5.6, 6.8, 8.2)
E24_MANTISSAS = (
    1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0,
    3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6, 6.2, 6.8, 7.5, 8.2, 9.1,
)

_SERIES = {"one_significant_digit": range(1, 10), "e12": E12_MANTISSAS, "e24": E24_MANTISSAS}


@dataclass(frozen=True)
class ResistorCatalog:
    """Purchasable resistances: ``parts``, the sorted, read-only array built when first read.

    ``custom`` mode takes a non-empty list of positive ``values``, which are its parts.  A series
    part is the literal ``f"{m}e{e}"`` of a mantissa m and decade e from 1e-307 up, if finite.
    """

    mode: str = "one_significant_digit"
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(self.values)  # an array has no truth value
        if self.mode == "custom":
            if not values:
                raise ValueError("custom catalog needs at least one value")
            for value in values:
                _check_real("catalog value", value)
        elif self.mode not in _SERIES:
            choices = ", ".join([*_SERIES, "custom"])
            raise ValueError(f"unknown catalog mode {self.mode!r} (one of: {choices})")
        elif values:
            raise ValueError(f"mode {self.mode!r} does not take explicit values")
        object.__setattr__(self, "values", tuple(sorted(values)))  # sorted once each is a number

    @cached_property
    def parts(self) -> np.ndarray:
        if self.mode == "custom":
            parts = np.array(self.values, dtype=float)  # sorted, and a float conversion keeps order
        else:  # decade by decade, each mantissa in turn, so ascending; 9e308 parses to inf
            literals = (float(f"{m}e{e}") for e in range(-307, 309) for m in _SERIES[self.mode])
            parts = np.fromiter((p for p in literals if p < math.inf), float)
        parts.flags.writeable = False
        return parts

    def _nearest(self, r: np.ndarray) -> np.ndarray:
        """The nearest part to each resistance, ties going larger; a series refuses one below it."""
        if self.mode != "custom" and (low := r < self.parts[0]).any():  # names the first in C order
            raise ValueError(f"resistance {float(r[low][0])!r} ohms is below 1e-307, "
                             f"the lowest decade of the {self.mode} series")
        i = np.searchsorted(self.parts, r).clip(1, len(self.parts) - 1)  # past an end: that end
        lo, hi = self.parts[i - 1], self.parts[i]
        return np.where(hi - r <= r - lo, hi, lo)


DEFAULT_CATALOG = ResistorCatalog()


def round_resistance(resistance: float, catalog: ResistorCatalog = DEFAULT_CATALOG) -> float:
    """Snap one resistance to its nearest catalog part (ties go larger), as quantizing does."""
    _check_real("resistance", resistance)
    return catalog._nearest(np.array([resistance], dtype=float))[0].item()


def quantize_network(net: Network, catalog: ResistorCatalog = DEFAULT_CATALOG) -> Network:
    """Snap every wired resistance to its nearest catalog part, in one lookup."""
    r = net.resistances.copy()
    r[np.isfinite(r)] = catalog._nearest(r[np.isfinite(r)])
    return replace(net, resistances=r)


def perturb_readout(
    potential: float | np.ndarray,
    sigma: float,
    rng: np.random.Generator,
    *,
    supply_voltage: float = 1.0,
) -> float | np.ndarray:
    """Add Gaussian readout noise drawn from ``rng`` and clamp to the physical voltage range.

    An array of potentials draws its noise in C order, as one call per element would.  An
    ``rng`` with no ``normal`` method, None included, is refused before anything is drawn.
    """
    _check_real("sigma", sigma, zero=True)
    if not hasattr(rng, "normal"):
        raise ValueError(f"rng must be a numpy Generator to draw noise from, got {rng!r}")
    _check_real("supply_voltage", supply_voltage)
    if isinstance(potential, np.ndarray):  # one draw call; a float stays on the cheaper scalar path
        return np.clip(potential + rng.normal(0.0, sigma, potential.shape), 0.0, supply_voltage)
    return min(max(potential + float(rng.normal(0.0, sigma)), 0.0), supply_voltage)


# a 1/1000 grid step fits (1001 x 1001 points); finer grids are refused
# before anything is allocated, whatever the step a caller asks for.  A
# pitch row then has at most 1025 points, which bounds every kernel temporary.
MAX_GRID_POINTS = 1025**2


class ResponseMap(Sequence):
    """Read-only (pitch, roll, potentials) rows over a square input grid.

    Rows run in row-major order, pitch as the outer loop; ``potentials`` is
    a fresh list of floats per row.  Only the network and the axis are
    held: iteration runs one kernel call per pitch row and indexing
    evaluates its one point, so memory stays O(row) whatever the grid.
    """

    def __init__(self, net: Network, axis: list[float]) -> None:
        self._net = net
        self._axis = axis

    def __len__(self) -> int:
        return len(self._axis) ** 2

    def __getitem__(self, index: int) -> tuple[float, float, list[float]]:
        i = operator.index(index)
        if not -len(self) <= i < len(self):
            raise IndexError("response map row index out of range")
        p, r = divmod(i % len(self), len(self._axis))
        pitch, roll = self._axis[p], self._axis[r]
        return pitch, roll, infer_network(self._net, (pitch, roll))

    def __iter__(self) -> Iterator[tuple[float, float, list[float]]]:
        rolls = np.array(self._axis)
        for pitch in self._axis:
            stimuli = np.column_stack([np.full(len(rolls), pitch), rolls])
            for roll, potentials in zip(self._axis, infer_batch(self._net, stimuli).tolist()):
                yield pitch, roll, potentials


def _grid_axis(grid_step: float) -> list[float]:
    """A response map's axis, 0 to 1 at ``grid_step``; a step outside (0, 1] or too fine is refused."""
    _check_real("grid_step", grid_step)
    if grid_step > 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    span = 1.0 / grid_step + 1e-9
    if span + 2.0 > math.sqrt(MAX_GRID_POINTS):  # the axis has at most floor(span) + 2 points
        raise ValueError(
            f"grid_step {grid_step!r} is too fine: response maps are capped at "
            f"{MAX_GRID_POINTS} points"
        )
    axis = [min(i * grid_step, 1.0) for i in range(int(span) + 1)]  # span > 0: int() floors
    if axis[-1] < 1.0:
        axis.append(1.0)
    return axis


def response_map(net: Network, grid_step: float) -> ResponseMap:
    """Membrane potentials over the full [0,1]^2 input grid, at most MAX_GRID_POINTS.

    Both axes include the endpoints 0 and 1.  Validates and builds the axis
    only; the rows are computed as they are read, each bitwise equal to
    :func:`ifcirc.infer_network` at its point.
    """
    if net.n_inputs != 2:
        raise ValueError(f"response maps need a 2-input network, got {net.n_inputs}")
    return ResponseMap(net, _grid_axis(grid_step))


def write_response_map_csv(
    rows: Sequence[tuple[float, float, Sequence[float]]],
    labels: Sequence[str],
    path: str | Path,
) -> None:
    """Write rows as CSV, floats in shortest round-trip repr, each as it is read: memory holds one
    row.  A ragged row is refused by its index, pitch and roll, after the rows before it."""

    def fields() -> Iterator[Iterator[str]]:
        for i, (pitch, roll, potentials) in enumerate(rows):
            if len(potentials) != len(labels):
                raise ValueError(f"row {i} at pitch {pitch!r}, roll {roll!r} has {len(potentials)} "
                                 f"potentials for {len(labels)} labels")
            yield map(repr, (pitch, roll, *potentials))

    _write_rows(path, ("pitch", "roll", *labels), fields())


# -------------------------------- energy -----------------------------------


@dataclass(frozen=True, slots=True)
class NeuronEnergy:
    label: str
    supply_energy: float  # joules drawn from the supply
    stored_energy: float  # left on the capacitor after the stimulation
    dissipated_energy: float  # heat in the resistors


@dataclass(frozen=True, slots=True)
class EnergyReport:
    supply_energy: float
    stored_energy: float
    dissipated_energy: float
    per_neuron: tuple[NeuronEnergy, ...]


def energy_per_inference(net: Network, stimulus: Sequence[float]) -> EnergyReport:
    """Energy drawn, stored, and dissipated over one full stimulation.

    Closed form from the module docstring, so the balance holds to roundoff.
    A model whose C * v_in², summed over its neurons, overflows is refused.
    """
    fwd = _forward(net, [stimulus])
    v_in, c = net.supply_voltage, net.capacitance
    total = len(net.labels) * c
    if not math.isfinite(total * (v_in * v_in)):  # bounds every joule below
        raise ValueError(f"supply_voltage {v_in!r} V and total capacitance {total!r}"
                         " F overflow the energy: C*v_in**2 is not finite")
    supply = c * v_in * fwd.v_e[:, 0]
    stored = 0.5 * c * fwd.v[:, 0] ** 2
    joules = [e.tolist() for e in (supply, stored, supply - stored)]
    totals = (reduce(operator.add, e) for e in joules)  # from 3.12 builtin sum compensates
    return EnergyReport(*totals, tuple(map(NeuronEnergy, net.labels, *joules)))


def _joules(e: NeuronEnergy | EnergyReport) -> dict:
    return {
        "supply_energy_joules": e.supply_energy,
        "stored_energy_joules": e.stored_energy,
        "dissipated_energy_joules": e.dissipated_energy,
    }


def energy_report_to_dict(report: EnergyReport) -> dict:
    return {
        **_joules(report),
        "per_neuron": [{"label": e.label, **_joules(e)} for e in report.per_neuron],
    }


def max_inference_time(net: Network) -> float:
    """Worst-case wall time for one inference.

    Stimulation slots shared across neurons run once, so the bound is the
    number of (polarity, input line) columns of ``net.resistances`` wired in
    at least one neuron, times the per-slot maximum.  Pruning a synapse
    everywhere removes its slot from the schedule.
    """
    return int(np.isfinite(net.resistances).any(axis=1).sum()) * net.t_max
