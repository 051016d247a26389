"""Integrate-and-fire neurons as recurrent sequences of synapse stimulations.

A neuron is a capacitor plus a set of resistive synapses.  An
input vector is turned into a stimulation schedule: one excitatory slot
per input (duration proportional to the input value), then one inhibitory
slot per input.  Excitation must complete before inhibition because the
capacitor has to hold charge before a discharge path can remove any.
Starting from a fully discharged capacitor, the voltage left at the end is
the membrane potential; it has a closed form, evaluated for whole batches
by :mod:`ifcirc.kernel` from the network's conductances.
Classification picks the neuron with the highest potential.

A network is built from its wiring table, one R per (polarity, neuron, line),
and one capacitance, and checked there by array; its ``neurons`` view and
``build_schedule``'s slots are plain records, which check nothing.

Every input additionally carries an always-on bias connection (input value
fixed at 1) so a neuron can charge even when the pattern is all zeros.
The bias occupies the last input index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import _check_integer, _check_real, _number, _real_array, _write_json, json_value
from .kernel import Forward, duration_matrix, forward

__all__ = [
    "POLARITIES",
    "Synapse",
    "IFNeuron",
    "Network",
    "Slot",
    "StimulationSchedule",
    "build_schedule",
    "infer_batch",
    "infer_network",
    "classify",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

MODEL_SCHEMA_VERSION = 1


# a polarity as model files spell it; its position is its phase in ``Network.resistances``
POLARITIES = ("excitatory", "inhibitory")


@dataclass(frozen=True)
class Synapse:
    """One wired entry of a network's table, as ``Network.neurons`` holds it."""

    input_index: int
    polarity: str  # one of POLARITIES
    resistance: float  # ohms


@dataclass(frozen=True)
class IFNeuron:
    """A capacitor and its synapses, one neuron per output class, as ``Network.neurons`` holds it."""

    label: str
    capacitance: float  # farads
    synapses: tuple[Synapse, ...]

    def synapse_map(self) -> dict[tuple[int, str], Synapse]:
        return {(s.input_index, s.polarity): s for s in self.synapses}


@dataclass(frozen=True)
class Network:
    """Per-class neurons wired by one table, plus the shared electrical configuration.

    ``resistances`` has :mod:`ifcirc.kernel`'s layout (2, classes, n_inputs + 1):
    one R per (polarity in ``POLARITIES``, neuron, line), +inf where a line is
    unwired, the bias line last.  It is kept, not copied, and made read-only.
    A build compiles G = 1/(R·C) (0 where unwired) and checks, by array, that each
    entry is +inf or an R > 0 with a finite G, and that the labels are distinct strings.
    ``neurons`` is a view of the entries other than +inf, as ``Synapse`` records in C order.
    Equality and hashing follow ``neurons``, ``n_inputs`` and the scalars.
    """

    labels: tuple[str, ...] = field(repr=False, compare=False)  # the neurons hold them
    resistances: np.ndarray = field(repr=False, compare=False)
    capacitance: float  # farads, one for every neuron
    supply_voltage: float = 1.0
    t_max: float = 0.05  # max stimulation time per input, seconds
    neurons: tuple[IFNeuron, ...] = field(init=False)
    n_inputs: int = field(init=False)  # pruning every synapse of an input keeps the input
    conductances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("a network needs at least one neuron")
        _check_real("capacitance", self.capacitance)
        _check_real("supply_voltage", self.supply_voltage)
        _check_real("t_max", self.t_max)
        r = _real_array(self.resistances, "resistances")
        if r.ndim != 3 or r.shape[:2] != (2, len(labels)) or r.shape[2] < 1:
            raise ValueError(f"resistances of shape {r.shape} are not (2, {len(labels)}, lines)")
        # R·C past the largest float gives G = 1/inf = 0; an R·C of 0, refused below, gives inf
        with np.errstate(over="ignore", divide="ignore"):
            g = np.multiply(r, self.capacitance)
            np.divide(1.0, g, out=g)  # in place: a build holds two tables, not three
        bad_r, bad_g = ~(r > 0), g == np.inf  # +inf, an unwired line, is > 0 and has G = 0
        strings = all(isinstance(label, str) for label in labels)
        if bad_r.any() or bad_g.any() or not strings or len(set(labels)) < len(labels):
            for k, label in enumerate(labels):  # the first fault: label, R, then R·C, in C order
                at = f"neurons[{k}] ({label!r}): "
                if not isinstance(label, str):  # model files hold a label as a JSON string
                    raise ValueError(f"{at}label must be a string, got {label!r}")
                if label in labels[:k]:  # a class no prediction could name
                    raise ValueError(f"{at}label repeats neurons[{labels.index(label)}]")
                if bad_r[:, k].any():
                    phase, line = np.argwhere(bad_r[:, k])[0]
                    raise ValueError(f"{at}resistance must be a finite number > 0, got "
                                     f"{r[phase, k, line].item()!r}")
                if bad_g[:, k].any():
                    phase, line = np.argwhere(bad_g[:, k])[0].tolist()
                    ohms = r[phase, k, line].item()  # R·C below is the Python product
                    raise ValueError(f"{at}time constant R·C of input {line} ({POLARITIES[phase]}) "
                                     f"is {ohms * self.capacitance!r} s, too small for a finite "
                                     f"conductance: {ohms!r} ohms, {self.capacitance!r} farads")
        neurons = tuple(IFNeuron(label, self.capacitance, tuple(map(Synapse, *_wiring(r[:, k]))))
                        for k, label in enumerate(labels))
        r.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "resistances", r)
        object.__setattr__(self, "neurons", neurons)
        object.__setattr__(self, "n_inputs", r.shape[2] - 1)
        object.__setattr__(self, "conductances", g)


def _wiring(table: np.ndarray) -> tuple[list[int], list[str], list[float]]:
    """Lines, polarities and ohms of a (phase, line) table's entries other than +inf, in C order."""
    wired = table != np.inf
    phases, lines = np.nonzero(wired)
    return lines.tolist(), [POLARITIES[phase] for phase in phases.tolist()], table[wired].tolist()


@dataclass(frozen=True)
class Slot:
    """One stimulation: which input line, which polarity, for how long."""

    input_index: int
    polarity: str  # one of POLARITIES
    duration: float  # seconds


@dataclass(frozen=True)
class StimulationSchedule:
    """Ordered stimulation slots; ``build_schedule`` puts every excitatory slot first."""

    slots: tuple[Slot, ...]


def build_schedule(stimulus: Sequence[float], t_max: float) -> StimulationSchedule:
    """Turn an input vector into a stimulation schedule.

    Durations are one row of :func:`ifcirc.kernel.duration_matrix`, which
    clamps each input to [0, 1] and appends the full-length bias line.
    Excitatory slots come first, both phases in ascending input order.
    """
    durations = duration_matrix([stimulus], t_max)[0].tolist()
    slots = [Slot(i, "excitatory", d) for i, d in enumerate(durations)]
    slots += [Slot(i, "inhibitory", d) for i, d in enumerate(durations)]
    return StimulationSchedule(tuple(slots))


def _forward(net: Network, stimuli: Sequence[Sequence[float]]) -> Forward:
    """``kernel.forward`` over n input vectors of ``net``; every network evaluation runs here."""
    durations = duration_matrix(stimuli, net.t_max)
    if durations.shape[1] != net.n_inputs + 1:
        raise ValueError(f"expected {net.n_inputs} inputs, got {durations.shape[1] - 1}")
    return forward(durations, net.conductances, net.supply_voltage)


def infer_batch(net: Network, stimuli: Sequence[Sequence[float]]) -> np.ndarray:
    """Membrane potentials, (n, classes), for n input vectors in one kernel call.

    Row i is bitwise equal to ``infer_network(net, stimuli[i])``.
    """
    return _forward(net, stimuli).v.T


def infer_network(net: Network, stimulus: Sequence[float]) -> list[float]:
    """Per-neuron membrane potentials for one input vector.

    Neurons are independent; they all see the same schedule (bias included).
    """
    return infer_batch(net, [stimulus])[0].tolist()


def classify(potentials: Sequence[float]) -> int:
    """Index of the highest potential; ties break toward the lowest index."""
    if len(potentials) == 0:
        raise ValueError("cannot classify an empty potential vector")
    for p in potentials:
        if _number(p, float) is None:
            raise ValueError(f"potentials must be finite numbers, got {p!r}")
    return max(range(len(potentials)), key=lambda i: potentials[i])


# --------------------------- persistence ----------------------------------


def network_to_dict(net: Network) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "supply_voltage": net.supply_voltage,
        "t_max": net.t_max,
        "threshold": 0.5 * net.supply_voltage,  # schema 1 carries it; nothing reads it
        "capacitance": net.capacitance,
        "n_inputs": net.n_inputs,
        "neurons": [
            {
                "label": label,
                "synapses": [
                    {"input_index": line, "polarity": polarity, "resistance_ohms": ohms}
                    for line, polarity, ohms in zip(*_wiring(net.resistances[:, k]))
                ],
            }
            for k, label in enumerate(net.labels)
        ],
    }


def _field(obj: object, key: str, kind: type, where: str = ""):
    """``obj[key]`` as ``kind``; a missing or mistyped value raises ValueError naming its path."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ValueError(f"model field {where or 'root'} must be a JSON object")
    if key not in obj:
        raise ValueError(f"model field {path} is missing")
    return json_value(obj[key], kind, f"model field {path}")


def network_from_dict(doc: object) -> Network:
    """Build a network from a model document; a bad field raises ValueError naming its path.

    The wiring table is filled synapse by synapse from the file, in any order.
    """
    version = _field(doc, "schema_version", int)
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {version!r}")
    capacitance = _field(doc, "capacitance", float)
    entries = _field(doc, "neurons", list)
    n_inputs = _field(doc, "n_inputs", int)
    _check_integer("n_inputs", n_inputs, 0)  # before the table is sized by it
    try:  # a shape past numpy's limits, or one no memory holds
        labels, r = [], np.full((2, len(entries), n_inputs + 1), np.inf)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"model field n_inputs: {n_inputs} is too large for a table: {exc}") from None
    for k, entry in enumerate(entries):
        where = f"neurons[{k}]"
        labels.append(_field(entry, "label", str, where))
        for j, syn in enumerate(_field(entry, "synapses", list, where)):
            at = f"{where}.synapses[{j}]"
            index = _field(syn, "input_index", int, at)
            polarity = _field(syn, "polarity", str, at)
            resistance = _field(syn, "resistance_ohms", float, at)
            try:
                _check_integer("input_index", index, 0)
                if polarity not in POLARITIES:
                    raise ValueError(f"polarity must be 'excitatory' or 'inhibitory', got {polarity!r}")
                _check_real("resistance", resistance)
                if index > n_inputs:
                    raise ValueError(f"{polarity} synapse on input {index} out of range "
                                     f"for {n_inputs} inputs plus bias")
                line = POLARITIES.index(polarity), k, index
                if r[line] != np.inf:
                    raise ValueError(f"duplicate synapse for input {index} ({polarity})")
                r[line] = resistance
            except ValueError as exc:
                raise ValueError(f"model field {at}: {exc}") from None
    supply_voltage = _field(doc, "supply_voltage", float)
    t_max = _field(doc, "t_max", float)
    _field(doc, "threshold", float)  # schema 1 requires it; nothing reads it
    return Network(labels, r, capacitance, supply_voltage, t_max)


def save_network(net: Network, path: str | Path) -> None:
    """Write the model as JSON; floats round-trip exactly (shortest repr)."""
    _write_json(path, network_to_dict(net))


def load_network(path: str | Path) -> Network:
    try:
        return network_from_dict(json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: not a valid model file: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
