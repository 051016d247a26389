"""Integrate-and-fire neurons as recurrent sequences of synapse stimulations.

A neuron is a capacitor plus a set of resistive synapses.  An
input vector is turned into a stimulation schedule: one excitatory slot
per input (duration proportional to the input value), then one inhibitory
slot per input.  Excitation must complete before inhibition because the
capacitor has to hold charge before a discharge path can remove any.
Starting from a fully discharged capacitor, the voltage left at the end is
the membrane potential; it has a closed form, evaluated for whole batches
by :mod:`ifcirc.kernel` from the network's compiled conductances.
Classification picks the neuron with the highest potential.

Every input additionally carries an always-on bias connection (input value
fixed at 1) so a neuron can charge even when the pattern is all zeros.
The bias occupies the last input index.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import _check_integer, _check_real
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


def _check_line(input_index: object, polarity: object) -> None:
    """Refuse, by name, an index that is not an integer >= 0 or a polarity not in POLARITIES."""
    _check_integer("input_index", input_index, 0)
    if not (isinstance(polarity, str) and polarity in POLARITIES):
        raise ValueError(f"polarity must be 'excitatory' or 'inhibitory', got {polarity!r}")


@dataclass(frozen=True)
class Synapse:
    """One resistive input channel of a neuron."""

    input_index: int
    polarity: str  # one of POLARITIES
    resistance: float  # ohms

    def __post_init__(self) -> None:
        _check_line(self.input_index, self.polarity)
        _check_real("resistance", self.resistance)


@dataclass(frozen=True)
class IFNeuron:
    """A capacitor and its synapses, one neuron per output class."""

    label: str
    capacitance: float  # farads
    synapses: tuple[Synapse, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):  # model files hold a label as a JSON string
            raise ValueError(f"label must be a string, got {self.label!r}")
        _check_real("capacitance", self.capacitance)
        # the C order of Network.resistances: equality, hashing and saved bytes follow the wiring
        order = sorted(self.synapses, key=lambda s: (POLARITIES.index(s.polarity), s.input_index))
        object.__setattr__(self, "synapses", tuple(order))
        seen = set()
        for syn in self.synapses:
            key = (syn.input_index, syn.polarity)
            if key in seen:
                raise ValueError(f"duplicate synapse for input {syn.input_index} ({syn.polarity})")
            seen.add(key)
            tau = syn.resistance * self.capacitance
            if tau == 0.0 or math.isinf(1.0 / tau):  # the kernel needs a finite G = 1/(R·C)
                raise ValueError(
                    f"time constant R·C of input {syn.input_index} ({syn.polarity}) is "
                    f"{tau!r} s, too small for a finite conductance: "
                    f"{syn.resistance!r} ohms, {self.capacitance!r} farads"
                )

    def synapse_map(self) -> dict[tuple[int, str], Synapse]:
        return {(s.input_index, s.polarity): s for s in self.synapses}


@dataclass(frozen=True)
class Network:
    """Per-class neurons plus the shared electrical configuration.

    ``n_inputs`` is the raw input dimensionality; the bias connection sits
    at index ``n_inputs``.  It is stored explicitly because pruning may
    strip every synapse of some input from some neuron.  It is compiled when
    built into read-only tables in :mod:`ifcirc.kernel` layout: ``resistances``
    (+inf where a line is unwired) and ``conductances`` G = 1/(R·C) (0 there).
    Outside this module the wiring is read from ``resistances`` and ``capacitance``,
    and written by ``_network``.
    """

    neurons: tuple[IFNeuron, ...]
    n_inputs: int
    supply_voltage: float = 1.0
    t_max: float = 0.05  # max stimulation time per input, seconds
    capacitance: float = field(init=False)  # farads, one for every neuron
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    resistances: np.ndarray = field(init=False, repr=False, compare=False)
    conductances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", tuple(self.neurons))
        if not self.neurons:
            raise ValueError("a network needs at least one neuron")
        _check_integer("n_inputs", self.n_inputs, 0)
        _check_real("supply_voltage", self.supply_voltage)
        _check_real("t_max", self.t_max)
        r = np.full((2, len(self.neurons), self.n_inputs + 1), np.inf)
        for k, neuron in enumerate(self.neurons):
            for syn in neuron.synapses:
                if syn.input_index > self.n_inputs:
                    raise ValueError(
                        f"neurons[{k}] ({neuron.label!r}): {syn.polarity} synapse on input "
                        f"{syn.input_index} out of range for {self.n_inputs} inputs plus bias"
                    )
                r[POLARITIES.index(syn.polarity), k, syn.input_index] = syn.resistance
        capacitances = sorted({neuron.capacitance for neuron in self.neurons})
        if len(capacitances) > 1:
            raise ValueError(f"neurons must share one capacitance, got {capacitances} farads")
        with np.errstate(over="ignore"):  # R·C past the largest float: G = 1/inf = 0
            g = np.multiply(r, capacitances[0])
            np.divide(1.0, g, out=g)  # in place: a build holds two tables, not three
        r.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "capacitance", capacitances[0])
        object.__setattr__(self, "labels", tuple(n.label for n in self.neurons))
        object.__setattr__(self, "resistances", r)
        object.__setattr__(self, "conductances", g)


def _wiring(table: np.ndarray) -> tuple[list[int], list[str], list[float]]:
    """Lines, polarities and ohms of the finite entries of a (phase, line) table, in C order."""
    wired = np.isfinite(table)
    phases, lines = np.nonzero(wired)
    return lines.tolist(), [POLARITIES[phase] for phase in phases.tolist()], table[wired].tolist()


def _network(labels: Sequence[str], resistances: np.ndarray, capacitance: float,
             supply_voltage: float, t_max: float) -> Network:
    """The network wired by ``resistances``, laid out as ``Network.resistances``: +inf is unwired.

    Each neuron holds a synapse per finite entry; ``n_inputs`` is the width less the bias line.
    """
    neurons = []
    for k, label in enumerate(labels):
        try:
            neurons.append(IFNeuron(label, capacitance, map(Synapse, *_wiring(resistances[:, k]))))
        except ValueError as exc:  # named as Network names an out-of-range synapse
            raise ValueError(f"neurons[{k}] ({label!r}): {exc}") from None
    return Network(tuple(neurons), resistances.shape[2] - 1, supply_voltage, t_max)


@dataclass(frozen=True)
class Slot:
    """One stimulation: which input line, which polarity, for how long."""

    input_index: int
    polarity: str  # one of POLARITIES
    duration: float  # seconds

    def __post_init__(self) -> None:
        _check_line(self.input_index, self.polarity)
        _check_real("slot duration", self.duration, zero=True)


@dataclass(frozen=True)
class StimulationSchedule:
    """Ordered stimulation slots; all excitatory slots precede inhibitory ones."""

    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        phases = [POLARITIES.index(slot.polarity) for slot in self.slots]
        if phases != sorted(phases):
            raise ValueError("excitatory slot after an inhibitory one; charge must precede discharge")


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
        if not math.isfinite(p):
            raise ValueError(f"potentials must be finite, got {p}")
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


_FIELD_TYPES = {
    float: ((int, float), "a finite number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
}


def json_value(value: object, kind: type, name: str):
    """A value parsed from JSON, as ``kind``: int, str, list, or a finite float (ints convert).

    Booleans are not numbers here.  A mismatch raises ValueError naming ``name``.
    """
    types, description = _FIELD_TYPES[kind]
    try:
        ok = isinstance(value, types) and not isinstance(value, bool)
        converted = kind(value) if ok else None
        ok = ok and (kind is not float or math.isfinite(converted))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {description}, got {json.dumps(value)}")
    return converted


def _field(obj: object, key: str, kind: type, where: str = ""):
    """``obj[key]`` as ``kind``; a missing or mistyped value raises ValueError naming its path."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ValueError(f"model field {where or 'root'} must be a JSON object")
    if key not in obj:
        raise ValueError(f"model field {path} is missing")
    return json_value(obj[key], kind, f"model field {path}")


def network_from_dict(doc: object) -> Network:
    """Build a network from a model document; a bad field raises ValueError naming its path."""
    version = _field(doc, "schema_version", int)
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {version!r}")
    capacitance = _field(doc, "capacitance", float)
    neurons = []
    for k, entry in enumerate(_field(doc, "neurons", list)):
        where = f"neurons[{k}]"
        synapses = []
        for j, syn in enumerate(_field(entry, "synapses", list, where)):
            at = f"{where}.synapses[{j}]"
            index = _field(syn, "input_index", int, at)
            polarity = _field(syn, "polarity", str, at)
            resistance = _field(syn, "resistance_ohms", float, at)
            try:
                synapses.append(Synapse(index, polarity, resistance))
            except ValueError as exc:
                raise ValueError(f"model field {at}: {exc}") from None
        label = _field(entry, "label", str, where)
        try:
            neurons.append(IFNeuron(label, capacitance, tuple(synapses)))
        except ValueError as exc:
            raise ValueError(f"model field {where}: {exc}") from None
    n_inputs = _field(doc, "n_inputs", int)
    supply_voltage = _field(doc, "supply_voltage", float)
    t_max = _field(doc, "t_max", float)
    _field(doc, "threshold", float)  # schema 1 requires it; nothing reads it
    return Network(tuple(neurons), n_inputs, supply_voltage, t_max)


def save_network(net: Network, path: str | Path) -> None:
    """Write the model as JSON; floats round-trip exactly (shortest repr)."""
    # a numpy scalar, which the checks pass, is written as the Python number it holds
    text = json.dumps(network_to_dict(net), indent=2, default=np.generic.item)
    Path(path).write_text(text + "\n")


def load_network(path: str | Path) -> Network:
    try:
        return network_from_dict(json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: not a valid model file: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
