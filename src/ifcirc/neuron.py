"""Integrate-and-fire neurons as recurrent sequences of synapse stimulations.

A neuron is a capacitor plus an ordered list of resistive synapses.  An
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

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .kernel import Forward, duration_matrix, forward

__all__ = [
    "Polarity",
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


class Polarity(str, enum.Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"


@dataclass(frozen=True)
class Synapse:
    """One resistive input channel of a neuron."""

    input_index: int
    polarity: Polarity
    resistance: float  # ohms

    def __post_init__(self) -> None:
        if self.input_index < 0:
            raise ValueError(f"input_index must be >= 0, got {self.input_index}")
        if not (math.isfinite(self.resistance) and self.resistance > 0):
            raise ValueError(f"resistance must be a positive real, got {self.resistance}")


@dataclass(frozen=True)
class IFNeuron:
    """A capacitor and its ordered synapses, one neuron per output class."""

    label: str
    capacitance: float  # farads
    synapses: tuple[Synapse, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacitance) and self.capacitance > 0):
            raise ValueError(f"capacitance must be a positive real, got {self.capacitance}")
        object.__setattr__(self, "synapses", tuple(self.synapses))
        seen = set()
        for syn in self.synapses:
            key = (syn.input_index, syn.polarity)
            if key in seen:
                raise ValueError(f"duplicate synapse for input {syn.input_index} ({syn.polarity.value})")
            seen.add(key)
            tau = syn.resistance * self.capacitance
            if tau == 0.0 or math.isinf(1.0 / tau):  # the kernel needs a finite G = 1/(R·C)
                raise ValueError(
                    f"time constant R·C of input {syn.input_index} ({syn.polarity.value}) is "
                    f"{tau!r} s, too small for a finite conductance: "
                    f"{syn.resistance!r} ohms, {self.capacitance!r} farads"
                )

    def synapse_map(self) -> dict[tuple[int, Polarity], Synapse]:
        return {(s.input_index, s.polarity): s for s in self.synapses}


@dataclass(frozen=True)
class Network:
    """Per-class neurons plus the shared electrical configuration.

    ``n_inputs`` is the raw input dimensionality; the bias connection sits
    at index ``n_inputs``.  It is stored explicitly because pruning may
    strip every synapse of some input from some neuron.
    """

    neurons: tuple[IFNeuron, ...]
    n_inputs: int
    supply_voltage: float = 1.0
    t_max: float = 0.05  # max stimulation time per input, seconds

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", tuple(self.neurons))
        if self.n_inputs < 0:
            raise ValueError("n_inputs must be >= 0")
        if not (math.isfinite(self.supply_voltage) and self.supply_voltage > 0):
            raise ValueError(f"supply_voltage must be > 0, got {self.supply_voltage}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        for neuron in self.neurons:
            for syn in neuron.synapses:
                if syn.input_index > self.n_inputs:
                    raise ValueError(
                        f"synapse input {syn.input_index} out of range for "
                        f"{self.n_inputs} inputs plus bias"
                    )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.neurons)

    @cached_property
    def conductances(self) -> np.ndarray:
        """G = 1/(R·C) per synapse in :mod:`ifcirc.kernel` layout; compiled once, read-only."""
        g = np.zeros((2, len(self.neurons), self.n_inputs + 1))
        for k, neuron in enumerate(self.neurons):
            for syn in neuron.synapses:
                phase = int(syn.polarity is Polarity.INHIBITORY)
                g[phase, k, syn.input_index] = 1.0 / (syn.resistance * neuron.capacitance)
        g.flags.writeable = False
        return g


@dataclass(frozen=True)
class Slot:
    """One stimulation: which input line, which polarity, for how long."""

    input_index: int
    polarity: Polarity
    duration: float  # seconds

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"slot duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class StimulationSchedule:
    """Ordered stimulation slots; all excitatory slots precede inhibitory ones."""

    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        seen_inhibitory = False
        for slot in self.slots:
            if slot.polarity is Polarity.INHIBITORY:
                seen_inhibitory = True
            elif seen_inhibitory:
                raise ValueError("excitatory slot after an inhibitory one; charge must precede discharge")


def build_schedule(stimulus: Sequence[float], t_max: float) -> StimulationSchedule:
    """Turn an input vector into a stimulation schedule.

    Durations are one row of :func:`ifcirc.kernel.duration_matrix`, which
    clamps each input to [0, 1] and appends the full-length bias line.
    Excitatory slots come first, both phases in ascending input order.
    """
    durations = duration_matrix([stimulus], t_max)[0].tolist()
    slots = [Slot(i, Polarity.EXCITATORY, d) for i, d in enumerate(durations)]
    slots += [Slot(i, Polarity.INHIBITORY, d) for i, d in enumerate(durations)]
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
    capacitances = {n.capacitance for n in net.neurons}
    if len(capacitances) > 1:
        raise ValueError("cannot serialize a network with per-neuron capacitances")
    capacitance = capacitances.pop() if capacitances else 1e-6
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "supply_voltage": net.supply_voltage,
        "t_max": net.t_max,
        "threshold": 0.5 * net.supply_voltage,  # schema 1 carries it; nothing reads it
        "capacitance": capacitance,
        "n_inputs": net.n_inputs,
        "neurons": [
            {
                "label": neuron.label,
                "synapses": [
                    {
                        "input_index": syn.input_index,
                        "polarity": syn.polarity.value,
                        "resistance_ohms": syn.resistance,
                    }
                    for syn in neuron.synapses
                ],
            }
            for neuron in net.neurons
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
                synapses.append(Synapse(index, Polarity(polarity), resistance))
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
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path: str | Path) -> Network:
    try:
        return network_from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid model file: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
