from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ifcirc import IFNeuron, Network, Polarity, Synapse, example_model_path, load_network

settings.register_profile(
    "ifcirc", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ifcirc")


# Resistances/capacitances spanning the hardware-plausible range.  Durations
# are either exactly zero (slot skipping) or at least a microsecond: below
# that, 1 - exp(-dt/tau) is pure cancellation noise and no two float
# implementations agree, so relative comparisons are meaningless there.
resistances = st.floats(1e3, 1e6)
capacitances = st.floats(1e-8, 1e-5)
durations = st.one_of(st.just(0.0), st.floats(1e-6, 0.05))
voltages = st.floats(0.1, 10.0)
stimulus_values = st.floats(-0.5, 1.5)  # scheduler clamps to [0, 1]


@st.composite
def neurons(draw, max_inputs=3):
    n_inputs = draw(st.integers(1, max_inputs))
    cap = draw(capacitances)
    synapses = []
    for idx in range(n_inputs + 1):  # +1 so some synapses sit on the bias line
        for polarity in (Polarity.EXCITATORY, Polarity.INHIBITORY):
            if draw(st.booleans()):
                synapses.append(Synapse(idx, polarity, draw(resistances)))
    if not synapses:
        synapses.append(Synapse(0, Polarity.EXCITATORY, draw(resistances)))
    return IFNeuron(label="unit", capacitance=cap, synapses=tuple(synapses)), n_inputs


@st.composite
def networks(draw, n_classes=3):
    n_inputs = draw(st.integers(1, 3))
    cap = draw(capacitances)
    neurons_ = []
    for ci in range(n_classes):
        synapses = []
        for idx in range(n_inputs + 1):
            for polarity in (Polarity.EXCITATORY, Polarity.INHIBITORY):
                if draw(st.booleans()):
                    synapses.append(Synapse(idx, polarity, draw(resistances)))
        if not synapses:
            synapses.append(Synapse(0, Polarity.EXCITATORY, draw(resistances)))
        neurons_.append(IFNeuron(label=f"c{ci}", capacitance=cap, synapses=tuple(synapses)))
    v_in = draw(voltages)
    return Network(neurons=tuple(neurons_), n_inputs=n_inputs, supply_voltage=v_in)


def rescaled(net, k):
    """``net`` with every resistance times k and every capacitance over k: same R·C."""
    neurons = tuple(
        replace(
            neuron,
            capacitance=neuron.capacitance / k,
            synapses=tuple(replace(s, resistance=s.resistance * k) for s in neuron.synapses),
        )
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


@pytest.fixture(scope="session")
def bundled_model():
    return load_network(example_model_path())


@pytest.fixture(scope="session")
def pruned_bundled_model(bundled_model):
    from ifcirc import prune

    return prune(bundled_model)
