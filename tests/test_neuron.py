"""Schedule construction, closed-form inference, and model serialization.

Frozen potentials come from standalone fine-step RK4 integration of the
underlying ODEs with the published resistances, independent of the closed
forms implemented here.
"""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifcirc import (
    IFNeuron,
    Network,
    Polarity,
    Slot,
    StimulationSchedule,
    Synapse,
    build_schedule,
    classify,
    infer_batch,
    infer_network,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from conftest import neurons, networks, stimulus_values, voltages


# ------------------------------ schedules ----------------------------------


def test_schedule_orders_excitatory_then_inhibitory():
    sched = build_schedule((0.5, 0.2), t_max=0.05)
    polarities = [s.polarity for s in sched.slots]
    assert polarities == [Polarity.EXCITATORY] * 3 + [Polarity.INHIBITORY] * 3
    indices = [s.input_index for s in sched.slots]
    assert indices == [0, 1, 2, 0, 1, 2]


def test_schedule_durations_scale_with_inputs():
    sched = build_schedule((0.5, 0.2), t_max=0.05)
    durations = [s.duration for s in sched.slots]
    assert durations[:3] == pytest.approx([0.025, 0.01, 0.05])
    assert durations[3:] == pytest.approx([0.025, 0.01, 0.05])


def test_schedule_clamps_out_of_range_inputs():
    sched = build_schedule((-0.3, 1.7), t_max=0.05)
    durations = [s.duration for s in sched.slots[:3]]
    assert durations == [0.0, 0.05, 0.05]


def test_schedule_bias_always_full_duration():
    sched = build_schedule((0.0, 0.0), t_max=0.05)
    bias_slots = [s for s in sched.slots if s.input_index == 2]
    assert all(s.duration == 0.05 for s in bias_slots)
    others = [s for s in sched.slots if s.input_index != 2]
    assert all(s.duration == 0.0 for s in others)


def test_schedule_rejects_nan():
    with pytest.raises(ValueError):
        build_schedule((float("nan"), 0.0), t_max=0.05)


def test_schedule_type_rejects_interleaved_phases():
    with pytest.raises(ValueError):
        StimulationSchedule(
            slots=(
                Slot(0, Polarity.INHIBITORY, 0.01),
                Slot(0, Polarity.EXCITATORY, 0.01),
            )
        )


def test_slot_rejects_negative_duration():
    with pytest.raises(ValueError):
        Slot(0, Polarity.EXCITATORY, -0.01)


# ------------------------------ inference ----------------------------------


def _single(polarity, resistance, cap=1e-6, n_inputs=1, t_max=0.01):
    neuron = IFNeuron(label="u", capacitance=cap, synapses=(Synapse(0, polarity, resistance),))
    return Network(neurons=(neuron,), n_inputs=n_inputs, t_max=t_max)


def _fold(neuron, schedule, v_in):
    """Reference: exact charge/discharge steps folded slot by slot from rest."""
    synapses = neuron.synapse_map()
    v = 0.0
    for slot in schedule.slots:
        syn = synapses.get((slot.input_index, slot.polarity))
        if syn is None:
            continue
        rate = -slot.duration / (syn.resistance * neuron.capacitance)
        if slot.polarity is Polarity.EXCITATORY:
            v -= (v_in - v) * math.expm1(rate)
        else:
            v *= math.exp(rate)
    return v


def test_single_excitatory_synapse_charges():
    (v,) = infer_network(_single(Polarity.EXCITATORY, 10e3), (1.0,))
    assert v == pytest.approx(0.6321205588285577, rel=1e-10)


def test_unmatched_slots_are_skipped():
    # lines 1, 2 and the bias run for the full t_max but reach no synapse
    net = _single(Polarity.EXCITATORY, 10e3, n_inputs=3)
    (v,) = infer_network(net, (1.0, 1.0, 1.0))
    assert v == pytest.approx(0.6321205588285577, rel=1e-10)


def test_empty_schedule_leaves_capacitor_discharged():
    net = _single(Polarity.EXCITATORY, 10e3)
    assert infer_network(net, (0.0,)) == [0.0]
    # a -0.0 input must not print as a -0.0 potential
    assert math.copysign(1.0, infer_network(net, (-0.0,))[0]) == 1.0


@given(data=st.data(), v_in=voltages)
def test_closed_form_equals_fold(data, v_in):
    neuron, n_inputs = data.draw(neurons())
    stimulus = [data.draw(stimulus_values) for _ in range(n_inputs)]
    net = Network(neurons=(neuron,), n_inputs=n_inputs, supply_voltage=v_in, t_max=0.05)
    (closed,) = infer_network(net, stimulus)
    fold = _fold(neuron, build_schedule(stimulus, t_max=0.05), v_in)
    assert math.isclose(fold, closed, rel_tol=1e-12, abs_tol=1e-12 * v_in)


@given(data=st.data(), v_in=voltages)
def test_potential_bounded_by_supply(data, v_in):
    neuron, n_inputs = data.draw(neurons())
    stimulus = [data.draw(stimulus_values) for _ in range(n_inputs)]
    net = Network(neurons=(neuron,), n_inputs=n_inputs, supply_voltage=v_in)
    (v,) = infer_network(net, stimulus)
    assert 0.0 <= v <= v_in


batch_values = st.one_of(
    stimulus_values,
    st.sampled_from([0.0, -0.0, 1.0, -1e300, 1e300, math.inf, -math.inf]),
)


@given(net=networks(), data=st.data())
def test_batch_rows_equal_single_inference(net, data):
    """Bitwise: a kernel batch row equals the same input inferred alone."""
    n = data.draw(st.integers(1, 40))
    stimuli = [[data.draw(batch_values) for _ in range(net.n_inputs)] for _ in range(n)]
    rows = infer_batch(net, stimuli)
    assert rows.shape == (n, len(net.neurons))
    for row, stimulus in zip(rows.tolist(), stimuli):
        assert row == infer_network(net, stimulus)


def test_conductances_compiled_once(bundled_model, pruned_bundled_model):
    g = bundled_model.conductances
    assert g is bundled_model.conductances
    assert g.shape == (2, 3, 3)
    assert not g.flags.writeable
    stand = bundled_model.neurons[0]
    syn = stand.synapses[0]
    phase = int(syn.polarity is Polarity.INHIBITORY)
    assert g[phase, 0, syn.input_index] == 1.0 / (syn.resistance * stand.capacitance)
    # a pruned synapse is an unwired line: conductance 0
    assert np.count_nonzero(pruned_bundled_model.conductances) == 9


def test_infer_batch_checks_arity(bundled_model):
    with pytest.raises(ValueError, match="expected 2 inputs"):
        infer_batch(bundled_model, [(0.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        infer_batch(bundled_model, [(0.0, float("nan"))])


# ------------------------- bundled-model behavior --------------------------


def test_bundled_model_potentials_at_origin(bundled_model):
    pots = infer_network(bundled_model, (0.0, 0.0))
    assert pots[0] == pytest.approx(0.9512294245006082, rel=1e-9)
    assert pots[1] == pytest.approx(0.0463920065252116, rel=1e-6)
    assert pots[2] == pytest.approx(0.0463920065252116, rel=1e-6)


def test_pruned_sit_unit_potential(pruned_bundled_model):
    pots = infer_network(pruned_bundled_model, (0.0, 0.25))
    labels = pruned_bundled_model.labels
    assert pots[labels.index("sit")] == pytest.approx(0.9003681177528592, rel=1e-9)
    assert pots[labels.index("stand")] == pytest.approx(0.15263600441970562, rel=1e-9)
    assert pots[labels.index("lie")] == 0.0


def test_bundled_model_classifies_class_means(bundled_model):
    for stim, want in [((0.0, 0.0), "stand"), ((0.0, 0.25), "sit"), ((0.5, 0.0), "lie")]:
        pots = infer_network(bundled_model, stim)
        assert bundled_model.labels[classify(pots)] == want


def test_infer_network_checks_arity(bundled_model):
    with pytest.raises(ValueError):
        infer_network(bundled_model, (0.0, 0.0, 0.0))


# -------------------------------- classify ---------------------------------


def test_classify_returns_argmax():
    assert classify([0.1, 0.9, 0.3]) == 1


def test_classify_tie_prefers_lowest_index():
    assert classify([0.5, 0.5, 0.1]) == 0
    assert classify([0.2, 0.7, 0.7]) == 1


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify([])
    with pytest.raises(ValueError):
        classify([0.1, float("nan")])


# ----------------------------- serialization -------------------------------


def test_network_json_round_trip_is_exact(bundled_model, tmp_path):
    path = tmp_path / "model.json"
    save_network(bundled_model, path)
    loaded = load_network(path)
    assert loaded == bundled_model


def test_network_dict_schema(bundled_model):
    doc = network_to_dict(bundled_model)
    assert doc["schema_version"] == 1
    assert doc["supply_voltage"] == 1.0
    assert doc["t_max"] == 0.05
    assert doc["threshold"] == 0.5
    assert doc["capacitance"] == 1e-6
    assert doc["n_inputs"] == 2
    assert [n["label"] for n in doc["neurons"]] == ["stand", "lie", "sit"]
    first = doc["neurons"][0]["synapses"][0]
    assert set(first) == {"input_index", "polarity", "resistance_ohms"}


def test_threshold_is_written_as_half_the_supply_and_read_by_nothing(bundled_model, tmp_path):
    doc = network_to_dict(bundled_model)
    doc["threshold"] = 0.3
    loaded = network_from_dict(doc)
    assert loaded == bundled_model
    assert infer_network(loaded, (0.1, 0.2)) == infer_network(bundled_model, (0.1, 0.2))
    path = tmp_path / "model.json"
    save_network(replace(bundled_model, supply_voltage=3.0), path)
    assert json.loads(path.read_text())["threshold"] == 1.5


@given(net=networks())
def test_round_trip_any_network(net, tmp_path_factory):
    assert network_from_dict(network_to_dict(net)) == net


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_network(path)


def test_load_rejects_unknown_schema_version(bundled_model, tmp_path):
    doc = network_to_dict(bundled_model)
    doc["schema_version"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_network(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("polarity", "sideways", "model field neurons[1].synapses[0]: 'sideways' is not a valid"),
        ("resistance_ohms", -5.0, "model field neurons[1].synapses[0]: resistance must be"),
        ("input_index", 0.5, "model field neurons[1].synapses[0].input_index must be an integer"),
        ("input_index", True, "model field neurons[1].synapses[0].input_index must be an integer"),
        ("resistance_ohms", 10**400, "model field neurons[1].synapses[0].resistance_ohms must be a"),
    ],
)
def test_network_from_dict_names_the_bad_synapse(bundled_model, field, value, message):
    doc = network_to_dict(bundled_model)
    doc["neurons"][1]["synapses"][0][field] = value
    with pytest.raises(ValueError) as exc_info:
        network_from_dict(doc)
    assert str(exc_info.value).startswith(message)


def test_heterogeneous_capacitance_is_unserializable():
    a = IFNeuron("a", 1e-6, (Synapse(0, Polarity.EXCITATORY, 1e4),))
    b = IFNeuron("b", 2e-6, (Synapse(0, Polarity.EXCITATORY, 1e4),))
    net = Network(neurons=(a, b), n_inputs=1)
    with pytest.raises(ValueError):
        network_to_dict(net)


def test_duplicate_synapse_rejected():
    with pytest.raises(ValueError):
        IFNeuron(
            "u",
            1e-6,
            (
                Synapse(0, Polarity.EXCITATORY, 1e4),
                Synapse(0, Polarity.EXCITATORY, 2e4),
            ),
        )


def test_network_rejects_synapse_beyond_bias_line():
    neuron = IFNeuron("u", 1e-6, (Synapse(5, Polarity.EXCITATORY, 1e4),))
    with pytest.raises(ValueError):
        Network(neurons=(neuron,), n_inputs=2)
