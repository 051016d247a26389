"""Schedule construction, closed-form inference, and model serialization.

Frozen potentials come from standalone fine-step RK4 integration of the
underlying ODEs with the published resistances, independent of the closed
forms implemented here.
"""
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifcirc import (
    POLARITIES,
    IFNeuron,
    Network,
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
    assert polarities == ["excitatory"] * 3 + ["inhibitory"] * 3
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
    # phases were told apart by identity with an enum member: these two slots were accepted
    message = "excitatory slot after an inhibitory one; charge must precede discharge"
    with pytest.raises(ValueError, match=f"^{message}$"):
        StimulationSchedule(
            slots=(
                Slot(0, "inhibitory", 0.01),
                Slot(0, "excitatory", 0.01),
            )
        )


def test_slot_rejects_negative_duration():
    with pytest.raises(ValueError, match="^slot duration must be a finite number >= 0, got -0.01$"):
        Slot(0, "excitatory", -0.01)


def test_a_polarity_is_spelled_as_in_model_files():
    assert POLARITIES == ("excitatory", "inhibitory")  # the phases of Network.resistances
    for build in (lambda p: Synapse(0, p, 1e4), lambda p: Slot(0, p, 0.01)):
        for polarity in POLARITIES:
            assert build(polarity).polarity == polarity
        # each built, and a network failed later with "'sideways' is not in list"
        for polarity in ("sideways", "Excitatory", "", None, 0, ("excitatory",)):
            message = f"polarity must be 'excitatory' or 'inhibitory', got {polarity!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(polarity)


def test_a_label_is_a_string_as_in_model_files(tmp_path):
    # a label of 5 built, inferred and saved, and load_network then refused the file
    for label in (5, None, b"sit", ("sit",)):
        message = f"label must be a string, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IFNeuron(label, 1e-6, (Synapse(0, "excitatory", 1e4),))
    net = Network((IFNeuron(np.str_("sit"), 1e-6, (Synapse(0, "excitatory", 1e4),)),), 1)
    save_network(net, tmp_path / "model.json")
    assert load_network(tmp_path / "model.json") == net
    doc = network_to_dict(net)
    doc["neurons"][0]["label"] = 5  # the loader names the field first, as before
    message = "model field neurons[0].label must be a string, got 5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        network_from_dict(doc)


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
        if slot.polarity == "excitatory":
            v -= (v_in - v) * math.expm1(rate)
        else:
            v *= math.exp(rate)
    return v


def test_single_excitatory_synapse_charges():
    (v,) = infer_network(_single("excitatory", 10e3), (1.0,))
    assert v == pytest.approx(0.6321205588285577, rel=1e-10)


def test_unmatched_slots_are_skipped():
    # lines 1, 2 and the bias run for the full t_max but reach no synapse
    net = _single("excitatory", 10e3, n_inputs=3)
    (v,) = infer_network(net, (1.0, 1.0, 1.0))
    assert v == pytest.approx(0.6321205588285577, rel=1e-10)


def test_empty_schedule_leaves_capacitor_discharged():
    net = _single("excitatory", 10e3)
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
    phase = int(syn.polarity == "inhibitory")
    assert g[phase, 0, syn.input_index] == 1.0 / (syn.resistance * stand.capacitance)
    # a pruned synapse is an unwired line: conductance 0
    assert np.count_nonzero(pruned_bundled_model.conductances) == 9


@given(net=networks())
def test_wiring_table_holds_each_synapse_once(net):
    """R at each wired (polarity, neuron, line) and +inf elsewhere; G bitwise 1/(R·C) per synapse."""
    shape = (2, len(net.neurons), net.n_inputs + 1)
    wired, g = np.zeros(shape, dtype=bool), np.zeros(shape)
    for k, neuron in enumerate(net.neurons):
        for syn in neuron.synapses:
            at = int(syn.polarity == "inhibitory"), k, syn.input_index
            assert net.resistances[at] == syn.resistance
            wired[at], g[at] = True, 1.0 / (syn.resistance * neuron.capacitance)
    assert net.resistances.shape == shape
    assert (np.isfinite(net.resistances) == wired).all()
    assert net.conductances.tobytes() == g.tobytes()
    assert not net.resistances.flags.writeable and not net.conductances.flags.writeable
    assert net.capacitance == net.neurons[0].capacitance


def test_conductance_is_zero_where_the_time_constant_overflows():
    # R·C = 1e310 s is past the largest float: G = 1/(R·C) is 0, and numpy does not warn
    net = Network((IFNeuron("u", 1e300, (Synapse(0, "excitatory", 1e10),)),), 1)
    assert net.resistances[0, 0, 0] == 1e10
    assert not net.conductances.any()


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


_SAVED = {
    "str": {},
    "int64 n_inputs": {"n_inputs": np.int64(1)},
    "float32 t_max": {"t_max": np.float32(0.05)},
    "float32 capacitance": {"capacitance": np.float32(1e-6)},
    "float32 resistance": {"resistance": np.float32(4.7e3)},
}


@pytest.mark.parametrize("case", _SAVED)
def test_save_writes_plain_strings_and_numbers(case, tmp_path):
    # a polarity spelled "excitatory" raised AttributeError (no .value); a numpy number,
    # which the checks pass, raised TypeError: not JSON serializable
    settings = {"n_inputs": 1, "t_max": 0.05, "capacitance": 1e-6, "resistance": 1e4,
                **_SAVED[case]}
    neuron = IFNeuron("a", settings["capacitance"],
                      (Synapse(0, "excitatory", settings["resistance"]),))
    net = Network((neuron,), settings["n_inputs"], t_max=settings["t_max"])
    save_network(net, tmp_path / "m.json")
    loaded = load_network(tmp_path / "m.json")
    assert loaded == net
    stimuli = [(0.0,), (0.3,), (1.0,)]
    assert infer_batch(loaded, stimuli).tobytes() == infer_batch(net, stimuli).tobytes()


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
        ("polarity", "sideways", "model field neurons[1].synapses[0]: polarity must be "
                                 "'excitatory' or 'inhibitory', got 'sideways'"),
        ("polarity", "Excitatory", "model field neurons[1].synapses[0]: polarity must be "
                                   "'excitatory' or 'inhibitory', got 'Excitatory'"),
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
    # a network has one capacitance: per-neuron values are refused when it is built
    a = IFNeuron("a", 1e-6, (Synapse(0, "excitatory", 1e4),))
    b = IFNeuron("b", 2e-6, (Synapse(0, "excitatory", 1e4),))
    with pytest.raises(ValueError, match=r"one capacitance, got \[1e-06, 2e-06\] farads"):
        Network(neurons=(a, b), n_inputs=1)
    net = Network(neurons=(a, replace(b, capacitance=1e-6)), n_inputs=1)
    assert net.capacitance == 1e-6
    with pytest.raises(ValueError, match="one capacitance"):
        replace(net, neurons=(a, b))


def test_duplicate_synapse_rejected():
    # the refusals read the enum's .value, and raised AttributeError on a plain string
    with pytest.raises(ValueError, match=r"^duplicate synapse for input 0 \(excitatory\)$"):
        IFNeuron(
            "u",
            1e-6,
            (
                Synapse(0, "excitatory", 1e4),
                Synapse(0, "excitatory", 2e4),
            ),
        )


def test_a_time_constant_without_a_conductance_is_refused_by_line():
    message = ("time constant R·C of input 1 (inhibitory) is 0.0 s, too small for a finite "
               "conductance: 1e-300 ohms, 1e-30 farads")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IFNeuron("u", 1e-30, (Synapse(1, "inhibitory", 1e-300),))


def test_network_rejects_synapse_beyond_bias_line():
    neuron = IFNeuron("u", 1e-6, (Synapse(5, "excitatory", 1e4),))
    with pytest.raises(ValueError):
        Network(neurons=(neuron,), n_inputs=2)
