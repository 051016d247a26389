"""Schedule construction, closed-form inference, and model serialization.

Frozen potentials come from standalone fine-step RK4 integration of the
underlying ODEs with the published resistances, independent of the closed
forms implemented here.
"""
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifcirc import (
    POLARITIES,
    Network,
    build_schedule,
    classify,
    example_model_path,
    infer_batch,
    infer_network,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from conftest import networks, stimulus_values, wired, wiring
from test_refusals import LIBRARY_REFUSALS, refusal_tests


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


def test_a_polarity_is_spelled_as_in_model_files():
    assert POLARITIES == ("excitatory", "inhibitory")  # the phases of Network.resistances
    doc = {"schema_version": 1, "supply_voltage": 1.0, "t_max": 0.05, "threshold": 0.5,
           "capacitance": 1e-6, "n_inputs": 1}
    for polarity in POLARITIES:
        synapse = {"input_index": 0, "polarity": polarity, "resistance_ohms": 1e4}
        net = network_from_dict({**doc, "neurons": [{"label": "u", "synapses": [synapse]}]})
        assert list(wired(net)) == [("u", 0, polarity)]
    # a record once took these, and a network failed later with "'sideways' is not in list"
    for polarity in ("sideways", "Excitatory", ""):
        synapse = {"input_index": 0, "polarity": polarity, "resistance_ohms": 1e4}
        message = ("model field neurons[0].synapses[0]: polarity must be 'excitatory' or "
                   f"'inhibitory', got {polarity!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_from_dict({**doc, "neurons": [{"label": "u", "synapses": [synapse]}]})


def test_a_label_is_a_string_as_in_model_files(tmp_path):
    # a label of 5 built, inferred and saved, and load_network then refused the file
    for label in (5, None, b"sit", ("sit",)):
        message = f"neurons[0] ({label!r}): label must be a string, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Network((label,), wiring(1, {(0, "excitatory"): 1e4}), 1e-6)
    net = Network((np.str_("sit"),), wiring(1, {(0, "excitatory"): 1e4}), 1e-6)
    save_network(net, tmp_path / "model.json")
    assert load_network(tmp_path / "model.json") == net
    doc = network_to_dict(net)
    doc["neurons"][0]["label"] = 5  # the loader names the field first, as before
    message = "model field neurons[0].label must be a string, got 5"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        network_from_dict(doc)


# ------------------------------ inference ----------------------------------


def _single(polarity, resistance, cap=1e-6, n_inputs=1, t_max=0.01):
    return Network(("u",), wiring(n_inputs, {(0, polarity): resistance}), cap, t_max=t_max)


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


@given(net=networks(n_classes=1), data=st.data())
def test_closed_form_equals_fold(net, data):
    stimulus = [data.draw(stimulus_values) for _ in range(net.n_inputs)]
    (closed,) = infer_network(net, stimulus)
    v_in = net.supply_voltage
    fold = _fold(net.neurons[0], build_schedule(stimulus, t_max=net.t_max), v_in)
    assert math.isclose(fold, closed, rel_tol=1e-12, abs_tol=1e-12 * v_in)


@given(net=networks(n_classes=1), data=st.data())
def test_potential_bounded_by_supply(net, data):
    stimulus = [data.draw(stimulus_values) for _ in range(net.n_inputs)]
    (v,) = infer_network(net, stimulus)
    assert 0.0 <= v <= net.supply_voltage


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
    assert rows.shape == (n, len(net.labels))
    for row, stimulus in zip(rows.tolist(), stimuli):
        assert row == infer_network(net, stimulus)


def test_conductances_compiled_once(bundled_model, pruned_bundled_model):
    g = bundled_model.conductances
    assert g is bundled_model.conductances
    assert g.shape == (2, 3, 3)
    assert not g.flags.writeable
    (label, line, polarity), ohms = next(iter(wired(bundled_model).items()))
    assert label == "stand"
    phase = POLARITIES.index(polarity)
    assert g[phase, 0, line] == 1.0 / (ohms * bundled_model.capacitance)
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


@given(net=networks())
def test_wired_is_the_inverse_of_wiring(net):
    # the reader the other tests count and compare wired entries through
    found = wired(net)
    neurons = [{(line, polarity): ohms for (at, line, polarity), ohms in found.items() if at == label}
               for label in net.labels]
    assert np.array_equal(wiring(net.n_inputs, *neurons), net.resistances)
    # class, then phase, then line: the order a model file lists them in
    order = [(net.labels.index(label), POLARITIES.index(polarity), line)
             for label, line, polarity in found]
    assert order == sorted(order)


def test_conductance_is_zero_where_the_time_constant_overflows():
    # R·C = 1e310 s is past the largest float: G = 1/(R·C) is 0, and numpy does not warn
    net = Network(("u",), wiring(1, {(0, "excitatory"): 1e10}), 1e300)
    assert net.resistances[0, 0, 0] == 1e10
    assert not net.conductances.any()


def test_equal_networks_compare_and_hash_equal_and_repr_no_table(bundled_model):
    # the neurons are a view of the table: equality, hashing and repr read them, not the tables
    twin = network_from_dict(network_to_dict(bundled_model))
    assert twin.resistances is not bundled_model.resistances
    assert twin == bundled_model and hash(twin) == hash(bundled_model)
    assert replace(twin, t_max=0.1) != bundled_model
    # the old bias line an input, and a new bias line unwired: the same synapses on 3 inputs
    wide = np.concatenate([bundled_model.resistances, np.full((2, 3, 1), np.inf)], axis=2)
    wider = replace(bundled_model, resistances=wide)
    assert wider.resistances is wide and not wide.flags.writeable  # kept, not copied
    assert wider.neurons == bundled_model.neurons and wider.n_inputs == 3
    assert wider != bundled_model
    text = repr(twin)
    assert text.startswith("Network(capacitance=1e-06, supply_voltage=1.0, t_max=0.05, "
                           "neurons=(IFNeuron(label='stand', capacitance=1e-06, ")
    assert text.endswith(" polarity='inhibitory', resistance=1000000.0)))), n_inputs=2)")
    for table in ("array", "inf", "labels", "resistances", "conductances"):
        assert table not in text


def test_a_network_in_another_synapse_order_is_the_same_network(bundled_model, tmp_path):
    # the loader fills the table, so the order a file lists synapses in leaves no trace
    doc = network_to_dict(bundled_model)
    for entry in doc["neurons"]:
        entry["synapses"].reverse()
    twin = network_from_dict(doc)
    assert twin == bundled_model and hash(twin) == hash(bundled_model)
    assert repr(twin) == repr(bundled_model)
    save_network(twin, tmp_path / "twin.json")
    assert (tmp_path / "twin.json").read_bytes() == example_model_path().read_bytes()


@given(net=networks(), data=st.data())
def test_synapses_are_held_and_written_in_the_tables_order(net, data):
    doc = network_to_dict(net)
    for entry in doc["neurons"]:
        entry["synapses"] = data.draw(st.permutations(entry["synapses"]))
    shuffled = network_from_dict(doc)
    assert shuffled == net and hash(shuffled) == hash(net)
    for neuron, entry in zip(shuffled.neurons, network_to_dict(shuffled)["neurons"]):
        written = [(s["input_index"], s["polarity"], s["resistance_ohms"]) for s in entry["synapses"]]
        assert written == [(s.input_index, s.polarity, s.resistance) for s in neuron.synapses]
        assert written == sorted(written, key=lambda w: (POLARITIES.index(w[1]), w[0]))


def test_a_resistance_is_written_as_the_float_the_table_holds():
    net = Network(("u",), [[[1000, math.inf]], [[math.inf, math.inf]]], 1e-6)
    (written,) = network_to_dict(net)["neurons"][0]["synapses"]
    assert json.dumps(written["resistance_ohms"]) == "1000.0"


def test_a_build_holds_the_table_and_its_conductances_at_its_peak():
    # G = 1/(R·C) once allocated R·C beside both: three tables where two are kept
    doc = json.loads(example_model_path().read_text())
    doc["n_inputs"] = 10**5
    table = 2 * 3 * (10**5 + 1) * 8
    tracemalloc.start()
    try:
        network_from_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table


def test_a_table_that_holds_no_real_numbers_is_refused_by_name(pruned_bundled_model):
    # a str table built, a complex one built with numpy's ComplexWarning, and True was 1 ohm
    net = pruned_bundled_model
    r = net.resistances

    def build(table):
        return Network(net.labels, table, net.capacitance, net.supply_voltage, net.t_max)

    for table in (r.astype(str), r.astype(bytes), r.astype(complex), np.ones(r.shape, bool)):
        with pytest.raises(ValueError, match=f"^resistances must hold real numbers, got dtype {table.dtype}$"):
            build(table)
    for bad in (None, "1e3", True, 1j):
        table = r.astype(object)
        table[0, 1, 2] = bad
        with pytest.raises(ValueError, match=f"^resistances must hold real numbers, got {re.escape(repr(bad))}$"):
            build(table)
    table = r.astype(object)
    table[0, 1, 2] = 10**400
    with pytest.raises(ValueError, match="^resistances contains an integer past the float range$"):
        build(table)
    # an object array is how numpy holds an int past int64: one of real numbers is taken
    table = r.astype(object)
    table[0, 1, 2] = 2**70
    assert build(table).resistances[0, 1, 2] == 2.0**70
    assert build(r.astype(object)) == net
    assert build(np.full(r.shape, 10**4)) == build(np.full(r.shape, 1e4))


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


# -------------------------------- classify ---------------------------------


def test_classify_returns_argmax():
    assert classify([0.1, 0.9, 0.3]) == 1


def test_classify_tie_prefers_lowest_index():
    assert classify([0.5, 0.5, 0.1]) == 0
    assert classify([0.2, 0.7, 0.7]) == 1


def test_classify_rejects_bad_input():  # its refusals are rows of test_refusals.py
    assert classify([np.float32(0.1), 2, np.float64(0.3)]) == 1


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
    table = wiring(settings["n_inputs"], {(0, "excitatory"): settings["resistance"]})
    net = Network(("a",), table, settings["capacitance"], t_max=settings["t_max"])
    save_network(net, tmp_path / "m.json")
    loaded = load_network(tmp_path / "m.json")
    assert loaded == net
    stimuli = [(0.0,), (0.3,), (1.0,)]
    assert infer_batch(loaded, stimuli).tobytes() == infer_batch(net, stimuli).tobytes()


def _table(at=(0, 0, 0), ohms=1e4):
    """Labels 'a' and 'b' on one input, each with an excitatory synapse, and ``ohms`` at ``at``."""
    r = wiring(1, {(0, "excitatory"): 1e4}, {(1, "excitatory"): 2e4})
    r[at] = ohms
    return r


_NOT_A_TABLE = "resistances of shape {} are not (2, 2, lines)"
_NOT_A_RESISTANCE = "resistance must be a finite number > 0, got {}"


@pytest.mark.parametrize("labels, table, message", [
    # a table of the wrong shape is the table's fault, refused before any neuron is named
    (("a", "b"), np.full((2, 1, 2), np.inf), _NOT_A_TABLE.format((2, 1, 2))),
    (("a", "b"), np.full((3, 2, 2), np.inf), _NOT_A_TABLE.format((3, 2, 2))),
    (("a", "b"), np.full((2, 2), np.inf), _NOT_A_TABLE.format((2, 2))),
    (("a", "b"), np.full((2, 2, 0), np.inf), _NOT_A_TABLE.format((2, 2, 0))),
    (("a", "b"), _table((1, 1, 0), math.nan), "neurons[1] ('b'): " + _NOT_A_RESISTANCE.format("nan")),
    (("a", "b"), _table((1, 1, 1), -math.inf), "neurons[1] ('b'): " + _NOT_A_RESISTANCE.format("-inf")),
    (("a", "b"), _table((0, 0, 0), 0.0), "neurons[0] ('a'): " + _NOT_A_RESISTANCE.format("0.0")),
    (("a", "b"), _table((1, 0, 1), -1.0), "neurons[0] ('a'): " + _NOT_A_RESISTANCE.format("-1.0")),
    (("a", 5), _table(), "neurons[1] (5): label must be a string, got 5"),
    # G = 1/(R·C) is compiled before the check: dividing by R·C = 0 must not warn, and warnings
    # fail here
    (("a", "b"), _table((1, 1, 1), 5e-324), "neurons[1] ('b'): time constant R·C of input 1 "
     "(inhibitory) is 0.0 s, too small for a finite conductance: 5e-324 ohms, 1e-06 farads"),
], ids=["classes", "phases", "rank", "no-bias-line", "nan", "-inf", "zero", "negative", "label",
        "underflow"])
def test_a_network_names_the_neuron_of_an_entry_it_refuses(labels, table, message):
    # the table once passed NaN, -inf and 0 as unwired lines, since only finite entries were read
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Network(labels, table, 1e-6)
    assert table.flags.writeable  # a refused table is left as it was given


def test_the_loader_refuses_a_bad_n_inputs_by_name(bundled_model):
    # the table is sized by n_inputs, so it is checked first: -1 read "negative dimensions are
    # not allowed" when the table was sized before the check
    doc = network_to_dict(bundled_model)
    for value in (True, False, 1.0, 2.0, "1", math.nan, math.inf, -math.inf):
        message = f"model field n_inputs must be an integer, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_from_dict({**doc, "n_inputs": value})
    with pytest.raises(ValueError, match=r"^n_inputs must be >= 0, got -1$"):
        network_from_dict({**doc, "n_inputs": -1})
    assert network_from_dict({**doc, "n_inputs": 3}).n_inputs == 3


globals().update(refusal_tests(LIBRARY_REFUSALS["test_neuron"]))
