"""The library's refusals, one row each: the call, its exception's exact type and whole message.

A row of ``LIBRARY_REFUSALS[module][test]`` is ``(id, call, type, message)``.  The harness runs
``call``, given ``tmp_path`` if it takes a parameter without a default, and checks ``type(exc)
is type`` and ``str(exc) == message`` (``{tmp_path}`` standing for that directory), so a refusal
that an earlier check or numpy raises in its place fails.  A row id is one collected item; rows
without an id are one bare item.  Each module collects its tests under their old names with
``globals().update(refusal_tests(LIBRARY_REFUSALS[module]))``; the oracle's march rows stay in
``test_oracle.py``, where the view scan reads their neuron.
"""
import functools
import importlib
import inspect
import json
import math
import operator
import sys
from dataclasses import replace

import numpy as np
import pytest

from ifcirc import (
    DatasetConfig, Network, PostureSample, ResistorCatalog, TrainConfig, build_schedule, classify,
    energy_per_inference, evaluate_accuracy, example_model_path, generate, infer_batch,
    infer_network, load_network, nearest_centroid_accuracy, network_from_dict, network_to_dict,
    perturb_readout, prune, quantize_network, read_csv, response_map, round_resistance, split,
    train, write_response_map_csv,
)
from ifcirc._pcg import PCG64
from ifcirc.kernel import duration_matrix
from conftest import wiring

_BUNDLED = load_network(example_model_path())
# response-map rows for labels a, b and c, the second one potential short
RAGGED_ROWS = [(0.0, 0.0, [0.1, 0.2, 0.3]), (0.0, 0.5, [0.1, 0.2])]
_NOT_AN_RNG = object()


def _reading(reader, name, text):
    """A call that writes ``text`` to ``name`` in the test's directory and reads it back."""
    def call(tmp_path):
        (tmp_path / name).write_text(text)
        return reader(tmp_path / name)
    return call


def _doc(*path, value):
    """The bundled model's document with the entry at ``path`` set to ``value``."""
    doc = network_to_dict(_BUNDLED)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


def _samples(n):
    return generate(DatasetConfig(n_per_class=n, seed=0))


_DIMENSION = "Maximum allowed dimension exceeded"
_TOO_BIG = "array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size."
_EXPLICIT = "mode 'e12' does not take explicit values"
_FIELD = "model field neurons[1].synapses[0]"
_UNDERFLOW, _NEGATIVE = {(0, "excitatory"): 5e-324}, {(1, "inhibitory"): -1.0}
_NO_G = "time constant R·C of input {} is {} s, too small for a finite conductance: {} ohms, {} farads"
# (id, value, how the refusal shows it) of each field value a sample and a CSV refuse
_FIELDS = [("nan", math.nan, "NaN"), ("inf", math.inf, "Infinity"), ("-inf", -math.inf, "-Infinity"),
           ("bool", True, "true"), ("none", None, "null"), ("text", "abc", '"abc"'),
           ("numeric-text", "0.5", '"0.5"'), ("past-float-range", 10**400, "1" + "0" * 400)]
# -1 once trained without complaint, to 0% training accuracy; a supply of -1 was refused only
# by the trained Network, after every epoch had run, and nan diverged
_TARGETS = [({name: value}, f"{name} must be a finite number {floor}, got {value!r}")
            for name, floor, values in (("target_high", "> 0", (-1.0, 0.0, -math.inf, math.nan, math.inf)),
                                        ("supply_voltage", "> 0", (0.0,)),
                                        ("energy_weight", ">= 0", (-0.1, math.nan, math.inf)),
                                        ("supply_voltage", "> 0", (math.nan, -1.0)))
            for value in values]
_TARGETS += [({"target_high": 2.0, "supply_voltage": 1.5},  # the potential never exceeds the supply
              "target_high must be finite and at most supply_voltage 1.5, got 2.0"),
             ({"supply_voltage": math.inf}, "supply_voltage must be a finite number > 0, got inf")]

LIBRARY_REFUSALS = {}  # module -> {test name: rows}
LIBRARY_REFUSALS["test_dataset"] = {
    "test_a_dataset_config_is_refused_by_name": [
        *[(None, lambda n=n: DatasetConfig(n_per_class=n), ValueError, f"n_per_class must be >= 1, got {n}")
          for n in (0, -1)],
        # True was taken as a sigma of 1; an int past the float range escaped as OverflowError, a
        # string or None as TypeError
        *[(None, lambda v=sigma: DatasetConfig(n_per_class=10, noise_sigma=v), ValueError,
           f"noise_sigma must be a finite number >= 0, got {sigma!r}")
          for sigma in (True, -0.1, -5e-324, math.nan, math.inf, -math.inf, 10**400, -10**400, "0.1", None)],
        # sigma * z overflowed to inf in some samples (52 of 300 at 1e308, n=100, seed 0); the
        # largest sigma taken is sys.float_info.max / 8.58 (test_dataset.py)
        *[(None, lambda v=sigma: DatasetConfig(n_per_class=10, noise_sigma=v), ValueError,
           f"noise_sigma {sigma!r} is too large: noise_sigma*8.58 overflows")
          for sigma in (math.nextafter(sys.float_info.max / 8.58, math.inf), 1e308, sys.float_info.max)],
        *[(None, lambda v=n: DatasetConfig(n_per_class=v), ValueError,
           f"n_per_class must be an integer, got {n!r}") for n in (1.5, 2.0, True, False, "3")],
        (None, lambda: DatasetConfig(n_per_class=10, seed=-1), ValueError, "seed must be >= 0, got -1"),
        # True once generated data; 1.5 failed only inside generate(), in numpy's SeedSequence
        *[(None, lambda v=seed: DatasetConfig(n_per_class=10, seed=v), ValueError,
           f"seed must be an integer, got {seed!r}") for seed in (1.5, 2.0, True, False, "3", None)]],
    # generate's (3, 2n) draw: numpy's own line named no setting, and only generate() raised it
    "test_a_draw_numpy_cannot_shape_is_refused_by_name": [
        (case, lambda n=n: DatasetConfig(n_per_class=n), ValueError,
         f"n_per_class {n} is too large for a draw: {shown}")
        for case, n, shown in (("dimension", 10**20, _DIMENSION), ("past-float", 10**400, _DIMENSION),
                               ("size", 2**63 // 48 + 1, _TOO_BIG))],
    "test_read_csv_rejects_wrong_header": [
        (None, _reading(read_csv, "bad.csv", "roll,pitch,label\n0.1,0.2,stand\n"), ValueError,
         "{tmp_path}/bad.csv: line 1: expected header 'pitch,roll,label'")],
    "test_read_csv_reports_line_number": [
        (None, _reading(read_csv, "bad.csv", "pitch,roll,label\n0.1,0.2,stand\n0.3,oops,sit\n"),
         ValueError, '{tmp_path}/bad.csv: line 3: roll must be a finite number, got "oops"')],
    "test_read_csv_rejects_unknown_label": [
        (None, _reading(read_csv, "bad.csv", "pitch,roll,label\n0.1,0.2,crawl\n"), ValueError,
         "{tmp_path}/bad.csv: line 2: label must be one of ('stand', 'sit', 'lie'), got 'crawl'")],
    "test_split_refuses_a_side_it_would_leave_empty": [
        ("held-out", lambda: split(_samples(1), 0.8, seed=0), ValueError,
         "class 'stand' has 1 sample: a train_fraction of 0.8 leaves its held-out side empty"),
        ("training", lambda: split(_samples(2), 1.0 - 0.9, seed=0), ValueError,
         "class 'stand' has 2 samples: a train_fraction of 0.1 leaves its training side empty")],
    "test_split_refuses_an_empty_dataset": [
        (None, lambda: split([], 0.8, seed=0), ValueError, "cannot split an empty dataset")],
    # a sample refuses what read_csv refuses; a float row is one write_csv would write
    "test_posture_sample_refuses_a_field_read_csv_refuses": [
        row for case, value, shown in _FIELDS for row in (
            (case, lambda v=value: PostureSample(v, 0.0, "sit"), ValueError,
             f"pitch must be a finite number, got {shown}"),
            (case, lambda v=value: PostureSample(0.0, v, "sit"), ValueError,
             f"roll must be a finite number, got {shown}"),
            *[(case, _reading(read_csv, "data.csv", f"pitch,roll,label\n{value!r},0.0,sit\n"),
               ValueError, f"{{tmp_path}}/data.csv: line 2: pitch must be a finite number, got {shown}")
              ] * isinstance(value, float))],
}
LIBRARY_REFUSALS["test_hardware"] = {
    # True was a 1-ohm part; a string died in the sort before the value check, with TypeError;
    # an int past the float range escaped as OverflowError
    "test_a_bad_catalog_is_refused_by_name": [
        (None, lambda: ResistorCatalog("e96"), ValueError,
         "unknown catalog mode 'e96' (one of: one_significant_digit, e12, e24, custom)"),
        (None, lambda: ResistorCatalog("custom"), ValueError, "custom catalog needs at least one value"),
        *[(None, lambda v=value: ResistorCatalog("custom", (100.0, v)), ValueError,
           f"catalog value must be a finite number > 0, got {value!r}")
          for value in (True, -5.0, 0.0, math.nan, math.inf, -math.inf, "a", None, 10**400, -10**400)],
        (None, lambda: ResistorCatalog("e12", (100.0,)), ValueError, _EXPLICIT),
        (None, lambda: ResistorCatalog("e12", (1.0, "a")), ValueError, _EXPLICIT),
        # numpy arrays of values get the catalog's own messages, not numpy's ambiguous truth value
        (None, lambda: ResistorCatalog("custom", np.array([])), ValueError,
         "custom catalog needs at least one value"),
        (None, lambda: ResistorCatalog("e12", np.array([1.0, 2.0])), ValueError, _EXPLICIT)],
    "test_round_rejects_nonpositive": [
        (None, lambda v=value: round_resistance(v), ValueError,
         f"resistance must be a finite number > 0, got {value!r}") for value in (0.0, -100.0, math.inf)],
    # as a loaded model and an out-of-range synapse do; the message used to name the line alone
    "test_quantize_names_the_neuron_whose_time_constant_underflows": [
        (None, lambda: quantize_network(_BUNDLED, ResistorCatalog("custom", (5e-324,))), ValueError,
         "neurons[0] ('stand'): " + _NO_G.format("0 (excitatory)", 0.0, 5e-324, 1e-06))],
    "test_perturb_rejects_negative_sigma": [
        (None, lambda: perturb_readout(0.5, -0.1, np.random.default_rng(0)), ValueError,
         "sigma must be a finite number >= 0, got -0.1")],
    # refused by name on the float path and on the array path, before anything is drawn
    "test_perturb_refuses_an_rng_it_cannot_draw_from": [
        (None, lambda p=potential, r=rng: perturb_readout(p, 0.02, r), ValueError,
         f"rng must be a numpy Generator to draw noise from, got {rng!r}")
        for rng in (None, _NOT_AN_RNG) for potential in (0.5, np.zeros(3))],
    # True was a step of 1: a 4-row map; an int past the float range escaped as OverflowError
    "test_response_map_validation": [
        *[(None, lambda s=step: response_map(_BUNDLED, s), ValueError,
           f"grid_step must be a finite number > 0, got {step!r}")
          for step in (True, False, "0.5", None, 0.0, -0.5, math.nan, math.inf, -math.inf, 10**400,
                       -10**400)],
        (None, lambda: response_map(_BUNDLED, 1.5), ValueError, "grid_step must be in (0, 1], got 1.5"),
        (None, lambda: response_map(Network(("u",), wiring(1, {(0, "excitatory"): 1e4}), 1e-6), 0.5),
         ValueError, "response maps need a 2-input network, got 1")],
    # the message named no row
    "test_response_map_csv_rejects_ragged_rows": [
        (None, lambda tmp_path: write_response_map_csv(RAGGED_ROWS, ["a", "b", "c"], tmp_path / "x.csv"),
         ValueError, "row 1 at pitch 0.0, roll 0.5 has 2 potentials for 3 labels")],
    # numpy's OverflowError escaped: "int too large to convert to float"
    "test_a_stimulus_past_the_float_range_is_refused_by_name": [
        (None, lambda c=call, s=stimulus: c(_BUNDLED, s), ValueError,
         "stimulus contains an integer past the float range")
        for stimulus in ((10**400, 0.5), (0.5, -10**400))
        for call in (infer_network, energy_per_inference)],
    # it took C = 1e-6 F whatever its model file said, and its energy totalled integer 0 J
    "test_a_network_without_neurons_is_refused": [
        (None, lambda: Network((), np.full((2, 0, 3), np.inf), 1e-6), ValueError,
         "a network needs at least one neuron")],
    # the width is checked ahead of the C*v_in**2 refusal
    "test_energy_rejects_wrong_arity": [
        (None, lambda: energy_per_inference(_BUNDLED, (0.5,)), ValueError, "expected 2 inputs, got 1"),
        (None, lambda: energy_per_inference(_BUNDLED, (0.1, 0.2, 0.3)), ValueError,
         "expected 2 inputs, got 3"),
        (None, lambda: energy_per_inference(replace(_BUNDLED, supply_voltage=1e300), (0.1, 0.2, 0.3)),
         ValueError, "expected 2 inputs, got 3"),
        (None, lambda: energy_per_inference(replace(_BUNDLED, supply_voltage=1e300), (0.1, 0.2)),
         ValueError, "supply_voltage 1e+300 V and total capacitance 3e-06 F overflow the energy: "
         "C*v_in**2 is not finite")],
}
LIBRARY_REFUSALS["test_neuron"] = {
    "test_schedule_rejects_nan": [
        (None, lambda: build_schedule((math.nan, 0.0), t_max=0.05), ValueError,
         "stimulus contains NaN")],
    # labels ('stand', 'stand', 'sit') loaded, and no prediction could name the lost class
    "test_a_repeated_label_is_refused": [
        (None, lambda: Network(("a", "b", "a"), wiring(1, *[{(0, "excitatory"): 1e4}] * 3), 1e-6),
         ValueError, "neurons[2] ('a'): label repeats neurons[0]"),
        (None, lambda: network_from_dict(_doc("neurons", 1, "label", value="stand")), ValueError,
         "neurons[1] ('stand'): label repeats neurons[0]")],
    # 10**15 inputs: the (2, 3, 10**15 + 1) wiring table needs 48 PB, and loading builds it;
    # numpy's MemoryError named neither the file nor the field
    "test_a_table_no_memory_holds_is_refused_at_load": [
        (None, _reading(load_network, "wide.json", json.dumps(_doc("n_inputs", value=10**15))),
         ValueError, "{tmp_path}/wide.json: model field n_inputs: 1000000000000000 is too large for "
         "a table: Unable to allocate 42.6 PiB for an array with shape (2, 3, 1000000000000001) and "
         "data type float64")],
    # past numpy's dimension or size limit: numpy's own line named neither the field nor the table
    "test_a_table_numpy_cannot_shape_is_refused_by_name": [
        (case, _reading(load_network, "wide.json", json.dumps(_doc("n_inputs", value=n))), ValueError,
         f"{{tmp_path}}/wide.json: model field n_inputs: {n} is too large for a table: {shown}")
        for case, n, shown in (("dimension", 10**30, _DIMENSION), ("size", 2**62, _TOO_BIG))],
    "test_infer_batch_checks_arity": [
        (None, lambda: infer_batch(_BUNDLED, [(0.0, 0.0, 0.0)]), ValueError, "expected 2 inputs, got 3"),
        (None, lambda: infer_batch(_BUNDLED, [(0.0, math.nan)]), ValueError, "stimulus contains NaN")],
    "test_infer_network_checks_arity": [
        (None, lambda: infer_network(_BUNDLED, (0.0, 0.0, 0.0)), ValueError,
         "expected 2 inputs, got 3")],
    "test_a_bad_potential_is_refused_by_name": [
        (None, lambda: classify([]), ValueError, "cannot classify an empty potential vector"),
        # an int past the float range escaped as OverflowError, a string or None as TypeError
        *[(None, lambda b=bad: classify([0.1, b]), ValueError,
           f"potentials must be finite numbers, got {bad!r}")
          for bad in (math.nan, math.inf, True, 10**400, -10**400, "a", None)]],
    "test_load_rejects_malformed_json": [
        (None, _reading(load_network, "bad.json", "{not json"), ValueError,
         "{tmp_path}/bad.json: not a valid model file: Expecting property name enclosed in double "
         "quotes: line 1 column 2 (char 1)")],
    "test_load_rejects_unknown_schema_version": [
        (None, _reading(load_network, "future.json", json.dumps(_doc("schema_version", value=99))),
         ValueError, "{tmp_path}/future.json: unsupported model schema_version 99")],
    # one field of neurons[1].synapses[0] set: (its name, its value, the start of the message,
    # which the old test matched and its id holds, and the rest)
    "test_network_from_dict_names_the_bad_synapse": [
        (f"{field}-{value}-{_FIELD}{start}",
         lambda f=field, v=value: network_from_dict(_doc("neurons", 1, "synapses", 0, f, value=v)),
         ValueError, f"{_FIELD}{start}{rest}") for field, value, start, rest in (
            *[("polarity", p, f": polarity must be 'excitatory' or 'inhibitory', got {p!r}", "")
              for p in ("sideways", "Excitatory")],
            ("resistance_ohms", -5.0, ": resistance must be", " a finite number > 0, got -5.0"),
            ("input_index", 0.5, ".input_index must be an integer", ", got 0.5"),
            ("input_index", True, ".input_index must be an integer", ", got true"),
            ("resistance_ohms", 10**400, ".resistance_ohms must be a",
             f" finite number, got 1{'0' * 400}"))],
    # the loader names the synapse that fills a wired entry a second time; a table has one
    # entry per line and polarity, so no built network holds a duplicate
    "test_duplicate_synapse_rejected": [
        (None, lambda: network_from_dict(_doc("neurons", 2, "synapses", 4, "input_index", value=0)),
         ValueError, "model field neurons[2].synapses[4]: duplicate synapse for input 0 (inhibitory)")],
    "test_a_time_constant_without_a_conductance_is_refused_by_line": [
        (None, lambda: Network(("u",), wiring(1, {(1, "inhibitory"): 1e-300}), 1e-30), ValueError,
         "neurons[0] ('u'): " + _NO_G.format("1 (inhibitory)", 0.0, 1e-300, 1e-30))],
    # a table has no line past the bias: the loader names the synapse it cannot place
    "test_network_rejects_synapse_beyond_bias_line": [
        (None, lambda: network_from_dict(_doc("neurons", 1, "synapses", 0, "input_index", value=7)),
         ValueError, f"{_FIELD}: excitatory synapse on input 7 out of range for 2 inputs plus bias")],
    # each row's network holds two faults, and the row pins the one named first: one whole-table
    # check, then a walk by class, and in a neuron its label, then its first R not > 0, then its
    # first R·C without a finite G, each in (phase, line) C order
    "test_a_network_names_its_first_fault_in_class_order": [
        (None, lambda: Network(("a", "b"), wiring(1, _UNDERFLOW | _NEGATIVE, {}), 1e-6), ValueError,
         "neurons[0] ('a'): resistance must be a finite number > 0, got -1.0"),
        (None, lambda: Network(("a", 5), wiring(1, {}, _NEGATIVE), 1e-6), ValueError,
         "neurons[1] (5): label must be a string, got 5"),
        (None, lambda: Network((5, "b"), wiring(1, {}, _NEGATIVE), 1e-6), ValueError,
         "neurons[0] (5): label must be a string, got 5"),
        (None, lambda: Network(("a", "b"), wiring(1, _UNDERFLOW, _NEGATIVE), 1e-6), ValueError,
         "neurons[0] ('a'): " + _NO_G.format("0 (excitatory)", 0.0, 5e-324, 1e-06))],
}
LIBRARY_REFUSALS["test_training"] = {
    "test_clamp_rejects_inverted_bounds": [
        (None, lambda: train(_samples(5), TrainConfig(r_min=1e6, r_max=1e3)), ValueError,
         "need 0 < r_min < r_max < inf, got 1000000.0, 1000.0")],
    # a nan ceiling compares false everywhere and would drop every synapse
    "test_prune_rejects_bad_ceiling": [
        (f"kwargs{i}-{message}", lambda r=r_max: prune(_BUNDLED, r_max=r), ValueError, message)
        for i, r_max in enumerate((math.nan, math.inf, 0.0, -1e6))
        for message in [f"r_max must be a finite number > 0, got {r_max!r}"]],
    "test_train_rejects_empty_dataset": [
        (None, lambda: train([], TrainConfig()), ValueError, "cannot train on an empty dataset")],
    "test_trainconfig_refuses_a_setting_by_name": [
        (None, lambda: TrainConfig(epochs=0), ValueError, "epochs must be >= 1, got 0"),
        (None, lambda: TrainConfig(r_min=1e6, r_max=1e3), ValueError,
         "need 0 < r_min < r_max < inf, got 1000000.0, 1000.0"),
        # numpy's PCG64 refused it only inside train(), without naming the seed
        (None, lambda: TrainConfig(seed=-1), ValueError, "seed must be >= 0, got -1"),
        # 1.5 failed only inside train(), in numpy's SeedSequence; epochs 2.5 trained 2
        # iterations and True 1
        *[(None, lambda n=name, v=value: TrainConfig(**{n: v}), ValueError,
           f"{name} must be an integer, got {value!r}")
          for name in ("epochs", "seed") for value in (1.5, 2.0, True, False, "3", None)],
        # capacitance 0 made every G infinite and the loss non-finite; t_max 0 trained on
        # nothing; True was taken as 1
        *[(None, lambda n=name, v=value: TrainConfig(**{n: v}), ValueError,
           f"{name} must be a finite number {floor}, got {value!r}")
          for name, floor, below in (("capacitance", "> 0", 0.0), ("t_max", "> 0", -1.0),
                                     ("supply_voltage", "> 0", 0.0), ("energy_weight", ">= 0", -5e-324))
          for value in (True, below, math.nan, math.inf, -math.inf, 10**400, -10**400, "1", None)],
        # True was a 1-ohm floor or a 1 V target; an int past the float range escaped as
        # OverflowError; None leaves target_high unset
        *[(None, lambda n=name, v=value: TrainConfig(**{n: v}), ValueError,
           f"{name} must be a finite number > 0, got {value!r}")
          for name in ("r_min", "r_max", "target_high")
          for value in (True, False, "1", 0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, -10**400,
                        *[None] * (name != "target_high"))]],
    "test_trainconfig_refuses_targets_it_cannot_meet": [
        (f"kwargs{i}-{message}", lambda k=kwargs: TrainConfig(**k), ValueError, message)
        for i, (kwargs, message) in enumerate(_TARGETS)],
    # without one, each call drew from OS entropy: 0.903, 0.882, 0.890, 0.898 on the same 600
    "test_evaluate_accuracy_refuses_noise_without_a_generator": [
        (None, lambda: evaluate_accuracy(_BUNDLED, _samples(2), noise_sigma=0.3), ValueError,
         "rng must be a numpy Generator to draw noise from, got None")],
    "test_evaluate_accuracy_rejects_unknown_labels": [
        (None, lambda: evaluate_accuracy(
            Network(_BUNDLED.labels[2:], _BUNDLED.resistances[:, 2:], 1e-6), _samples(2)), ValueError,
         "sample label 'stand' not among network classes ('sit',)")],
    "test_baseline_refuses_an_empty_held_out_set": [
        (None, lambda: nearest_centroid_accuracy(_samples(2), []), ValueError,
         "cannot evaluate on an empty dataset")],
    "test_baseline_refuses_an_empty_training_set": [
        (None, lambda: nearest_centroid_accuracy([], _samples(2)), ValueError,
         "cannot train on an empty dataset")],
}
LIBRARY_REFUSALS["test_kernel"] = {
    # the network that compiles the kernel's conductances refuses them; +inf is an unwired line
    "test_invalid_params_rejected": [
        (None, lambda: Network(("u",), wiring(1, {(0, "excitatory"): -1.0}), 1e-6), ValueError,
         "neurons[0] ('u'): resistance must be a finite number > 0, got -1.0"),
        (None, lambda: Network(("u",), wiring(1, {(0, "excitatory"): 1e3}), 0.0), ValueError,
         "capacitance must be a finite number > 0, got 0.0")],
    "test_duration_matrix_refuses_a_row_it_cannot_time": [
        (None, lambda: duration_matrix([(0.5, math.nan)], 0.05), ValueError, "stimulus contains NaN"),
        (None, lambda: duration_matrix((0.5, 0.2), 0.05), ValueError,  # one vector, not a batch
         "expected a batch of input vectors, got shape (2,)")],
}
LIBRARY_REFUSALS["test_pcg"] = {
    # PCG64 is private: every public caller checks its seed before it gets here
    "test_refusals": [
        (None, lambda: PCG64(-1), ValueError, "seed must be >= 0, got -1"),
        (None, lambda: PCG64(1.0), TypeError, "'float' object cannot be interpreted as an integer"),
        # refused before the list is built: 2**32 elements would take over 100 GB
        (None, lambda: PCG64(0).permutation(2**32), ValueError,
         "cannot permute 4294967296 elements: at most 4294967295")],
}


def _assert_refused(tmp_path, call, kind, message):
    takes = [p for p in inspect.signature(call).parameters.values() if p.default is p.empty]
    with pytest.raises(Exception) as caught:
        call(tmp_path) if takes else call()
    shown = message.replace("{tmp_path}", str(tmp_path))
    assert (type(caught.value), str(caught.value)) == (kind, shown)


def _refusal_test(rows):
    """The test of ``rows``: an item per row id, each running its rows by ``_assert_refused``."""
    groups = {}
    for row_id, *row in rows:
        groups.setdefault(row_id, []).append(row)

    def test(tmp_path, rows):
        for row in rows:
            _assert_refused(tmp_path, *row)
    if list(groups) == [None]:
        return lambda tmp_path: test(tmp_path, groups[None])
    return pytest.mark.parametrize("rows", list(groups.values()), ids=list(groups))(test)


def refusal_tests(table):
    """``{test name: test}`` for ``table``'s ``{test name: rows}``, for a module's globals."""
    return {name: _refusal_test(rows) for name, rows in table.items()}


def test_each_module_collects_its_rows():
    # without its globals().update line, or with a def of the same name after it, none would run
    for module, table in LIBRARY_REFUSALS.items():
        found = vars(importlib.import_module(module))
        assert [name for name in table if found[name].__module__ != __name__] == []
