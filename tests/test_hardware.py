"""Hardware-realization layer: catalogs, noise, maps, energy, timing.

Energy values are checked against the closed-form resistor integral
int i(t)^2 R dt = v_in^2 tau / (2R) * (1 - exp(-2T/tau)) for a single
charge from rest, derived independently of the per-step balance the
implementation uses.
"""
import dataclasses
from dataclasses import replace
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcirc import (
    DEFAULT_CATALOG,
    CLASS_MEANS,
    MAX_GRID_POINTS,
    POLARITIES,
    Network,
    ResistorCatalog,
    classify,
    energy_per_inference,
    energy_report_to_dict,
    infer_batch,
    infer_network,
    max_inference_time,
    network_from_dict,
    network_to_dict,
    perturb_readout,
    prune,
    quantize_network,
    response_map,
    round_resistance,
    write_response_map_csv,
)
from ifcirc import hardware
from conftest import networks, wired, wiring
from test_refusals import LIBRARY_REFUSALS, RAGGED_ROWS, refusal_tests


# ------------------------------- catalogs -----------------------------------


def test_round_one_significant_digit():
    assert round_resistance(3230.0) == 3000.0
    assert round_resistance(1530.0) == 2000.0
    assert round_resistance(101470.0) == 100000.0


def test_round_crosses_decade_upward():
    # 9770 is closer to 10k (next decade) than to 9k
    assert round_resistance(9770.0) == 10000.0


def test_round_ties_go_larger():
    assert round_resistance(2500.0) == 3000.0
    assert round_resistance(25.0) == 30.0


def test_round_e12():
    catalog = ResistorCatalog("e12")
    assert round_resistance(4700.0, catalog) == 4700.0
    assert round_resistance(5000.0, catalog) == 4700.0
    assert round_resistance(1.0, catalog) == 1.0


def test_round_e24():
    catalog = ResistorCatalog("e24")
    assert round_resistance(3230.0, catalog) == pytest.approx(3300.0)


def test_round_custom_catalog():
    catalog = ResistorCatalog("custom", (2200.0, 100.0, 470.0))
    assert catalog.values == (100.0, 470.0, 2200.0)
    assert round_resistance(300.0, catalog) == 470.0
    assert round_resistance(1e6, catalog) == 2200.0
    assert round_resistance(10.0, catalog) == 100.0


def test_catalog_validation():  # its refusals are rows of test_refusals.py
    assert ResistorCatalog("custom", np.array([2e3, 1e3])).values == (1e3, 2e3)


def test_a_series_part_is_its_decimal_value():
    # the parts were mantissa times decade: 2.2 * 100.0 is 220.00000000000003
    assert round_resistance(215.0, ResistorCatalog("e12")) == 220.0
    assert round_resistance(8.2e5, ResistorCatalog("e24")) == 820000.0
    assert round_resistance(0.3) == 0.3
    # far from 1 ohm too: mantissa times a rounded power of ten gave 2.9999999999999996e-300
    assert round_resistance(2.9e-300, ResistorCatalog("e24")) == 3e-300
    assert round_resistance(6.8e-200, ResistorCatalog("e12")) == 6.8e-200


def test_rounding_is_idempotent():
    # log-uniform over every decade a series holds: a snap near a decade's edge used to land an
    # ulp off the next decade's part, and snapped again (12 to 26 of these draws per series)
    draws = np.maximum(10.0 ** np.random.default_rng(34).uniform(-307, 308, 4000), 1e-307)
    for mode in ("one_significant_digit", "e12", "e24"):
        catalog = ResistorCatalog(mode)
        for r in draws.tolist():
            snapped = round_resistance(r, catalog)
            assert round_resistance(snapped, catalog) == snapped, (mode, r)
    assert round_resistance(9.57648785207776e-11) == 1e-10  # was 9.999999999999999e-11
    assert round_resistance(9.999999999999999e-307) == 1e-306


def test_a_catalog_is_its_sorted_read_only_parts():
    for mode, mantissas in [("one_significant_digit", range(1, 10)),
                            ("e12", hardware.E12_MANTISSAS), ("e24", hardware.E24_MANTISSAS)]:
        catalog = ResistorCatalog(mode)
        # a part is its decimal literal as Python parses it, 220.0 and not 2.2 * 1e2, from the
        # lowest decade to the largest finite part
        literals = [float(f"{m}e{e}") for e in range(-307, 309) for m in mantissas]
        assert catalog.parts.tolist() == [p for p in literals if p < math.inf]
        assert catalog.parts[0] == 1e-307 and (np.diff(catalog.parts) > 0).all()
        assert len(catalog.parts) == 616 * len(mantissas) - sum(m * 1e308 == math.inf for m in mantissas)
        assert not catalog.parts.flags.writeable
        assert [round_resistance(p, catalog) for p in catalog.parts.tolist()] == \
            catalog.parts.tolist()
    custom = ResistorCatalog("custom", (2200.0, 100.0, 470.0))
    assert custom.parts.tolist() == [100.0, 470.0, 2200.0]
    # the parts are left out of equality and hashing, which an array could not take part in
    twin = ResistorCatalog("custom", (100.0, 470.0, 2200.0))
    assert custom == twin and hash(custom) == hash(twin)


def test_a_snap_is_the_nearest_part_found_by_a_scan():
    # the reference scans the parts within a factor of 100 (every part of a custom catalog)
    # in Python floats; midpoints of adjacent parts test the ties, which go to the larger part
    rng = np.random.default_rng(35)
    for catalog in (DEFAULT_CATALOG, ResistorCatalog("e12"), ResistorCatalog("e24"),
                    ResistorCatalog("custom", (100.0, 470.0, 2200.0))):
        parts = catalog.parts
        picks = rng.integers(0, len(parts) - 1, 100)
        draws = np.maximum(10.0 ** rng.uniform(-307, 308, 300), 1e-307)
        for r in [*draws.tolist(), *((parts[picks] + parts[picks + 1]) / 2).tolist()]:
            near = parts
            if catalog.mode != "custom":
                near = parts[(r / 100 <= parts) & (parts <= r * 100)]
            want = min(near.tolist(), key=lambda c: (abs(c - r), -c))
            assert round_resistance(r, catalog) == want, (catalog.mode, r)


@given(r=st.floats(1e3, 1e6))
def test_rounded_value_is_within_half_decade_step(r):
    snapped = round_resistance(r)
    # the catalog has one value per mantissa digit, so the snap never
    # moves the value by more than a factor of 1.5
    assert snapped / r <= 1.5 and r / snapped <= 1.5


def test_quantize_bundled_model_preserves_classification(bundled_model):
    quantized = quantize_network(bundled_model)
    for label, mean in CLASS_MEANS.items():
        assert quantized.labels[classify(infer_network(quantized, mean))] == label
        assert bundled_model.labels[classify(infer_network(bundled_model, mean))] == label
    for ohms in wired(quantized).values():
        assert round_resistance(ohms) == ohms


def test_quantize_is_idempotent(bundled_model):
    once = quantize_network(bundled_model)
    assert quantize_network(once) == once


# ------------------ prune and quantize rebuild from the table -----------------


def _per_synapse(net, fn):
    """``net`` with each synapse's resistance R replaced by ``fn(R)``, None dropping it."""
    r = np.full(net.resistances.shape, np.inf)
    for (label, line, polarity), ohms in wired(net).items():
        if (kept := fn(ohms)) is not None:
            r[POLARITIES.index(polarity), net.labels.index(label), line] = kept
    return replace(net, resistances=r)


def _same_model(got, want):
    # json.dumps refuses numpy integers, and the model file holds the synapse order
    assert got == want
    assert json.dumps(network_to_dict(got)) == json.dumps(network_to_dict(want))


@given(net=networks(), r_max=st.floats(1e3, 1e6))
def test_prune_matches_a_per_synapse_reference(net, r_max):
    want = _per_synapse(net, lambda ohms: ohms if ohms < 0.999 * r_max else None)
    _same_model(prune(net, r_max=r_max), want)


@pytest.mark.parametrize("catalog", [
    DEFAULT_CATALOG, ResistorCatalog("e24"), ResistorCatalog("e12"),
    ResistorCatalog("custom", (100.0, 470.0, 2200.0)),
], ids=["default", "e24", "e12", "custom"])
@given(net=networks())
def test_quantize_matches_a_per_synapse_reference(net, catalog):
    want = _per_synapse(net, lambda ohms: round_resistance(ohms, catalog))
    _same_model(quantize_network(net, catalog), want)


def test_prune_and_quantize_write_canonical_order():
    reversed_order = {
        (2, "inhibitory"): 4321.0,
        (0, "inhibitory"): 5e5,
        (1, "excitatory"): 1234.0,
        (0, "excitatory"): 2e4,
    }
    net = Network(("u",), wiring(2, reversed_order), 1e-6)
    canonical = [(0, "excitatory"), (1, "excitatory"),
                 (0, "inhibitory"), (2, "inhibitory")]
    for rebuilt in (prune(net), quantize_network(net)):
        (entry,) = network_to_dict(rebuilt)["neurons"]
        assert [(s["input_index"], s["polarity"]) for s in entry["synapses"]] == canonical
    (entry,) = network_to_dict(quantize_network(net))["neurons"]
    assert [s["resistance_ohms"] for s in entry["synapses"]] == [2e4, 1000.0, 5e5, 4000.0]


def test_prune_and_quantize_return_their_input_when_no_resistance_moves(bundled_model):
    # listed in reverse, a quantized network came back unequal: its synapses in another order
    doc = network_to_dict(quantize_network(bundled_model))
    for entry in doc["neurons"]:
        entry["synapses"].reverse()
    quantized = network_from_dict(doc)
    assert quantize_network(quantized) == quantized
    assert prune(quantized, r_max=1e12) == quantized


# ----------------------------- readout noise --------------------------------


def test_perturb_zero_sigma_is_identity():
    assert perturb_readout(0.4, 0.0, np.random.default_rng(0)) == 0.4


def test_perturb_clamps_to_voltage_range():
    rng = np.random.default_rng(0)
    assert perturb_readout(2.0, 0.0, rng) == 1.0
    assert perturb_readout(-1.0, 0.0, rng) == 0.0
    assert perturb_readout(2.0, 0.0, rng, supply_voltage=5.0) == 2.0


def test_perturb_deterministic_by_seed():
    a = perturb_readout(0.5, 0.1, np.random.default_rng(7))
    b = perturb_readout(0.5, 0.1, np.random.default_rng(7))
    assert a == b
    assert perturb_readout(0.5, 0.1, np.random.default_rng(8)) != a


def test_perturb_array_draws_what_per_element_calls_draw():
    potentials = np.random.Generator(np.random.PCG64(1)).uniform(-0.2, 1.2, size=(500, 3))
    looped_rng, array_rng = (np.random.Generator(np.random.PCG64(3)) for _ in range(2))
    looped = [[perturb_readout(p, 0.3, looped_rng) for p in row] for row in potentials.tolist()]
    noisy = perturb_readout(potentials, 0.3, array_rng)
    assert noisy.shape == potentials.shape
    assert noisy.tolist() == looped  # bitwise, clamps included
    assert array_rng.random() == looped_rng.random()  # the stream continues in step
    assert type(perturb_readout(0.5, 0.1, np.random.default_rng(7))) is float


def test_perturb_noise_statistics():
    rng = np.random.Generator(np.random.PCG64(0))
    draws = [perturb_readout(0.5, 0.05, rng) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
    assert np.std(draws) == pytest.approx(0.05, abs=0.01)
    assert all(0.0 <= d <= 1.0 for d in draws)


# ----------------------------- response maps --------------------------------


def test_response_map_grid_shape(bundled_model):
    rows = response_map(bundled_model, 0.25)
    assert len(rows) == 25
    assert rows[0][:2] == (0.0, 0.0)
    assert rows[-1][:2] == (1.0, 1.0)
    # pitch is the outer loop
    assert rows[1][:2] == (0.0, 0.25)
    assert rows[5][:2] == (0.25, 0.0)


def test_response_map_includes_endpoint_for_uneven_step(bundled_model):
    rows = response_map(bundled_model, 0.3)
    axis = sorted({p for p, _, _ in rows})
    assert axis == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]


def test_response_map_matches_point_inference(bundled_model):
    for pitch, roll, potentials in response_map(bundled_model, 0.5):
        assert potentials == infer_network(bundled_model, (pitch, roll))


def test_response_map_is_a_read_only_sequence(bundled_model):
    rows = response_map(bundled_model, 0.25)
    listed = list(rows)
    assert [rows[i] for i in range(len(rows))] == listed
    assert rows[-1] == listed[-1] and rows[-25] == listed[0]
    assert isinstance(rows[0][0], float) and isinstance(rows[0][2], list)
    with pytest.raises(IndexError):
        rows[25]
    with pytest.raises(IndexError):
        rows[-26]
    with pytest.raises(TypeError):
        rows[0] = (0.0, 0.0, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("step", [0.25, 0.3, 0.07])
def test_response_map_iterated_rows_equal_indexed_and_point_rows(bundled_model, step):
    rows = response_map(bundled_model, step)
    listed = list(rows)
    assert len(listed) == len(rows)
    for i, (pitch, roll, potentials) in enumerate(listed):
        assert rows[i] == (pitch, roll, potentials)
        assert potentials == infer_network(bundled_model, (pitch, roll))


def test_response_map_caps_the_grid(bundled_model, monkeypatch):
    def no_kernel(*_args):
        raise AssertionError("building a map, refused or not, must not reach the kernel")

    monkeypatch.setattr(hardware, "infer_batch", no_kernel)
    for step in (1e-6, 5e-324, 0.0009):
        with pytest.raises(ValueError, match="capped at"):
            response_map(bundled_model, step)
    # the benchmark's and CLI's steps stay well inside the cap
    assert 201**2 < MAX_GRID_POINTS / 10
    # rows are computed only as they are read
    assert len(response_map(bundled_model, 0.001)) == 1001**2 <= MAX_GRID_POINTS


def test_response_map_memory_is_one_row_not_the_grid(bundled_model, tmp_path):
    # 201**2 points x 3 classes x 8 B = 970 KB if the grid's potentials were held at once
    tracemalloc.start()
    try:
        write_response_map_csv(response_map(bundled_model, 0.005), bundled_model.labels,
                               tmp_path / "map.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_a_refused_row_leaves_the_rows_before_it_in_the_file(tmp_path):
    # rows are written as they are read, so the header and row 0 are on disk when row 1 is
    # refused (its message is a row of LIBRARY_REFUSALS)
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="^row 1 "):
        write_response_map_csv(RAGGED_ROWS, ["a", "b", "c"], path)
    assert path.read_bytes() == b"pitch,roll,a,b,c\r\n0.0,0.0,0.1,0.2,0.3\r\n"


def test_response_map_csv(tmp_path, bundled_model):
    rows = response_map(bundled_model, 0.5)
    path = tmp_path / "map.csv"
    write_response_map_csv(rows, bundled_model.labels, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pitch,roll,stand,lie,sit"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[2]) == infer_network(bundled_model, (0.0, 0.0))[0]


def test_response_map_csv_quotes_labels_like_csv_writer(tmp_path):
    path = tmp_path / "x.csv"
    write_response_map_csv([(0.0, 0.5, [0.1, 1e-300, 2.0])], ["a,b", 'say "hi"', "c"], path)
    assert path.read_bytes() == b'pitch,roll,"a,b","say ""hi""",c\r\n0.0,0.5,0.1,1e-300,2.0\r\n'


# -------------------------------- energy ------------------------------------


def _single_rc_network(t_max):
    return Network(("u",), wiring(1, {(0, "excitatory"): 10e3}), 1e-6, t_max=t_max)


def test_a_stimulus_that_holds_no_real_numbers_is_refused_by_name(pruned_bundled_model):
    # complex raised TypeError, None was reported as NaN, strings were parsed, bools read as 1, 0
    cases = (((0.3 + 0j, 0.5), "dtype complex128"), ((None, 0.5), "None"),
             (("0.3", "0.5"), "dtype <U3"), ((b"0.3", b"0.5"), "dtype |S3"), ((True, False), "dtype bool"))
    for stimulus, shown in cases:
        message = f"^stimulus must hold real numbers, got {re.escape(shown)}$"
        for call in (infer_network, energy_per_inference):
            with pytest.raises(ValueError, match=message):
                call(pruned_bundled_model, stimulus)
        with pytest.raises(ValueError, match=message):
            infer_batch(pruned_bundled_model, [stimulus])
    # taken: an int past int64 (an object array), and a bool beside a float, which numpy
    # promotes to float64 before any check sees it
    assert infer_network(pruned_bundled_model, (2**70, 0)) == infer_network(pruned_bundled_model, (1.0, 0.0))
    assert infer_network(pruned_bundled_model, (True, 0.5)) == infer_network(pruned_bundled_model, (1.0, 0.5))


def test_energy_single_charge_frozen_values():
    # one tau of charging from rest: R=10k, C=1uF, v_in=1
    report = energy_per_inference(_single_rc_network(0.01), (1.0,))
    v1 = -math.expm1(-1.0)
    assert report.supply_energy == pytest.approx(1e-6 * v1, rel=1e-12)
    assert report.supply_energy == pytest.approx(6.321205588285577e-07, rel=1e-12)
    assert report.stored_energy == pytest.approx(0.5e-6 * v1**2, rel=1e-12)
    # independent integral of i^2 R over the charge
    analytic = 0.01 / (2 * 10e3) * -math.expm1(-2.0)
    assert report.dissipated_energy == pytest.approx(analytic, rel=1e-12)
    assert report.dissipated_energy == pytest.approx(4.3233235838169365e-07, rel=1e-12)


def test_energy_full_charge_splits_evenly():
    # charging to completion stores half the supplied energy and burns half
    report = energy_per_inference(_single_rc_network(1.0), (1.0,))
    assert report.stored_energy == pytest.approx(0.5 * report.supply_energy, rel=1e-6)
    assert report.dissipated_energy == pytest.approx(0.5 * report.supply_energy, rel=1e-6)


def test_energy_inhibition_only_draws_nothing():
    net = Network(("u",), wiring(1, {(0, "inhibitory"): 10e3}), 1e-6)
    report = energy_per_inference(net, (1.0,))
    assert report.supply_energy == 0.0
    assert report.stored_energy == 0.0
    assert report.dissipated_energy == 0.0


def test_energy_discharge_burns_stored_energy():
    table = wiring(1, {(0, "excitatory"): 10e3, (0, "inhibitory"): 1e3})
    net = Network(("u",), table, 1e-6, t_max=0.01)
    charged = energy_per_inference(net, (1.0,))
    # with the inhibitory branch active the capacitor ends lower but the
    # supply draw (a charge-phase quantity) is unchanged
    assert charged.supply_energy > 0
    assert charged.stored_energy < 0.5e-6 * (-math.expm1(-1.0)) ** 2
    assert charged.dissipated_energy > 0


@given(pitch=st.floats(0.0, 1.0), roll=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_energy_is_conserved(bundled_model, pitch, roll):
    report = energy_per_inference(bundled_model, (pitch, roll))
    assert report.supply_energy == pytest.approx(
        report.stored_energy + report.dissipated_energy, rel=1e-12, abs=1e-24
    )
    assert report.supply_energy >= 0
    assert report.stored_energy >= 0
    assert report.dissipated_energy >= 0


# the class means make a compensated sum differ from a left fold in each of the three totals
_ENERGY_STIMULI = (*CLASS_MEANS.values(), (0.3, 0.7), (0.5, 0.5))
_TOTALS = ("supply_energy", "stored_energy", "dissipated_energy")


def _left_fold(values):
    total = 0
    for value in values:
        total = total + value
    return total


def test_energy_per_neuron_sums_to_totals(bundled_model):
    for stimulus in _ENERGY_STIMULI:
        report = energy_per_inference(bundled_model, stimulus)
        assert len(report.per_neuron) == 3
        for name in _TOTALS:
            assert getattr(report, name) == _left_fold(getattr(e, name) for e in report.per_neuron)
        assert [e.label for e in report.per_neuron] == ["stand", "lie", "sit"]


def test_energy_totals_do_not_follow_builtin_sum(bundled_model, monkeypatch):
    # from Python 3.12 builtin sum of floats is compensated; the totals, and the pinned
    # energy report, must keep their bytes there, so a compensated sum in place of the
    # builtin may not move them
    reports = [energy_per_inference(bundled_model, stimulus) for stimulus in _ENERGY_STIMULI]
    for name in _TOTALS:  # the case has teeth: fsum and a left fold differ on each total
        assert any(math.fsum(getattr(e, name) for e in r.per_neuron) != getattr(r, name)
                   for r in reports)
    monkeypatch.setattr(hardware, "sum", math.fsum, raising=False)
    assert [energy_per_inference(bundled_model, stimulus) for stimulus in _ENERGY_STIMULI] == reports


def test_energy_stored_matches_final_potential(bundled_model):
    report = energy_per_inference(bundled_model, (0.0, 0.0))
    potentials = infer_network(bundled_model, (0.0, 0.0))
    expected = sum(0.5 * 1e-6 * v**2 for v in potentials)
    assert report.stored_energy == pytest.approx(expected, rel=1e-12)


def test_energy_report_dict_keys(bundled_model):
    payload = energy_report_to_dict(energy_per_inference(bundled_model, (0.5, 0.5)))
    assert set(payload) == {
        "supply_energy_joules",
        "stored_energy_joules",
        "dissipated_energy_joules",
        "per_neuron",
    }
    assert len(payload["per_neuron"]) == 3
    assert payload["per_neuron"][0]["label"] == "stand"


def test_energy_reports_are_slotted(bundled_model):
    report = energy_per_inference(bundled_model, (0.5, 0.5))
    for record in (report, *report.per_neuron):
        assert not hasattr(record, "__dict__")  # slotted: batch work holds many reports
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.supply_energy = 0.0


# ----------------------------- inference time -------------------------------


@given(net=networks())
def test_max_inference_time_counts_each_wired_slot_once(net):
    slots = {(line, polarity) for _, line, polarity in wired(net)}
    assert max_inference_time(net) == len(slots) * net.t_max
    assert type(max_inference_time(net)) is float  # the CLI prints its repr


def test_max_inference_time_empty_network():
    net = Network(("u",), np.full((2, 1, 3), np.inf), 1e-6)
    assert max_inference_time(net) == 0.0


globals().update(refusal_tests(LIBRARY_REFUSALS["test_hardware"]))
