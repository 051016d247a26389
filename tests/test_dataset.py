import dataclasses
import hashlib
import math
import re
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcirc import (
    CLASS_MEANS,
    CLASSES,
    DatasetConfig,
    IFNeuron,
    Network,
    PostureSample,
    Synapse,
    build_schedule,
    generate,
    integrate_schedule,
    perturb_readout,
    prune,
    read_csv,
    round_resistance,
    split,
    write_csv,
)
from ifcirc.dataset import _check_real, json_value, text_value
from ifcirc.kernel import duration_matrix
from conftest import wiring
from test_refusals import LIBRARY_REFUSALS, refusal_tests


def test_classes_and_means():
    assert CLASSES == ("stand", "sit", "lie")
    assert CLASS_MEANS["stand"] == (0.0, 0.0)
    assert CLASS_MEANS["sit"] == (0.0, 0.25)
    assert CLASS_MEANS["lie"] == (0.5, 0.0)


def test_generate_counts_and_order():
    samples = generate(DatasetConfig(n_per_class=10, seed=0))
    assert len(samples) == 30
    assert [s.label for s in samples] == ["stand"] * 10 + ["sit"] * 10 + ["lie"] * 10


def test_generate_is_deterministic():
    a = generate(DatasetConfig(n_per_class=50, seed=7))
    b = generate(DatasetConfig(n_per_class=50, seed=7))
    assert a == b
    c = generate(DatasetConfig(n_per_class=50, seed=8))
    assert a != c


_LARGEST_SIGMA = sys.float_info.max / 8.58  # the largest sigma DatasetConfig accepts


def _reference_generate(cfg):
    """The scalar generator: one Box-Muller pair per sample, each built by PostureSample()."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    uniforms = rng.random((len(CLASS_MEANS), 2 * cfg.n_per_class))
    samples = []
    for row, (label, (mean_pitch, mean_roll)) in zip(uniforms, CLASS_MEANS.items()):
        pairs = iter(row.tolist())
        for u1, u2 in zip(pairs, pairs):
            radius = math.sqrt(-2.0 * math.log(1.0 - u1))
            z_pitch = radius * math.cos(2.0 * math.pi * u2)
            z_roll = radius * math.sin(2.0 * math.pi * u2)
            samples.append(
                PostureSample(
                    pitch=mean_pitch + cfg.noise_sigma * z_pitch,
                    roll=mean_roll + cfg.noise_sigma * z_roll,
                    label=label,
                )
            )
    return samples


@settings(max_examples=60)
@given(
    n=st.integers(1, 400),
    sigma=st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 0.04, 1.7, 1e300, 1e307, _LARGEST_SIGMA]),
        st.floats(0.0, _LARGEST_SIGMA),
    ),
    seed=st.integers(0, 2**64 - 1),
)
def test_generate_is_bitwise_the_scalar_reference(n, sigma, seed):
    cfg = DatasetConfig(n_per_class=n, noise_sigma=sigma, seed=seed)
    got, want = generate(cfg), _reference_generate(cfg)
    assert [s.label for s in got] == [s.label for s in want]
    assert [(s.pitch.hex(), s.roll.hex()) for s in got] == [
        (s.pitch.hex(), s.roll.hex()) for s in want
    ]


def test_generated_sample_is_a_constructed_sample():
    for s in generate(DatasetConfig(n_per_class=2, seed=3)):
        built = PostureSample(s.pitch, s.roll, s.label)
        assert type(s) is PostureSample
        assert s == built and hash(s) == hash(built) and repr(s) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.pitch = 0.5
        assert not hasattr(s, "__dict__")


def test_first_sample_frozen_for_seed_42():
    # regression anchor: PCG64 + Box-Muller is platform-stable
    first = generate(DatasetConfig(n_per_class=5, seed=42))[0]
    assert first.label == "stand"
    assert first.pitch == pytest.approx(-0.06395707354344424, abs=0.0)
    assert first.roll == pytest.approx(0.02584521963543267, abs=0.0)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "c0caaffb2e9d361d621a9145869f6a114d20207b263e16befa9ced329a5650ea"),
        (42, "51bc833a0f50ffc8a812942101fa70b0262c945a0c489c9d85dfd27cc7ee29a4"),
    ],
)
def test_gen_data_csv_frozen(tmp_path, seed, digest):
    """The default gen-data CSV, byte for byte, frozen from the scalar-draw generator."""
    from ifcirc.cli import main

    path = tmp_path / "data.csv"
    assert main(["gen-data", "--seed", str(seed), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_large_gen_data_csv_frozen(tmp_path):
    """30,000 rows: enough that numpy's log, cos or sin would change some last ulp."""
    from ifcirc.cli import main

    path = tmp_path / "data.csv"
    assert main(["gen-data", "--n", "10000", "--seed", "1", "--out", str(path)]) == 0
    digest = "232ed092d0cebe11590f703b80665a4172c396a5da8ba0ada65cadaa461b51b2"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_zero_sigma_yields_exact_means():
    samples = generate(DatasetConfig(n_per_class=3, noise_sigma=0.0, seed=0))
    for s in samples:
        assert (s.pitch, s.roll) == CLASS_MEANS[s.label]


def test_noise_statistics_match_config():
    samples = generate(DatasetConfig(n_per_class=2000, seed=1))
    for label in CLASSES:
        group = [s for s in samples if s.label == label]
        mean_p = statistics.fmean(s.pitch for s in group)
        mean_r = statistics.fmean(s.roll for s in group)
        assert mean_p == pytest.approx(CLASS_MEANS[label][0], abs=0.005)
        assert mean_r == pytest.approx(CLASS_MEANS[label][1], abs=0.005)
        sd = statistics.stdev(s.pitch for s in group)
        assert sd == pytest.approx(0.04, abs=0.005)


def test_config_validation():  # its refusals are rows of test_refusals.py
    DatasetConfig(n_per_class=2**63 // 48)  # 8 EiB: numpy shapes it, and no memory holds it
    assert len(generate(DatasetConfig(n_per_class=np.int64(2), seed=np.int64(3)))) == 6


_NEURON = IFNeuron("u", 1e-6, (Synapse(0, "excitatory", 1e5),))
_TABLE = wiring(1, {(0, "excitatory"): 1e5})

# every one-sided numeric setting without a config table of its own: (the call that takes
# the value, its name, its floor), the floor an int for an integer setting, else "> 0" or
# ">= 0".  The CLI's trials, tolerance and seed reach the same checks through text_value
# and json_value, which let no bool through (test_cli.py).
_SETTINGS = {
    # the loader checks n_inputs, which sizes its table, and each synapse's input_index and
    # resistance (test_neuron.py); a network checks each wired entry of its table (below)
    "Network.capacitance": (lambda v: Network(("u",), _TABLE, v), "capacitance", "> 0"),
    "Network.supply_voltage":
        (lambda v: Network(("u",), _TABLE, 1e-6, supply_voltage=v), "supply_voltage", "> 0"),
    "Network.t_max": (lambda v: Network(("u",), _TABLE, 1e-6, t_max=v), "t_max", "> 0"),
    # both took any t_max: at -0.05 s a schedule's slots ran for negative times, and the
    # oracle integrated them without a word
    "duration_matrix": (lambda v: duration_matrix([[0.5, 0.2]], v), "t_max", "> 0"),
    "build_schedule": (lambda v: build_schedule((0.5, 0.2), v), "t_max", "> 0"),
    "prune": (lambda v: prune(Network(("u",), _TABLE, 1e-6), r_max=v), "r_max", "> 0"),
    "round_resistance": (round_resistance, "resistance", "> 0"),
    "perturb_readout":
        (lambda v: perturb_readout(0.5, v, np.random.default_rng(0)), "sigma", ">= 0"),
    "integrate_schedule": (
        lambda v: integrate_schedule(_NEURON, build_schedule((0.5,), 0.05), 1.0, v),
        "step divisor", "> 0",
    ),
    # both took any supply: at -1 V a readout was clamped to -1 V and the oracle gave -0.221 V
    "perturb_readout.supply_voltage": (
        lambda v: perturb_readout(0.5, 0.1, np.random.default_rng(0), supply_voltage=v),
        "supply_voltage", "> 0",
    ),
    "integrate_schedule.v_in": (
        lambda v: integrate_schedule(_NEURON, build_schedule((0.5,), 0.05), v),
        "v_in", "> 0",
    ),
}


@pytest.mark.parametrize("site", _SETTINGS)
def test_a_one_sided_setting_is_refused_by_name(site):
    call, name, floor = _SETTINGS[site]
    if isinstance(floor, int):
        refusals = [(value, f"{name} must be an integer, got {value!r}")
                    for value in (True, False, 1.0, 2.0, "1", math.nan, math.inf, -math.inf)]
        refusals.append((floor - 1, f"{name} must be >= {floor}, got {floor - 1}"))
    else:
        below = -5e-324 if floor == ">= 0" else 0.0
        # an int past the float range escaped as OverflowError
        refusals = [(value, f"{name} must be a finite number {floor}, got {value!r}")
                    for value in (True, False, "1", math.nan, math.inf, -math.inf, below, -1.0,
                                  10**400, -10**400)]
    for value, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    call(np.float64(1.0) if isinstance(floor, str) else np.int64(1))  # numpy numbers pass


def test_a_wired_entry_is_refused_by_name():
    # a resistance lives in a float table, which holds no bool, text or int past the float
    # range (_real_array refuses those: test_neuron.py), and +inf there is an unwired line
    for value in (math.nan, -math.inf, 0.0, -0.0, -5e-324, -1.0, -1.7976931348623157e308):
        message = f"neurons[0] ('u'): resistance must be a finite number > 0, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Network(("u",), wiring(1, {(0, "excitatory"): value}), 1e-6)
    assert Network(("u",), wiring(1, {(0, "excitatory"): np.float64(1.0)}), 1e-6).n_inputs == 1


_NUMBERS = st.one_of(
    st.integers(-2**1100, 2**1100), st.floats(allow_subnormal=True), st.booleans(),
    st.sampled_from([np.float64, np.float32, np.float16]).flatmap(
        lambda t: st.floats(width=np.finfo(t).bits).map(t)),
    st.sampled_from([np.int8, np.int64, np.uint64]).flatmap(
        lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)),
    st.sampled_from([np.True_, math.nan, math.inf, -math.inf, 5e-324, 2**1024, -2**1024]),
)


@given(value=_NUMBERS)
def test_a_file_and_a_setting_take_a_number_by_one_rule(value):
    """``json_value`` reads model and config files, ``text_value`` flags and CSV fields,
    ``_check_real`` checks settings.  The text of a number, its ``str`` (``repr`` for a
    Python number), is taken exactly when the number is; a setting >= 0 takes exactly the
    numbers a file takes that are >= 0."""
    try:
        number = json_value(value, float, "x")
    except ValueError:
        number = None
    else:
        assert type(number) is float and number == float(value)
    try:
        from_text = text_value(str(value), float, "x")
    except ValueError:
        assert number is None
    else:
        assert number is not None
        if type(value) in (int, float):  # numpy's narrow floats print fewer digits
            assert from_text == number
    try:
        _check_real("x", value, zero=True)
    except ValueError:
        assert number is None or number < 0
    else:
        assert number is not None and number >= 0


def test_csv_round_trip_is_exact(tmp_path):
    samples = generate(DatasetConfig(n_per_class=25, seed=3))
    path = tmp_path / "data.csv"
    write_csv(samples, path)
    assert read_csv(path) == samples


def test_csv_header(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(generate(DatasetConfig(n_per_class=1, seed=0)), path)
    assert path.read_text().splitlines()[0] == "pitch,roll,label"


def test_csv_bytes(tmp_path):
    path = tmp_path / "data.csv"
    write_csv([PostureSample(0.1, -0.25, "sit"), PostureSample(1e-300, 0.5, "lie")], path)
    assert path.read_bytes() == b"pitch,roll,label\r\n0.1,-0.25,sit\r\n1e-300,0.5,lie\r\n"


def test_split_is_stratified_and_disjoint():
    samples = generate(DatasetConfig(n_per_class=300, seed=42))
    train, test = split(samples, 0.8, seed=42)
    assert len(train) == 720 and len(test) == 180
    for label in CLASSES:
        assert sum(s.label == label for s in train) == 240
        assert sum(s.label == label for s in test) == 60
    combined = sorted(train + test, key=lambda s: (s.label, s.pitch, s.roll))
    assert combined == sorted(samples, key=lambda s: (s.label, s.pitch, s.roll))


def test_split_deterministic():
    samples = generate(DatasetConfig(n_per_class=30, seed=5))
    assert split(samples, 0.8, seed=9) == split(samples, 0.8, seed=9)
    assert split(samples, 0.8, seed=9) != split(samples, 0.8, seed=10)


def test_split_rejects_bad_fraction():
    samples = generate(DatasetConfig(n_per_class=5, seed=0))
    # a string or None failed in the comparison, with TypeError
    for fraction in (1.5, -0.1, 0.0, 1.0, math.nan, True, 10**400, -10**400, "0.5", None):
        message = f"train_fraction must be in (0, 1), got {fraction!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split(samples, fraction, seed=0)
    assert split(samples, np.float64(0.8), 9) == split(samples, 0.8, 9)


def test_split_refuses_a_seed_by_name():
    """numpy raised a TypeError for 1.5 and an unnamed 'expected non-negative integer'
    for -1."""
    samples = generate(DatasetConfig(n_per_class=5, seed=0))
    for seed in (1.5, True, "3", None):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            split(samples, 0.8, seed)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        split(samples, 0.8, -1)
    assert split(samples, 0.8, np.int64(9)) == split(samples, 0.8, 9)


def test_split_names_the_one_class_it_cannot_split():
    """stand and sit split 8/2; lie's one sample would leave its held-out side empty."""
    samples = generate(DatasetConfig(n_per_class=10, seed=0))[:21]
    assert [s.label for s in samples].count("lie") == 1
    message = "class 'lie' has 1 sample: a train_fraction of 0.8 leaves its held-out side empty"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split(samples, 0.8, seed=0)
    train, test = split(samples[:20], 0.8, seed=0)
    assert (len(train), len(test)) == (16, 4)


@given(value=_NUMBERS)
def test_a_sample_takes_a_number_as_a_file_does(value):
    try:
        number = json_value(value, float, "pitch")
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            PostureSample(value, 0.0, "sit")
    else:
        sample = PostureSample(value, 0.0, "sit")
        assert type(sample.pitch) is float and sample.pitch == number


def test_a_built_sample_round_trips_through_csv(tmp_path):
    samples = [PostureSample(1, np.float64(-0.25), "sit"), PostureSample(np.float32(0.5), -3, "lie")]
    path = tmp_path / "data.csv"
    write_csv(samples, path)
    assert path.read_bytes() == b"pitch,roll,label\r\n1.0,-0.25,sit\r\n0.5,-3.0,lie\r\n"
    assert read_csv(path) == samples


def test_posture_sample_is_frozen():
    s = PostureSample(0.1, 0.2, "stand")
    with pytest.raises(AttributeError):
        s.pitch = 0.5
    assert not hasattr(s, "__dict__")  # slotted: datasets hold many of these


globals().update(refusal_tests(LIBRARY_REFUSALS["test_dataset"]))
