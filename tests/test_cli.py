"""End-to-end command-line behavior, run in-process through main().

The tests run against whichever ``ifcirc`` pytest imports, the checkout or an
installed wheel, and the few that start a child Python start it on that same
copy (``conftest.child_env``).  CI runs this file a second time against the
installed wheel, from outside the checkout.

Covers the config-merge precedence (defaults < config file < flags), the
exit-code contract (0 ok, 1 user error, 2 validation failure), and byte-level
reproducibility of every artifact a seeded run writes.
"""
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcirc import TrainConfig, example_model_path, load_network, read_csv, train
from ifcirc.cli import _COMMANDS, main
from conftest import assert_dispatch_digest, child_env, wired


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echoed_config(out):
    first = out.splitlines()[0]
    assert first.startswith("config ")
    return json.loads(first[len("config "):])


@pytest.fixture
def tiny_csv(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    code, _, _ = run_cli(capsys, "gen-data", "--n", 10, "--seed", 1, "--out", path)
    assert code == 0
    return path


# ----------------------------- parser basics --------------------------------


def test_help_exits_zero(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for command, (summary, _, _) in _COMMANDS.items():
        assert f"  {command} " in out and summary in out
    assert run_cli(capsys, "train", "--help")[0] == 0
    assert run_cli(capsys, "infer", "--pitch", 0, "--pitch", 0, "--help")[0] == 0  # before the repeat
    # -h in a flag's value is the value: a model path here
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "infer", "--model", "-h", "--pitch", 0, "--roll", 0)
    assert (code, err) == (1, "error: [Errno 2] No such file or directory: '-h'\n")
    assert echoed_config(out)["model"] == "-h"


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("ifcirc ")


def test_module_entry_point():
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "ifcirc", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ifcirc ")
    # the command line is read by the settings table, not by argparse
    check = "import ifcirc.cli, sys; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, refusal", [
    (("--help",), ""),
    (("infer", "--model", "bundled", "--pitch", 0, "--roll", 0), ""),
    pytest.param(("response-map", "--model", "bundled", "--step", 0.5, "--out", "/dev/stdout"), "",
                 marks=pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")),
    (("infer", "--model", "nope"), "error: missing required setting --pitch\n"),
], ids=["help", "infer", "response-map", "refusal"])
def test_a_closed_stdout_ends_the_run_quietly(unbuffered, argv, refusal):
    # `ifcirc --help | head -0`: a help page exited 120 with "Exception ignored … BrokenPipeError"
    # on stderr, and a write to the pipe mid-run printed "error: [Errno 32] Broken pipe".  A
    # refusal after the buffered config line also exited 120, its error line followed by the
    # traceback; unbuffered, that line's own write meets the closed pipe before the refusal
    env = child_env(PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "ifcirc", *map(str, argv)], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "" if unbuffered else refusal)


# ------------------------------- refusals -----------------------------------


def _csv(row):
    """A posture CSV with ``row`` on line 3."""
    return f"pitch,roll,label\n0.1,0.2,stand\n{row}\n0.0,0.25,sit\n"


def _model(edit):
    """The bundled model file's text after ``edit`` of its document."""
    return json.dumps(edit(json.loads(example_model_path().read_text())))


def _every_resistance(ohms, **fields):
    """An edit that sets every synapse to ``ohms`` and the document's ``fields``."""
    def edit(doc):
        for neuron in doc["neurons"]:
            for syn in neuron["synapses"]:
                syn["resistance_ohms"] = ohms
        return {**doc, **fields}
    return edit


def _null_resistance(doc):
    doc["neurons"][0]["synapses"][2]["resistance_ohms"] = None
    return doc


def _cfg(**settings):
    return {"cfg.json": json.dumps(settings)}


_TINY = {"tiny.csv": _csv("0.5,0.1,lie")}
_ABSENT = "error: [Errno 2] No such file or directory: "
_UNRECOGNIZED = "error: unrecognized arguments: "

# every subcommand that reads a model, with the settings it needs
_MODEL_COMMANDS = (
    ("infer", "--pitch", 0.3, "--roll", 0.1),
    ("energy", "--pitch", 0.3, "--roll", 0.1),
    ("eval", "--data", "tiny.csv"),
    ("prune", "--out", "p.json"),
    ("quantize", "--catalog", "e24", "--out", "q.json"),
    ("response-map", "--step", 0.5, "--out", "map.csv"),
    ("validate", "--trials", 1, "--step-divisor", 10),
)

_NON_FINITE = [("--pitch", "inf", "Infinity"), ("--pitch", "1e400", "Infinity"), ("--pitch", "nan", "NaN"),
               ("--roll", "-inf", "-Infinity"), ("--roll", "-1e400", "-Infinity")]

# each test's cases: (case id, argv, input files, the one stderr line, whether the config echo
# precedes it); a test whose one case has no id is collected as one bare item
REFUSALS = {
    # a missing command printed a usage block alone, and other refusals the block and
    # "ifcirc: error: …"
    "test_no_subcommand_is_user_error": [
        (None, "", {}, "error: the following arguments are required: command", False)],
    # the choices are quoted on every Python, as argparse quoted them up to Python 3.11
    "test_unknown_subcommand_is_user_error": [
        (None, "frobnicate", {}, "error: argument command: invalid choice: 'frobnicate' "
         "(choose from 'gen-data', 'train', 'eval', 'prune', 'quantize', 'infer', 'response-map', "
         "'energy', 'validate')", False)],
    "test_unknown_flag_is_user_error": [
        ("unknown-flag", "infer --model bundled --frobnicate 1", {}, _UNRECOGNIZED + "--frobnicate 1",
         False),
        # a unique prefix of a flag was once taken: --pit ran as --pitch, and --rol did not take
        # -1e-5 as its value, since only a flag spelled in full took its next word
        ("flag-prefix", "infer --model bundled --pit 0 --roll 0.2", {}, _UNRECOGNIZED + "--pit 0",
         False),
        ("flag-prefix-before-a-dash", "infer --model bundled --pitch 0 --rol -1e-5", {},
         _UNRECOGNIZED + "--rol -1e-5", False),
        # "--" ends no flags: it is one more unknown word, and --roll after it is read
        ("double-dash", "infer --model bundled --pitch 0 -- --roll 0", {}, _UNRECOGNIZED + "--",
         False),
        ("stray-word", "infer --model bundled --pitch 0 stray --roll 0", {}, _UNRECOGNIZED + "stray",
         False)],
    # these three printed a usage block and "invalid int value: 'abc'"
    "test_a_flag_that_is_no_number_is_refused_by_name": [
        ('argv0---n must be an integer, got "abc"', "gen-data --n abc", {},
         'error: --n must be an integer, got "abc"', False),
        ('argv1---n must be an integer, got "2.5"', "gen-data --n 2.5", {},
         'error: --n must be an integer, got "2.5"', False),
        ('argv2---roll must be a finite number, got "x"', "infer --model bundled --pitch 0.1 --roll x",
         {}, 'error: --roll must be a finite number, got "x"', False)],
    # inf and 1e400 were taken as a full-scale input (exit 0, class lie); nan was echoed as
    # NaN before the stimulus refused it.  Written as two words, -inf and -1e400 were once
    # read as options: "argument --roll: expected one argument"
    "test_a_non_finite_input_flag_is_refused_by_name": [
        (f"{flag}{'=' if sep == '=' else '-'}{text}-{shown}-{command}",
         f"{command} --model bundled " + " ".join(f"{key}{sep}{value}" for key, value in
                                                  {"--pitch": 0.3, "--roll": 0.2, flag: text}.items()),
         {}, f"error: {flag} must be a finite number, got {shown}", False)
        for flag, text, shown in _NON_FINITE for command in ("infer", "energy") for sep in (" ", "=")],
    # the last one was taken without a word: this infer classified pitch 0.9
    "test_a_repeated_flag_is_refused_by_name": [
        ("flag-value", "infer --model bundled --pitch 0 --pitch 0.9 --roll 0", {},
         "error: argument --pitch: given more than once", False),
        ("flag=value", "infer --model bundled --pitch=0 --roll 0 --pitch 0.9", {},
         "error: argument --pitch: given more than once", False),
        ("config", "gen-data --config cfg.json --n 2 --config=cfg.json", _cfg(n=3),
         "error: argument --config: given more than once", False)],
    "test_non_finite_parameters_are_user_errors": [
        ("gen-data-sigma-nan", "gen-data --n 2 --sigma nan --out d.csv", {},
         "error: --sigma must be a finite number, got NaN", False),
        ("prune-r-max-nan", "prune --model bundled --r-max nan --out pruned.json", {},
         "error: --r-max must be a finite number, got NaN", False)],

    "test_infer_requires_coordinates": [
        (None, "infer --model bundled --pitch 0", {}, "error: missing required setting --roll", True)],
    "test_train_requires_data": [(None, "train", {}, "error: missing required setting --data", True)],
    # eval, infer and energy used to report the missing model file first
    "test_a_missing_setting_is_refused_before_any_file_is_read": [
        ("eval-argv0-data", "eval --model absent.json", {}, "error: missing required setting --data",
         True),
        ("eval-argv1-model", "eval --data absent.csv", {}, "error: missing required setting --model",
         True),
        ("infer-argv2-roll", "infer --model absent.json --pitch 0", {},
         "error: missing required setting --roll", True),
        ("energy-argv3-pitch", "energy --model absent.json --roll 0", {},
         "error: missing required setting --pitch", True),
        ("train-argv4-data", "train --out absent/model.json --loss-out absent/loss.csv", {},
         "error: missing required setting --data", True)],
    "test_gen_data_holdout_needs_second_path": [
        (None, "gen-data --n 5 --holdout 0.2 --out d.csv", {},
         "error: missing required setting --holdout-out", True)],
    "test_infer_missing_model_file": [
        (None, "infer --model no.json --pitch 0 --roll 0", {}, _ABSENT + "'no.json'", True)],
    "test_negative_seed_is_refused_by_name": [
        ("gen-data-argv0", "gen-data --seed -1", {}, "error: seed must be >= 0, got -1", True),
        ("train-argv1", "train --data tiny.csv --seed -1", _TINY, "error: seed must be >= 0, got -1",
         True),
        ("eval-argv2", "eval --model bundled --data tiny.csv --seed -1", _TINY,
         "error: seed must be >= 0, got -1", True),
        ("infer-argv3", "infer --model bundled --pitch 0.1 --roll 0.2 --noise-sigma 0.01 --seed -1",
         {}, "error: seed must be >= 0, got -1", True),
        ("infer-argv4", "infer --model bundled --pitch 0.1 --roll 0.2 --seed -1", {},
         "error: seed must be >= 0, got -1", True),
        ("validate-argv5", "validate --trials 1 --seed -1", {}, "error: seed must be >= 0, got -1",
         True)],

    # each was found at its write, after the work: train had written m.json over any
    # old one, and gen-data t.csv
    "test_an_output_in_a_missing_directory_is_refused_first": [
        ("train-loss", "train --data tiny.csv --epochs 1 --out m.json --loss-out nodir/l.csv", _TINY,
         "error: --loss-out nodir/l.csv: no directory nodir", True),
        ("gen-data", "gen-data --n 5 --holdout 0.2 --out t.csv --holdout-out nodir/h.csv", {},
         "error: --holdout-out nodir/h.csv: no directory nodir", True),
        ("train-model", "train --data tiny.csv --epochs 1 --out nodir/m.json", _TINY,
         "error: --out nodir/m.json: no directory nodir", True),
        ("response-map", "response-map --model bundled --out nodir/m.csv", {},
         "error: --out nodir/m.csv: no directory nodir", True)],
    # gen-data wrote its 24 training rows and then its 6 held-out rows over them; train wrote
    # the loss CSV over the model it had just reported writing
    "test_two_outputs_may_not_name_one_file": [
        ("gen-data", "gen-data --n 10 --holdout 0.2 --out d.csv --holdout-out ./d.csv", {},
         "error: --out d.csv and --holdout-out ./d.csv name one file", True),
        ("train", "train --data tiny.csv --epochs 1 --out m.json --loss-out m.json", _TINY,
         "error: --out m.json and --loss-out m.json name one file", True)],

    # it exited 0 and wrote no h.csv, while the echoed config named it
    "test_gen_data_holdout_out_needs_a_holdout": [
        (None, "gen-data --n 5 --out d.csv --holdout-out h.csv", {},
         "error: --holdout-out needs a --holdout > 0, got 0.0", True)],
    "test_gen_data_rejects_bad_holdout_fraction": [
        (None, "gen-data --n 5 --holdout 1.5 --out d.csv --holdout-out h.csv", {},
         "error: holdout fraction must be in [0, 1), got 1.5", True)],
    "test_gen_data_refuses_a_holdout_that_empties_a_csv": [
        ("0.9-training", "gen-data --n 1 --holdout 0.9 --out d.csv --holdout-out h.csv", {},
         "error: class 'stand' has 1 sample: a train_fraction of 0.1 leaves its training side empty",
         True),
        ("0.2-held-out", "gen-data --n 1 --holdout 0.2 --out d.csv --holdout-out h.csv", {},
         "error: class 'stand' has 1 sample: a train_fraction of 0.8 leaves its held-out side empty",
         True)],
    # numpy's "Maximum allowed dimension exceeded" named no setting
    "test_gen_data_refuses_a_draw_numpy_cannot_shape": [
        (None, "gen-data --n 100000000000000000000 --out d.csv", {},
         "error: n_per_class 100000000000000000000 is too large for a draw: "
         "Maximum allowed dimension exceeded", True)],

    "test_unknown_config_key_is_user_error": [
        (None, "gen-data --config cfg.json", _cfg(frobnicate=1),
         "error: unknown config keys: frobnicate", False)],
    "test_non_object_config_is_user_error": [
        (None, "gen-data --config cfg.json", {"cfg.json": "[1, 2]"},
         "error: config file cfg.json must hold a JSON object", False)],
    "test_malformed_config_is_user_error": [
        (None, "gen-data --config cfg.json", {"cfg.json": "{not json"},
         "error: config file cfg.json: Expecting property name enclosed in double quotes: line 1 "
         "column 2 (char 1)", False)],
    "test_non_utf8_config_names_the_file": [
        (None, "gen-data --config cfg.json", {"cfg.json": b'{"n": 4, "sigma": 0.04, "x": "\xff"}'},
         "error: config file cfg.json: 'utf-8' codec can't decode byte 0xff in position 30: "
         "invalid start byte", False)],
    "test_missing_config_file_is_user_error": [
        (None, "gen-data --config absent.json", {}, _ABSENT + "'absent.json'", False)],
    "test_config_values_are_type_checked": [
        ("null-epochs", "train --data x.csv --config cfg.json", _cfg(epochs=None),
         "error: config key epochs must be an integer, got null", False),
        ("str-step", "response-map --model bundled --config cfg.json", _cfg(step="x"),
         'error: config key step must be a finite number, got "x"', False),
        ("str-holdout", "gen-data --config cfg.json", _cfg(holdout="0.2"),
         'error: config key holdout must be a finite number, got "0.2"', False),
        ("float-n", "gen-data --config cfg.json", _cfg(n=1.5),
         "error: config key n must be an integer, got 1.5", False),
        ("bool-seed", "gen-data --config cfg.json", _cfg(seed=True),
         "error: config key seed must be an integer, got true", False),
        ("huge-sigma", "gen-data --config cfg.json", _cfg(sigma=10**400),
         f"error: config key sigma must be a finite number, got 1{'0' * 400}", False),
        ("nan-tolerance", "validate --config cfg.json", _cfg(tolerance=math.nan),
         "error: config key tolerance must be a finite number, got NaN", False),
        ("list-catalog-values", "quantize --model bundled --config cfg.json",
         _cfg(catalog_values=[1000, 2000]),
         "error: config key catalog_values must be a string, got [1000, 2000]", False),
        ("bool-pitch", "infer --model bundled --config cfg.json", _cfg(pitch=False),
         "error: config key pitch must be a finite number, got false", False)],

    "test_train_refuses_targets_it_cannot_meet": [
        ("argv0-file_cfg0-target_high must be a finite number > 0, got -1.0",
         "train --data tiny.csv --out m.json --target-high -1", _TINY,
         "error: target_high must be a finite number > 0, got -1.0", True),
        ("argv1-file_cfg1---target-high must be a finite number, got NaN",
         "train --data tiny.csv --out m.json --target-high nan", _TINY,
         "error: --target-high must be a finite number, got NaN", False),
        ("argv2-file_cfg2-energy_weight must be a finite number >= 0, got -0.5",
         "train --data tiny.csv --out m.json --energy-weight -0.5", _TINY,
         "error: energy_weight must be a finite number >= 0, got -0.5", True),
        ("argv3-file_cfg3---energy-weight must be a finite number, got Infinity",
         "train --data tiny.csv --out m.json --energy-weight inf", _TINY,
         "error: --energy-weight must be a finite number, got Infinity", False),
        ("argv4-file_cfg4-target_high must be a finite number > 0, got 0.0",
         "train --data tiny.csv --out m.json --config cfg.json", {**_TINY, **_cfg(target_high=0)},
         "error: target_high must be a finite number > 0, got 0.0", True),
        ("argv5-file_cfg5-energy_weight must be a finite number >= 0, got -1.0",
         "train --data tiny.csv --out m.json --config cfg.json", {**_TINY, **_cfg(energy_weight=-1)},
         "error: energy_weight must be a finite number >= 0, got -1.0", True)],
    # nor a learning rate: training has no step size to set
    "test_train_has_no_rescale_flag": [
        ("train-scale-factor", "train --data tiny.csv --out m.json --epochs 1 --scale-factor 1e-06",
         _TINY, _UNRECOGNIZED + "--scale-factor 1e-06", False),
        ("train-learning-rate", "train --data tiny.csv --out m.json --epochs 1 --learning-rate 5.0",
         _TINY, _UNRECOGNIZED + "--learning-rate 5.0", False),
        ("config-scale-factor", "train --data tiny.csv --out m.json --epochs 1 --config cfg.json",
         {**_TINY, **_cfg(scale_factor=1e-6)}, "error: unknown config keys: scale_factor", False),
        ("config-learning-rate", "train --data tiny.csv --out m.json --epochs 1 --config cfg.json",
         {**_TINY, **_cfg(learning_rate=5.0)}, "error: unknown config keys: learning_rate", False)],
    # capacitance 0 ran into numpy warnings and a non-finite loss; t_max 0 trained on nothing
    "test_train_refuses_a_circuit_without_time_constants": [
        ("capacitance", "train --data tiny.csv --capacitance 0 --out m.json", _TINY,
         "error: capacitance must be a finite number > 0, got 0.0", True),
        ("t_max", "train --data tiny.csv --t-max 0 --out m.json", _TINY,
         "error: t_max must be a finite number > 0, got 0.0", True)],
    # 1e-320 F ran into numpy warnings and a non-finite loss; t_max 1e308 overflowed D * G
    # and wrote a saturated model; an infinite supply warned before its error
    "test_train_refuses_a_time_constant_that_overflows": [
        ("capacitance-1e-320", "train --data tiny.csv --capacitance 1e-320 --out m.json", _TINY,
         "error: r_min 1000.0, r_max 1000000.0, capacitance 1e-320 and t_max 0.05 overflow: "
         "r_max*C/t_max, t_max/(r_min*C) and 1/(r_min*C) must be finite", True),
        ("t_max-1e308", "train --data tiny.csv --t-max 1e308 --out m.json", _TINY,
         "error: r_min 1000.0, r_max 1000000.0, capacitance 1e-06 and t_max 1e+308 overflow: "
         "r_max*C/t_max, t_max/(r_min*C) and 1/(r_min*C) must be finite", True),
        ("supply_voltage-inf", "train --data tiny.csv --supply-voltage inf --out m.json", _TINY,
         "error: --supply-voltage must be a finite number, got Infinity", False)],
    # r_max * C = 1e600 overflowed in numpy and wrote a model that never charges
    "test_train_refuses_a_largest_time_constant_that_overflows": [
        (None, "train --data tiny.csv --r-max 1e300 --capacitance 1e300 --out m.json", _TINY,
         "error: r_min 1000.0, r_max 1e+300, capacitance 1e+300 and t_max 0.05 overflow: "
         "r_max*C/t_max, t_max/(r_min*C) and 1/(r_min*C) must be finite", True)],

    # infer used to ignore -1 and nan, eval blamed nan on the potentials, both took inf
    "test_readout_noise_refuses_a_sigma_that_is_not_a_noise": [
        ("infer--1", "infer --model bundled --pitch 0.1 --roll 0.1 --noise-sigma -1", {},
         "error: sigma must be a finite number >= 0, got -1.0", True),
        ("infer-nan", "infer --model bundled --pitch 0.1 --roll 0.1 --noise-sigma nan", {},
         "error: --noise-sigma must be a finite number, got NaN", False),
        ("infer-inf", "infer --model bundled --pitch 0.1 --roll 0.1 --noise-sigma inf", {},
         "error: --noise-sigma must be a finite number, got Infinity", False),
        ("eval--1", "eval --model bundled --data tiny.csv --noise-sigma -1", _TINY,
         "error: sigma must be a finite number >= 0, got -1.0", True),
        ("eval-nan", "eval --model bundled --data tiny.csv --noise-sigma nan", _TINY,
         "error: --noise-sigma must be a finite number, got NaN", False),
        ("eval-inf", "eval --model bundled --data tiny.csv --noise-sigma inf", _TINY,
         "error: --noise-sigma must be a finite number, got Infinity", False)],

    "test_eval_rejects_infinite_csv_field": [
        (None, "eval --model bundled --data bad.csv", {"bad.csv": _csv("inf,0.0,lie")},
         "error: bad.csv: line 3: pitch must be a finite number, got Infinity", True)],
    "test_train_rejects_infinite_csv_field": [
        (None, "train --data bad.csv --epochs 5 --out m.json", {"bad.csv": _csv("0.5,-inf,lie")},
         "error: bad.csv: line 3: roll must be a finite number, got -Infinity", True)],
    "test_nan_csv_field_reports_its_line": [
        (None, "eval --model bundled --data bad.csv", {"bad.csv": _csv("nan,0.0,lie")},
         "error: bad.csv: line 3: pitch must be a finite number, got NaN", True)],
    # csv.Error is not a ValueError: a 200,000-character field ended in a traceback
    "test_csv_field_past_the_reader_limit_reports_its_line": [
        (None, "eval --model bundled --data bad.csv", {"bad.csv": _csv("x" * 200_000 + ",0.0,lie")},
         "error: bad.csv: line 3: field larger than field limit (131072)", True)],
    "test_non_utf8_csv_names_the_file": [
        (None, "eval --model bundled --data bad.csv",
         {"bad.csv": b"pitch,roll,label\n0.1,0.2,stand\n\xff,0.0,lie\n"},
         "error: bad.csv: 'utf-8' codec can't decode byte 0xff in position 31: invalid start byte",
         True)],

    # --threshold-fraction -5 wrote a model with no synapses and exited 0
    "test_prune_has_no_threshold_fraction": [
        ("flag", "prune --model bundled --threshold-fraction 0.5 --out p.json", {},
         _UNRECOGNIZED + "--threshold-fraction 0.5", False),
        ("config", "prune --config cfg.json --out p.json",
         _cfg(model="bundled", threshold_fraction=0.5),
         "error: unknown config keys: threshold_fraction", False)],
    "test_quantize_custom_needs_values": [
        (None, "quantize --model bundled --out q.json --catalog custom", {},
         "error: --catalog custom needs --catalog-values", True)],
    # float() named only the piece: "could not convert string to float: 'abc'" (or '')
    "test_quantize_names_catalog_values_that_are_not_numbers": [
        ("abc", "quantize --model bundled --out q.json --catalog custom --catalog-values abc", {},
         'error: --catalog-values must be a finite number, got "abc"', True),
        ("1e3,,2e3", "quantize --model bundled --out q.json --catalog custom --catalog-values 1e3,,2e3",
         {}, 'error: --catalog-values must be a finite number, got ""', True)],
    # e24 once snapped to its series, ignored the values and exited 0
    "test_quantize_series_refuses_explicit_values": [
        (None, "quantize --model bundled --out q.json --catalog e24 --catalog-values 1000,2000", {},
         "error: mode 'e24' does not take explicit values", True)],
    "test_quantize_unknown_catalog_is_user_error": [
        (None, "quantize --model bundled --catalog e6 --out q.json", {},
         "error: unknown catalog mode 'e6' (one of: one_significant_digit, e12, e24, custom)", True)],

    "test_malformed_model_is_user_error": [
        ("list-root", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: [doc])},
         "error: model.json: model field root must be a JSON object", True),
        ("missing-threshold", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: {k: v for k, v in doc.items() if k != "threshold"})},
         "error: model.json: model field threshold is missing", True),
        ("null-threshold", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: {**doc, "threshold": None})},
         "error: model.json: model field threshold must be a finite number, got null", True),
        ("null-resistance", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(_null_resistance)}, "error: model.json: model field "
         "neurons[0].synapses[2].resistance_ohms must be a finite number, got null", True),
        # checked before it sizes the wiring table, which numpy refused by its own words
        ("negative-n_inputs", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: {**doc, "n_inputs": -1})},
         "error: model.json: n_inputs must be >= 0, got -1", True)],
    # each exited 0: prune wrote capacitance 1e-06 over the file's 2e-06, energy printed
    # 0 joules, and validate printed "validation ok"
    "test_a_model_without_neurons_is_a_user_error": [
        (command, f"{command} --model model.json {rest}",
         {"model.json": _model(lambda doc: {**doc, "neurons": [], "capacitance": 2e-6})},
         "error: model.json: a network needs at least one neuron", True)
        for command, rest in (("prune", "--out pruned.json"), ("energy", "--pitch 0.3 --roll 0.1"),
                              ("validate", ""))],
    # a model whose neurons shared a label loaded, and one class could never be predicted
    "test_model_commands_refuse_a_repeated_label": [
        (command, f"{command} --model model.json " + " ".join(map(str, rest)),
         {**_TINY, "model.json": _model(lambda doc: {**doc, "neurons": [
             doc["neurons"][0], {**doc["neurons"][1], "label": "stand"}, doc["neurons"][2]]})},
         "error: model.json: neurons[1] ('stand'): label repeats neurons[0]", True)
        for command, *rest in _MODEL_COMMANDS],
    "test_response_map_refuses_oversized_grid": [
        (None, "response-map --model bundled --step 1e-6 --out map.csv", {},
         "error: grid_step 1e-06 is too fine: response maps are capped at 1050625 points", True)],
    # C * v_in**2 = 1e594 J printed numpy overflow warnings and inf/nan joules, and exited 0
    "test_energy_refuses_a_supply_whose_energy_overflows": [
        (None, "energy --model model.json --pitch 0.3 --roll 0.1",
         {"model.json": _model(lambda doc: {**doc, "supply_voltage": 1e300})},
         "error: supply_voltage 1e+300 V and total capacitance 3e-06 F overflow the energy: "
         "C*v_in**2 is not finite", True)],

    "test_validate_refuses_settings_that_check_nothing": [
        ("--trials-0-trials must be >= 1, got 0", "validate --trials 0", {},
         "error: trials must be >= 1, got 0", True),
        ("--trials--3-trials must be >= 1, got -3", "validate --trials -3", {},
         "error: trials must be >= 1, got -3", True),
        ("--tolerance-nan---tolerance must be a finite number, got NaN",
         "validate --trials 1 --tolerance nan", {},
         "error: --tolerance must be a finite number, got NaN", False),
        ("--tolerance--0.5-tolerance must be a finite number >= 0, got -0.5",
         "validate --trials 1 --tolerance -0.5", {},
         "error: tolerance must be a finite number >= 0, got -0.5", True),
        ("--step-divisor-0-step divisor must be a finite number > 0, got 0.0",
         "validate --trials 1 --step-divisor 0", {},
         "error: step divisor must be a finite number > 0, got 0.0", True),
        ("--step-divisor-inf---step-divisor must be a finite number, got Infinity",
         "validate --trials 1 --step-divisor inf", {},
         "error: --step-divisor must be a finite number, got Infinity", False),
        ("--step-divisor-1e-320-step divisor 1e-320 is too small: the step 1/divisor overflows",
         "validate --trials 1 --step-divisor 1e-320", {},
         "error: step divisor 1e-320 is too small: the step 1/divisor overflows", True)],
    # before the oracle's step cap, both ran for hours or ended in an OverflowError
    "test_validate_refuses_an_endless_march": [
        ("step-divisor-1e300", "validate --trials 1 --step-divisor 1e300", {},
         "error: integrating 1.566556043584492 time constants at 1e+300 steps each takes over "
         "10000000 steps", True),
        ("t-max-1e300", "validate --trials 1 --model model.json",
         {"model.json": _model(lambda doc: {**doc, "t_max": 1e300})}, "error: integrating "
         "3.133112087168984e+301 time constants at 1000.0 steps each takes over 10000000 steps",
         True)],
    "test_validate_refuses_a_time_constant_without_a_step": [
        # R·C underflows to 0, or to 1e-323 s where G = 1/(R·C) is infinite: refused on load
        # (energy used to print nan joules and exit 0 on the second)
        *((f"{argv.split()[0]}-rc-{capacitance}", f"{argv} --model model.json",
           {"model.json": _model(_every_resistance(1e-300, capacitance=capacitance))},
           f"error: model.json: neurons[0] ('stand'): time constant R·C of input 0 (excitatory) is "
           f"{tau} s, too small for a finite conductance: 1e-300 ohms, {capacitance} farads", True)
          for capacitance, tau in ((1e-30, "0.0"), (1e-23, "1e-323"))
          for argv in ("validate --trials 1", "energy --pitch 0 --roll 0.5")),
        # R·C = 1e-300 s is a model, but a slot of dt / (R·C) time constants at 1e30 steps each
        # is refused by the step cap
        ("validate-rc-1e-300", "validate --trials 1 --model model.json --step-divisor 1e30",
         {"model.json": _model(_every_resistance(1e-3, capacitance=1e-297))}, "error: integrating "
         "3.184808436607272e+298 time constants at 1e+30 steps each takes over 10000000 steps",
         True)],

    # refusals of a model, a CSV or a pairing of the two that no test above covers
    "test_a_refusal_is_one_error_line_that_writes_nothing": [
        ("model-schema-version-2", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: {**doc, "schema_version": 2})},
         "error: model.json: unsupported model schema_version 2", True),
        ("response-map-3-inputs", "response-map --model model.json --out map.csv",
         {"model.json": _model(lambda doc: {**doc, "n_inputs": 3})},
         "error: response maps need a 2-input network, got 3", True),
        ("infer-3-inputs", "infer --model model.json --pitch 0 --roll 0",
         {"model.json": _model(lambda doc: {**doc, "n_inputs": 3})}, "error: expected 3 inputs, got 2",
         True),
        ("eval-3-inputs", "eval --model model.json --data tiny.csv",
         {**_TINY, "model.json": _model(lambda doc: {**doc, "n_inputs": 3})},
         "error: expected 3 inputs, got 2", True),
        ("eval-a-class-the-model-lacks", "eval --model model.json --data tiny.csv",
         {**_TINY, "model.json": _model(lambda doc: {**doc, "neurons": doc["neurons"][:2]})},
         "error: sample label 'sit' not among network classes ('stand', 'lie')", True),
        ("eval-csv-header", "eval --model bundled --data bad.csv",
         {"bad.csv": "roll,pitch,label\n0.1,0.2,stand\n"},
         "error: bad.csv: line 1: expected header 'pitch,roll,label'", True),
        ("eval-csv-two-fields", "eval --model bundled --data bad.csv", {"bad.csv": _csv("0.5,0.1")},
         "error: bad.csv: line 3: expected 3 fields, got 2", True),
        ("eval-csv-label-run", "eval --model bundled --data bad.csv", {"bad.csv": _csv("0.5,0.1,run")},
         "error: bad.csv: line 3: label must be one of ('stand', 'sit', 'lie'), got 'run'", True)],
}


def _assert_refused(tmp_path, monkeypatch, capsys, argv, files, error, echo):
    """Run ``argv`` in ``tmp_path`` beside ``files``: exit 1, ``error`` alone on stderr, on
    stdout nothing or the echoed config alone, as ``echo`` says, and no file written."""
    for name, content in files.items():
        (tmp_path / name).write_bytes(content.encode() if isinstance(content, str) else content)
    monkeypatch.chdir(tmp_path)
    words = argv.split()
    code, out, err = run_cli(capsys, *words)
    assert (code, err) == (1, error + "\n")
    if echo:  # the merged settings, one line of JSON, and no more
        config = json.loads(out.removeprefix("config "))
        assert out == f"config {json.dumps(config, sort_keys=True)}\n"
        assert list(config) == sorted(FROZEN_SETTINGS[words[0]])
    else:
        assert out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


def _refusal_test(cases):
    """The test of ``cases``: one item per case, run by ``_assert_refused``."""
    if [case_id for case_id, *_ in cases] == [None]:
        def test(tmp_path, monkeypatch, capsys):
            _assert_refused(tmp_path, monkeypatch, capsys, *cases[0][1:])
        return test

    @pytest.mark.parametrize("case", [case[1:] for case in cases], ids=[case[0] for case in cases])
    def test(tmp_path, monkeypatch, capsys, case):
        _assert_refused(tmp_path, monkeypatch, capsys, *case)
    return test


globals().update({name: _refusal_test(cases) for name, cases in REFUSALS.items()})


# ------------------------------- gen-data -----------------------------------


def test_gen_data_writes_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, stdout, _ = run_cli(capsys, "gen-data", "--n", 5, "--out", out)
    assert code == 0
    assert f"wrote 15 rows to {out}" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "pitch,roll,label"
    assert len(lines) == 16


def test_gen_data_holdout_split(tmp_path, capsys):
    out, held = tmp_path / "train.csv", tmp_path / "test.csv"
    code, stdout, _ = run_cli(
        capsys, "gen-data", "--n", 10, "--holdout", 0.2,
        "--out", out, "--holdout-out", held,
    )
    assert code == 0
    assert f"wrote 24 rows to {out}" in stdout
    assert f"wrote 6 rows to {held}" in stdout


@pytest.mark.parametrize("argv, message", [
    (("--holdout", 1.5), "holdout fraction must be in [0, 1), got 1.5"),
    (("--holdout", 0.2), "missing required setting --holdout-out"),
], ids=["fraction", "second-path"])
def test_gen_data_checks_the_holdout_before_it_generates(tmp_path, monkeypatch, capsys, argv, message):
    # both were found after the draw: --n 2000000 took 3.5 to 3.8 s to print the refusal
    def generate(config):
        raise AssertionError("generated before the holdout was checked")

    monkeypatch.setattr("ifcirc.cli.generate", generate)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen-data", "--n", 2000000, *argv)
    assert (code, len(out.splitlines()), err) == (1, 1, f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# ------------------------- flags and defaults (frozen) ------------------------

# every subcommand's settings and defaults; a new knob must be added here on purpose
FROZEN_SETTINGS = {
    "gen-data": {"n": 300, "sigma": 0.04, "seed": 0, "out": "data.csv", "holdout": 0.0,
                 "holdout_out": None},
    "train": {"data": None, "out": "model.json", "loss_out": None, "epochs": 5000, "seed": 0,
              "r_min": 1e3, "r_max": 1e6, "t_max": 0.05, "capacitance": 1e-6,
              "supply_voltage": 1.0, "energy_weight": 0.1, "target_high": None},
    "eval": {"model": None, "data": None, "noise_sigma": 0.0, "seed": 0},
    "prune": {"model": None, "out": "pruned.json", "r_max": 1e6},
    "quantize": {"model": None, "out": "quantized.json", "catalog": "one_significant_digit",
                 "catalog_values": None},
    "infer": {"model": None, "pitch": None, "roll": None, "noise_sigma": 0.0, "seed": 0},
    "response-map": {"model": None, "step": 0.01, "out": "response_map.csv"},
    "energy": {"model": None, "pitch": None, "roll": None, "out": None},
    "validate": {"model": "bundled", "trials": 100, "seed": 0, "tolerance": 1e-6,
                 "step_divisor": 1000.0},
}


def _help_entries(help_text):
    """--flag -> its help text, whitespace-normalized, from a command's --help page."""
    entries, current = {}, None
    for line in help_text.split("options:", 1)[1].splitlines():
        if line.startswith("  -"):
            current = line.split()[0].rstrip(",")
            entries[current] = line
        elif current is not None:
            entries[current] += " " + line
    return {flag: " ".join(text.split()) for flag, text in entries.items()}


@pytest.mark.parametrize("command", sorted(FROZEN_SETTINGS))
def test_help_lists_every_flag_with_its_default(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    entries = _help_entries(out)
    flags = {"--" + key.replace("_", "-"): v for key, v in FROZEN_SETTINGS[command].items()}
    assert set(entries) == {"-h", "--config", *flags}
    for flag, default in flags.items():
        if default is None:
            assert "(default" not in entries[flag]
        else:
            assert entries[flag].endswith(f"(default {default})")


@pytest.mark.parametrize("command", sorted(FROZEN_SETTINGS))
def test_defaults_are_frozen(tmp_path, monkeypatch, capsys, command):
    # each run stops right after the config echo: a required setting is missing
    # (gen-data needs none and writes its default CSV into the scratch directory)
    monkeypatch.chdir(tmp_path)
    expected = dict(FROZEN_SETTINGS[command])
    argv = [command]
    if command == "validate":
        expected["model"] = str(tmp_path / "absent.json")
        argv += ["--model", expected["model"]]
    _, out, _ = run_cli(capsys, *argv)
    echoed = echoed_config(out)
    assert echoed == expected
    assert [type(v) for v in echoed.values()] == [type(expected[k]) for k in echoed]


# ------------------------------ config files --------------------------------


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 7, "sigma": 0.0}))
    out = tmp_path / "d.csv"
    code, stdout, _ = run_cli(
        capsys, "gen-data", "--config", cfg_path, "--seed", 3, "--out", out
    )
    assert code == 0
    cfg = echoed_config(stdout)
    assert cfg["n"] == 7 and cfg["sigma"] == 0.0 and cfg["seed"] == 3
    assert len(out.read_text().splitlines()) == 22


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 7}))
    code, stdout, _ = run_cli(
        capsys, "gen-data", "--config", cfg_path, "--n", 4, "--out", tmp_path / "d.csv"
    )
    assert code == 0
    assert echoed_config(stdout)["n"] == 4


def test_config_integer_is_accepted_as_float(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sigma": 1, "holdout_out": None}))
    code, out, _ = run_cli(capsys, "gen-data", "--config", cfg_path, "--n", 2, "--out", tmp_path / "d.csv")
    assert code == 0
    assert out.splitlines()[0].endswith('"seed": 0, "sigma": 1.0}')
    assert echoed_config(out)["holdout_out"] is None


# -------------------------------- infer -------------------------------------


def test_infer_bundled_model(capsys):
    code, out, _ = run_cli(capsys, "infer", "--model", "bundled", "--pitch", 0, "--roll", 0.25)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "class sit"
    potentials = dict(
        line.split()[1:] for line in lines if line.startswith("potential ")
    )
    assert set(potentials) == {"stand", "lie", "sit"}
    assert max(potentials, key=lambda k: float(potentials[k])) == "sit"


def test_infer_with_noise_is_seeded(capsys):
    argv = ("infer", "--model", "bundled", "--pitch", 0.1, "--roll", 0.1,
            "--noise-sigma", 0.05, "--seed", 9)
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    clean = run_cli(capsys, *argv[:-4])
    assert clean[1] != first[1]


# ------------------------------ train / eval --------------------------------


def test_train_and_eval_round_trip(tmp_path, tiny_csv, capsys):
    model = tmp_path / "model.json"
    loss = tmp_path / "loss.csv"
    code, stdout, _ = run_cli(
        capsys, "train", "--data", tiny_csv, "--out", model,
        "--loss-out", loss, "--epochs", 60,
    )
    assert code == 0
    assert f"wrote model to {model}" in stdout
    lines = stdout.splitlines()
    epochs_run = int(next(l.split()[1] for l in lines if l.startswith("epochs_run")))
    assert 0 < epochs_run <= 60
    net = load_network(model)
    assert net.labels == ("stand", "sit", "lie")
    assert loss.read_text().startswith("epoch,loss")
    # the history follows the model written, dropped synapses and all
    final_loss = next(l.split()[1] for l in lines if l.startswith("final_loss"))
    assert loss.read_text().splitlines()[-1].split(",")[1] == final_loss

    code, stdout, _ = run_cli(capsys, "eval", "--model", model, "--data", tiny_csv)
    assert code == 0
    accuracy = float(next(
        l.split()[1] for l in stdout.splitlines() if l.startswith("accuracy")
    ))
    assert 0.0 <= accuracy <= 1.0


def test_train_defaults_come_from_trainconfig(tmp_path, tiny_csv, capsys):
    code, out, _ = run_cli(
        capsys, "train", "--data", tiny_csv, "--epochs", 1, "--out", tmp_path / "m.json"
    )
    assert code == 0
    cfg = echoed_config(out)
    # every training setting is a flag: TrainConfig has no Python-only field
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    assert set(cfg) == {"data", "out", "loss_out", *fields}
    assert all(cfg[key] == getattr(TrainConfig(), key) for key in fields if key != "epochs")


def test_train_objective_flags_reach_trainconfig(tmp_path, tiny_csv, capsys):
    model = tmp_path / "m.json"
    argv = ("--epochs", 20, "--energy-weight", 0.3, "--target-high", 0.8)
    code, _, _ = run_cli(capsys, "train", "--data", tiny_csv, "--out", model, *argv)
    assert code == 0
    cfg = TrainConfig(epochs=20, energy_weight=0.3, target_high=0.8)
    assert load_network(model) == train(read_csv(tiny_csv), cfg).network


def _trained_resistances(model):
    return list(wired(load_network(model)).values())


@pytest.mark.parametrize("supply", ["1.3e154", "1e300"])
def test_train_at_a_huge_supply_writes_the_1_volt_resistances(tmp_path, tiny_csv, capsys, supply):
    # in volts, 1.3e154 overflowed the summed squared residuals and training diverged at
    # epoch 0, and 1e300 was refused as its square overflowed; training in supply units
    # never forms either
    runs = {}
    for v in ("1", supply):
        model = tmp_path / f"m{v}.json"
        code, out, _ = run_cli(capsys, "train", "--data", tiny_csv, "--supply-voltage", v,
                               "--out", model)
        assert code == 0
        runs[v] = out.splitlines()[1:4], model
    # the same epochs_run, final_loss (in units of the supply squared) and train_accuracy
    assert runs[supply][0] == runs["1"][0]
    assert _trained_resistances(runs[supply][1]) == _trained_resistances(runs["1"][1])
    assert load_network(runs[supply][1]).supply_voltage == float(supply)


def test_train_takes_an_energy_weight_of_1e308(tmp_path, tiny_csv, capsys):
    # 0.5 * 1e308 * 1e2 * 1e2 overflowed into a nan gradient (invalid value in matmul),
    # and the refusal that replaced it is gone: in supply units the term is 1e308 * mean(V_e)
    model = tmp_path / "m.json"
    argv = ("--energy-weight", "1e308", "--supply-voltage", "1e2", "--epochs", 20, "--out", model)
    code, out, _ = run_cli(capsys, "train", "--data", tiny_csv, *argv)
    assert code == 0
    final_loss = float(next(l.split()[1] for l in out.splitlines() if l.startswith("final_loss")))
    assert math.isfinite(final_loss)
    assert all(1e3 <= r <= 1e6 for r in _trained_resistances(model))


@pytest.mark.parametrize("argv, accuracy", [
    # every line's D·G is below 1e-300: nothing charges, every potential reads 0 V
    (("--capacitance", "1e300"), "train_accuracy 0.3333333333333333"),
    # 1e-300 of the supply for the true class is no target: the first fit is at 2/30, and
    # elimination may then strip every synapse, ties going to the first class
    (("--target-high", "1e-300"), "train_accuracy 0.3333333333333333"),
])
def test_train_writes_a_model_from_a_useless_fit(tmp_path, tiny_csv, capsys, argv, accuracy):
    # refusing these runs is a policy question; until it is settled they exit 0, and the
    # model they write works with every command that reads one
    model = tmp_path / "m.json"
    code, out, _ = run_cli(capsys, "train", "--data", tiny_csv, *argv, "--out", model)
    assert code == 0 and accuracy in out.splitlines()
    assert len(load_network(model).labels) == 3
    for command in (("eval", "--data", tiny_csv), ("validate", "--trials", 2),
                    ("response-map", "--step", 0.5, "--out", tmp_path / "map.csv")):
        assert run_cli(capsys, command[0], "--model", model, *command[1:])[0] == 0, command


def test_train_and_prune_share_a_narrower_box(tmp_path, capsys):
    # train --r-max 5e5 used to fail: its hidden initialization range reached 1e6
    data, held = tmp_path / "train.csv", tmp_path / "test.csv"
    argv = ("--n", 300, "--seed", 42, "--holdout", 0.2, "--out", data, "--holdout-out", held)
    assert run_cli(capsys, "gen-data", *argv)[0] == 0
    model, pruned = tmp_path / "m.json", tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "train", "--data", data, "--r-max", 5e5, "--out", model)
    assert code == 0
    rs = _trained_resistances(model)
    assert all(1e3 <= r <= 5e5 for r in rs)
    code, out, _ = run_cli(capsys, "prune", "--model", model, "--r-max", 5e5, "--out", pruned)
    assert code == 0
    counts = {k: int(v) for k, v in (l.split() for l in out.splitlines()[1:3])}
    assert counts["synapses_after"] < counts["synapses_before"] == len(rs)


def test_eval_bundled_on_clean_means(tmp_path, capsys):
    data = tmp_path / "clean.csv"
    assert run_cli(capsys, "gen-data", "--n", 4, "--sigma", 0, "--out", data)[0] == 0
    code, out, _ = run_cli(capsys, "eval", "--model", "bundled", "--data", data)
    assert code == 0
    assert "accuracy 1.0" in out


@pytest.mark.parametrize(
    "sigma, accuracy", [(0.05, "0.9888888888888889"), (0.3, "0.8944444444444445")]
)
def test_eval_with_readout_noise_frozen_output(tmp_path, capsys, sigma, accuracy):
    """Noise is drawn sample-major, neuron-minor: the seed's PCG64 stream order.

    Frozen from the per-sample inference loop the batched kernel replaced;
    drawing the same noise neuron-major changes both accuracies.
    """
    data = tmp_path / "data.csv"
    assert run_cli(capsys, "gen-data", "--n", 300, "--seed", 1, "--out", data)[0] == 0
    code, out, _ = run_cli(
        capsys, "eval", "--model", "bundled", "--data", data,
        "--noise-sigma", sigma, "--seed", 3,
    )
    assert code == 0
    assert out.replace(str(data), "DATA") == (
        f'config {{"data": "DATA", "model": "bundled", "noise_sigma": {sigma}, "seed": 3}}\n'
        "samples 900\n"
        f"accuracy {accuracy}\n"
    )


def test_eval_with_readout_noise_is_seeded(tmp_path, tiny_csv, capsys):
    argv = ("eval", "--model", "bundled", "--data", tiny_csv,
            "--noise-sigma", 0.1, "--seed", 5)
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


# --------------------------- prune / quantize --------------------------------


def test_prune_bundled(tmp_path, capsys):
    out = tmp_path / "pruned.json"
    code, stdout, _ = run_cli(capsys, "prune", "--model", "bundled", "--out", out)
    assert code == 0
    assert "synapses_before 18" in stdout
    assert "synapses_after 9" in stdout
    assert "max_inference_time_s 0.25" in stdout
    assert len(wired(load_network(out))) == 9
    digest = "c20f976e35b7c9a93b3f9d8865396d8932ae2f65107e3935f6a24a68eddaf4e7"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_quantize_bundled(tmp_path, capsys):
    out = tmp_path / "quantized.json"
    code, stdout, _ = run_cli(capsys, "quantize", "--model", "bundled", "--out", out)
    assert code == 0
    assert "synapses_changed" in stdout
    mantissas = {float(f"{ohms:e}".split("e")[0]) for ohms in wired(load_network(out)).values()}
    assert mantissas <= {float(d) for d in range(1, 10)}
    digest = "03079e9d974b83231b2ef34a4b6aafd3a342e8a1d2514b93d14f252518bc8044"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_quantize_custom_catalog(tmp_path, capsys):
    out = tmp_path / "q.json"
    code, _, _ = run_cli(
        capsys, "quantize", "--model", "bundled", "--out", out,
        "--catalog", "custom", "--catalog-values", "1000,100000",
    )
    assert code == 0
    values = set(wired(load_network(out)).values())
    assert values <= {1000.0, 100000.0}


def _tiny_resistance(doc):
    doc["capacitance"] = 1e300  # keeps G = 1/(R·C) finite, so the model loads
    doc["neurons"][0]["synapses"][0]["resistance_ohms"] = 5e-324
    return doc


def test_quantize_refuses_a_resistance_below_every_decade(tmp_path):
    # 10.0 ** floor(log10(5e-324)) is 0.0, and the decade search multiplied 0 by 10 forever
    model = tmp_path / "model.json"
    model.write_text(_model(_tiny_resistance))
    proc = subprocess.run(
        [sys.executable, "-m", "ifcirc", "quantize", "--model", str(model),
         "--out", str(tmp_path / "q.json")],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: resistance 5e-324 ohms is below 1e-307, the lowest decade of the "
        "one_significant_digit series\n"
    )
    assert not (tmp_path / "q.json").exists()


# --------------------------- response-map / energy ---------------------------


def test_response_map_csv(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, stdout, _ = run_cli(
        capsys, "response-map", "--model", "bundled", "--step", 0.5, "--out", out
    )
    assert code == 0
    assert f"wrote 9 rows to {out}" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "pitch,roll,stand,lie,sit"
    assert len(lines) == 10


def test_response_map_csv_frozen(tmp_path, capsys):
    """The default grid on the bundled model, byte for byte: 10,201 rows, CRLF line ends."""
    out = tmp_path / "map.csv"
    code, _, _ = run_cli(capsys, "response-map", "--model", "bundled", "--step", 0.01, "--out", out)
    assert code == 0
    assert_dispatch_digest({
        "X86_V4/X86_V4": "6940a5a61df68916e10e57452f1e20d37d56505e1a064879d79191758f432f1c",
        "X86_V3/baseline(X86_V2)":
            "292bd8c57e52242d371eff69e3d3c52f5d0a9429ba3977beda1559d45bc75cfb",
    }, hashlib.sha256(out.read_bytes()).hexdigest())


@pytest.mark.parametrize("t_max", [1, 10], ids=["line-sum-overflows", "line-product-overflows"])
def test_a_line_sum_past_the_largest_float_reads_0_volts(tmp_path, capsys, t_max):
    # at C = 1e-311 F and 1e3 ohms each line's D·G is 1e308 * t_max: the three-line sum
    # (t_max 1) or the first product (t_max 10) overflows, and exp(-inf) = 0 V is right,
    # so no overflow warning may reach the user
    model = tmp_path / "model.json"
    model.write_text(_model(_every_resistance(1e3, capacitance=1e-311, t_max=t_max)))
    code, out, _ = run_cli(capsys, "infer", "--model", model, "--pitch", 1, "--roll", 1)
    assert code == 0
    assert out.splitlines()[1:4] == ["potential stand 0.0", "potential lie 0.0", "potential sit 0.0"]
    code, out, _ = run_cli(capsys, "energy", "--model", model, "--pitch", 1, "--roll", 1)
    assert code == 0 and "stored_energy_joules 0.0" in out.splitlines()
    csv = tmp_path / "map.csv"
    code, _, _ = run_cli(capsys, "response-map", "--model", model, "--step", 0.5, "--out", csv)
    assert code == 0
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 9 and all(row.endswith(",0.0,0.0,0.0") for row in rows)


def test_energy_report(tmp_path, capsys):
    report_path = tmp_path / "energy.json"
    code, stdout, _ = run_cli(
        capsys, "energy", "--model", "bundled",
        "--pitch", 0.5, "--roll", 0.5, "--out", report_path,
    )
    assert code == 0
    assert "max_inference_time_s 0.30000000000000004" in stdout
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    assert report["supply_energy_joules"] == pytest.approx(
        report["stored_energy_joules"] + report["dissipated_energy_joules"], rel=1e-9
    )
    assert len(report["per_neuron"]) == 3
    # byte for byte, so the report's key order and float reprs cannot drift
    digest = "ed415dc9b3c35bcb43af3013ad11ab168d094c638324fe5cdd979cc28468bd22"
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == digest


def test_energy_to_an_unwritable_path_prints_no_report(tmp_path, capsys):
    # as in every writing subcommand, a failed write leaves stdout at the config line; an
    # output in a missing directory, which once failed at the write, is refused before it
    missing = tmp_path / "missing"
    for out, refusal in ((missing / "energy.json", f"error: --out {missing / 'energy.json'}: "
                                                   f"no directory {missing}\n"),
                         (tmp_path, "error: [Errno 21] ")):  # a directory: the write fails
        code, stdout, err = run_cli(
            capsys, "energy", "--model", "bundled", "--pitch", 0, "--roll", 0, "--out", out
        )
        assert code == 1
        assert len(stdout.splitlines()) == 1 and echoed_config(stdout)["out"] == str(out)
        assert err.startswith(refusal) and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


# -------------------------------- validate -----------------------------------


def test_validate_bundled_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--trials", 3)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "validation ok"
    worst = float(next(l.split()[1] for l in lines if l.startswith("max_relative_error")))
    assert worst < 1e-6


def test_validate_fails_above_tolerance(capsys):
    code, out, err = run_cli(capsys, "validate", "--trials", 2, "--tolerance", 1e-18)
    assert code == 2
    assert "validation FAILED" in err
    assert "validation ok" not in out


def test_a_setting_flag_takes_the_next_word_whatever_it_starts_with(tmp_path, monkeypatch, capsys):
    # -1e-5 was once read as an option, with a usage block; only --roll=-1e-5 worked
    joined = run_cli(capsys, "infer", "--model", "bundled", "--pitch", 0, "--roll=-1e-5")
    assert joined[0] == 0 and echoed_config(joined[1])["roll"] == -1e-5
    assert run_cli(capsys, "infer", "--model", "bundled", "--pitch", 0, "--roll", "-1e-5") == joined
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-c.json").write_text('{"model": "bundled", "pitch": 0, "roll": -1e-5}')
    assert run_cli(capsys, "infer", "--config", "-c.json") == joined
    # a flag is never taken as a value: --pitch still has none
    code, out, err = run_cli(capsys, "infer", "--model", "bundled", "--pitch", "--roll", 0)
    assert (code, out, err) == (1, "", "error: argument --pitch: expected one argument\n")


# text -> the float that every boundary reads it as, or the JSON spelling each refusal shows
_TEXTS = {
    "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e400": "Infinity", "abc": '"abc"',
    "": '""', "--": '"--"', ".5": 0.5, " 0.5 ": 0.5, "1_0": 10.0,
}


@pytest.mark.parametrize("text", _TEXTS)
def test_text_becomes_a_number_by_one_rule_at_every_boundary(tmp_path, capsys, text):
    # read_csv said "non-finite value in 'nan','0.0'" or float()'s "could not convert string
    # to float: 'abc'", naming no column; --catalog-values said "must be numbers separated by
    # commas", and let nan through to the catalog's own check.  The flag value "--" was once
    # read as no words: --pitch ended in a TypeError traceback
    data, model = tmp_path / "d.csv", tmp_path / "q.json"
    data.write_text(f"pitch,roll,label\n{text},0,stand\n")
    runs = {
        "--pitch": ("infer", "--model", "bundled", "--pitch", text, "--roll", 0),
        f"{data}: line 2: pitch": ("eval", "--model", "bundled", "--data", data),
        "--catalog-values": ("quantize", "--model", "bundled", "--out", model,
                             "--catalog", "custom", "--catalog-values", text),
    }
    expected = _TEXTS[text]
    results = {name: run_cli(capsys, *argv) for name, argv in runs.items()}
    if isinstance(expected, str):
        for name, (code, _, err) in results.items():
            assert (code, err) == (1, f"error: {name} must be a finite number, got {expected}\n")
        assert not model.exists()
    else:
        assert {code for code, _, _ in results.values()} == {0}
        read = {
            echoed_config(results["--pitch"][1])["pitch"],
            read_csv(data)[0].pitch,
            *wired(load_network(model)).values(),
        }
        assert read == {expected}


@pytest.mark.parametrize("setup, argv", [
    ((), ("gen-data", "--n", 20, "--holdout", 0.25, "--holdout-out", "h.csv", "--out", "d.csv")),
    ((), ("train", "--data", "tiny.csv", "--epochs", 20, "--loss-out", "l.csv", "--out", "m.json")),
    ((), ("quantize", "--model", "bundled", "--catalog", "e24", "--out", "q.json")),
    ((), ("energy", "--model", "bundled", "--pitch", ".5", "--roll", "1e-1", "--out", "e.json")),
    ((), ("infer", "--model", "bundled", "--pitch", 0.3, "--roll", 0.2)),
    ((("train", "--data", "tiny.csv", "--epochs", 30, "--out", "m.json"),
      ("quantize", "--model", "m.json", "--catalog", "e12", "--out", "q.json")),
     ("eval", "--model", "q.json", "--data", "tiny.csv")),
], ids=["gen-data", "train", "quantize", "energy", "infer", "e12-eval"])
def test_an_echo_line_replays_its_run(tmp_path, setup, argv):
    for before in (("gen-data", "--n", 10, "--seed", 1, "--out", "tiny.csv"), *setup):
        code, _, err = _run_in(tmp_path, before)
        assert (code, err) == (0, "")
    code, out, err = _run_in(tmp_path, argv)
    assert (code, err) == (0, "")
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    echo = out.splitlines()[0].removeprefix("config ")
    json.loads(echo, parse_constant=_strict_constant)
    (tmp_path / "echo.json").write_text(echo)
    assert _run_in(tmp_path, [argv[0], "--config", "echo.json"]) == (code, out, err)
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


# ---------------------------- reproducibility --------------------------------


def _run_twice(capsys, tmp_path, name, argv_for):
    """Run a subcommand twice into separate files; return both (stdout, bytes)."""
    results = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}_{tag}"
        code, stdout, _ = run_cli(capsys, *argv_for(out))
        assert code == 0
        results.append((stdout.replace(str(out), "OUT"), out.read_bytes()))
    return results


def test_gen_data_is_byte_reproducible(tmp_path, capsys):
    a, b = _run_twice(
        capsys, tmp_path, "d.csv",
        lambda out: ("gen-data", "--n", 20, "--seed", 5, "--out", out),
    )
    assert a == b


def test_train_is_byte_reproducible(tmp_path, tiny_csv, capsys):
    a, b = _run_twice(
        capsys, tmp_path, "m.json",
        lambda out: ("train", "--data", tiny_csv, "--epochs", 40, "--out", out),
    )
    assert a == b


def test_response_map_is_byte_reproducible(tmp_path, capsys):
    a, b = _run_twice(
        capsys, tmp_path, "map.csv",
        lambda out: ("response-map", "--model", "bundled", "--step", 0.2, "--out", out),
    )
    assert a == b


def test_validate_is_reproducible(capsys):
    argv = ("validate", "--trials", 2, "--seed", 11)
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


# -------------------------------- fuzzing ------------------------------------
# main() on mutated config files, CSV rows and model files must never raise:
# it returns 0 or 1 (2 only from validate's failed check), and says why.

_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),  # small, so no example trains or generates at scale
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", ".", "bundled", "e24", "custom", "1000,2000", "nan"]),
    st.text(alphabet="abe0.,-", max_size=5),
    st.lists(st.integers(0, 2), max_size=2),
)

# settings that keep an unmutated run small and, where they can, successful
_FUZZ_BASE = {
    "gen-data": {"n": 2, "holdout": 0.5, "out": "d.csv", "holdout_out": "h.csv"},
    "train": {"data": "tiny.csv", "epochs": 2, "out": "m.json", "loss_out": "l.csv"},
    "eval": {"model": "bundled", "data": "tiny.csv"},
    "prune": {"model": "bundled", "out": "p.json"},
    "quantize": {"model": "bundled", "out": "q.json"},
    "infer": {"model": "bundled", "pitch": 0.1, "roll": 0.2},
    "response-map": {"model": "bundled", "step": 0.5, "out": "map.csv"},
    "energy": {"model": "bundled", "pitch": 0.1, "roll": 0.2, "out": "e.json"},
    "validate": {"trials": 1, "step_divisor": 10.0},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert _run_in(path, ["gen-data", "--n", 3, "--seed", 2, "--out", "tiny.csv"])[0] == 0
    return path


def _run_in(directory, argv):
    """main(argv) with ``directory`` as working directory: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(directory, argv):
    code, out, err = _run_in(directory, argv)
    assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 1))
    if code == 1:
        assert err.startswith("error: ")
    if code == 2:
        assert "validation FAILED" in err
    assert "Traceback" not in err
    return code, out, err


def _flag_text(kind, value):
    """How a flag spells the config value ``value`` of a ``kind`` setting; None where it cannot."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return None
    return value if kind is str else repr(value)


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_fresh(fuzz_dir, settings_file, argv):
    """``argv`` with ``settings_file`` as --config, from a directory holding only tiny.csv."""
    run_dir = fuzz_dir / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    shutil.copy(fuzz_dir / "tiny.csv", run_dir)
    (run_dir / "cfg.json").write_text(settings_file)
    return _assert_clean_exit(run_dir, [argv[0], "--config", "cfg.json", *argv[1:]])


@pytest.mark.parametrize("command", sorted(FROZEN_SETTINGS))
@settings(max_examples=30)
@given(data=st.data())
def test_fuzzed_config_is_never_a_crash(fuzz_dir, command, data):
    keys = st.sampled_from(sorted(FROZEN_SETTINGS[command]))
    mutation = data.draw(st.dictionaries(keys, _JSON_VALUES, max_size=4))
    base = _FUZZ_BASE[command]
    code, out, err = _run_fresh(fuzz_dir, json.dumps({**base, **mutation}), [command])
    # the same run with each value that a flag can spell given as that flag: the same
    # exit, stdout and stderr, but for the name of a refused value
    kinds = {key: kind for key, kind, _, _ in _COMMANDS[command][2]}
    texts = {key: _flag_text(kinds[key], value) for key, value in mutation.items()}
    flags = {key: text for key, text in texts.items() if text is not None}
    in_file = {key: value for key, value in mutation.items() if key not in flags}
    flag_argv = [command, *(f"--{key.replace('_', '-')}={text}" for key, text in flags.items())]
    flag_err = err
    for key in flags:
        flag_err = flag_err.replace(f"config key {key} must", f"--{key.replace('_', '-')} must")
    assert _run_fresh(fuzz_dir, json.dumps({**base, **in_file}), flag_argv) == (code, out, flag_err)
    if out:  # the echo line is strict JSON, and fed back as --config it replays the run
        echo = out.splitlines()[0].removeprefix("config ")
        json.loads(echo, parse_constant=_strict_constant)
        assert _run_fresh(fuzz_dir, echo, [command]) == (code, out, err)


_CSV_FIELDS = st.one_of(
    st.sampled_from(["0.1", "-0.2", "1e3", "nan", "-inf", "", "stand", "sit", "lie", " 0.5"]),
    st.text(alphabet='0.e-,"x', max_size=4),
)


@settings(max_examples=60)
@given(
    header=st.sampled_from(["pitch,roll,label", "pitch,roll", "label,roll,pitch", ""]),
    rows=st.lists(st.lists(_CSV_FIELDS, max_size=4), max_size=4),
)
def test_fuzzed_csv_is_never_a_crash(fuzz_dir, header, rows):
    (fuzz_dir / "rows.csv").write_text("\n".join([header, *(",".join(r) for r in rows)]) + "\n")
    _assert_clean_exit(fuzz_dir, ["eval", "--model", "bundled", "--data", "rows.csv"])
    _assert_clean_exit(fuzz_dir, ["eval", "--model", "bundled", "--data", "rows.csv",
                                  "--noise-sigma", 0.1])
    _assert_clean_exit(fuzz_dir, ["train", "--data", "rows.csv", "--epochs", 2, "--out", "m.json"])


@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_model_is_never_a_crash(fuzz_dir, data):
    doc = json.loads(example_model_path().read_text())
    # the document, one neuron or one synapse, equally often
    levels = [[doc], doc["neurons"], [s for n in doc["neurons"] for s in n["synapses"]]]
    fields = st.sampled_from(levels).flatmap(
        lambda level: st.sampled_from([(c, key) for c in level for key in c])
    )
    for container, key in data.draw(st.lists(fields, min_size=1, max_size=3)):
        if data.draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = data.draw(_JSON_VALUES)
    (fuzz_dir / "model.json").write_text(json.dumps(doc))
    for command, *rest in _MODEL_COMMANDS:
        _assert_clean_exit(fuzz_dir, [command, "--model", "model.json", *rest])


@pytest.mark.parametrize("argv", _MODEL_COMMANDS, ids=[argv[0] for argv in _MODEL_COMMANDS])
def test_model_commands_refuse_inputs_no_array_holds(tmp_path, argv):
    # the wiring table of 10**15 inputs needs 48 PB, and a network builds it when it loads, before
    # any other input is read (prune and quantize used to print counts and exit 0)
    (tmp_path / "model.json").write_text(_model(lambda doc: {**doc, "n_inputs": 10**15}))
    assert _run_in(tmp_path, ["gen-data", "--n", 3, "--out", "tiny.csv"])[0] == 0
    code, out, err = _run_in(tmp_path, [argv[0], "--model", "model.json", *argv[1:]])
    assert code == 1
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert "Traceback" not in err and out.startswith("config ") and out.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["model.json", "tiny.csv"]


@pytest.mark.parametrize("option, opening", [("--model", "["), ("--config", '{"a":')],
                         ids=["model", "config"])
def test_deeply_nested_json_is_one_error_line(fuzz_dir, option, opening):
    """A model or config file nested past the decoder's recursion limit is refused."""
    (fuzz_dir / "deep.json").write_text(opening * 100_000)
    argv = ["infer", "--pitch", 0.3, "--roll", 0.1, option, "deep.json"]
    code, _, err = _run_in(fuzz_dir, argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "deep.json" in err and "recursion" in err
