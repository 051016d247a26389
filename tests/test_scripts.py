"""Smoke runs of the experiment scripts, as subprocesses on small inputs.

The scripts import ``ifcirc``'s public names and read their flags through
``ifcirc.cli.read_flags``; a rename or a deletion there shows up here as a
failed run rather than only in the next manual experiment.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ifcirc import load_network
from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def start_script(name, *argv, cwd=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, argv)],
        capture_output=True, text=True, env=child_env(), timeout=120, cwd=cwd,
    )


def run_script(name, *argv):
    proc = start_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# each script's flags and their defaults, as they were read before the scripts shared the
# command line's reader; None: no default shown
FLAGS = {
    "run_experiment.py": {
        "--out-dir": "runs/experiment", "--n": 300, "--sigma": 0.04, "--data-seed": 42,
        "--train-seed": 0, "--epochs": 5000, "--holdout": 0.2, "--grid-step": 0.01,
        "--catalog": "one_significant_digit",
    },
    "sweep_seeds.py": {
        "--seeds": 12, "--epochs": 5000, "--energy-weight": 0.1, "--target-high": None,
        "--n": 300, "--sigma": 0.04, "--data-seed": 42, "--target": 0.95,
    },
}


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_help_lists_every_flag_with_its_default(name):
    proc = start_script(name, "-h")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"usage: {name} [--flag value ...]\n")
    lines = proc.stdout.split("\noptions:\n", 1)[1].splitlines()
    assert lines[0].split() == ["-h,", "--help", "show", "this", "help", "message", "and", "exit"]
    entries = {line.split()[0]: line for line in lines[1:]}
    assert list(entries) == list(FLAGS[name])  # in the order the flags are checked
    for flag, default in FLAGS[name].items():
        if default is None:
            assert "(default" not in entries[flag]
        else:
            assert entries[flag].endswith(f" (default {default})")


_UNRECOGNIZED = "error: unrecognized arguments: "


REFUSALS = [  # (script, flags, its one stderr line)
    ("run_experiment.py", ("--frobnicate", 1), _UNRECOGNIZED + "--frobnicate 1"),
    ("sweep_seeds.py", ("--frobnicate", 1), _UNRECOGNIZED + "--frobnicate 1"),
    ("run_experiment.py", ("--se", 1), _UNRECOGNIZED + "--se 1"),
    ("sweep_seeds.py", ("--se", 1), _UNRECOGNIZED + "--se 1"),  # argparse took it for --seeds
    ("run_experiment.py", ("--epochs", 1, "--n"), "error: argument --n: expected one argument"),
    ("sweep_seeds.py", ("--epochs", 1, "--n"), "error: argument --n: expected one argument"),
    ("run_experiment.py", ("--seeds", "x"), _UNRECOGNIZED + "--seeds x"),
    ("sweep_seeds.py", ("--seeds", "x"), 'error: --seeds must be an integer, got "x"'),
    ("run_experiment.py", ("--n", 0), "error: n_per_class must be >= 1, got 0"),
    ("sweep_seeds.py", ("--n", 0), "error: n_per_class must be >= 1, got 0"),
    ("sweep_seeds.py", ("--n", 2, "--n=3"), "error: argument --n: given more than once"),
    ("run_experiment.py", ("--catalog", "e13"), "error: --catalog e13: unknown catalog mode "
     "'e13' (one of: one_significant_digit, e12, e24, custom)"),
    ("sweep_seeds.py", ("--catalog", "e13"), _UNRECOGNIZED + "--catalog e13"),
    # these three trained and wrote, or were refused by the wrong name, or exited 0
    ("run_experiment.py", ("--holdout", 1.5), "error: --holdout must be in (0, 1), got 1.5"),
    ("run_experiment.py", ("--holdout", 0), "error: --holdout must be in (0, 1), got 0.0"),
    ("sweep_seeds.py", ("--seeds", -1), "error: --seeds must be >= 1, got -1"),
    ("run_experiment.py", ("--epochs", 0), "error: epochs must be >= 1, got 0"),
    # these trained and wrote every file but the response map, or wrote an empty test.csv, first
    ("run_experiment.py", ("--grid-step", 0),
     "error: --grid-step 0.0: grid_step must be a finite number > 0, got 0.0"),
    ("run_experiment.py", ("--grid-step", 1.5),
     "error: --grid-step 1.5: grid_step must be in (0, 1], got 1.5"),
    ("run_experiment.py", ("--grid-step", 0.0001), "error: --grid-step 0.0001: grid_step 0.0001 "
     "is too fine: response maps are capped at 1050625 points"),
    ("run_experiment.py", ("--n", 1), "error: class 'stand' has 1 sample: "
     "a train_fraction of 0.8 leaves its held-out side empty"),
    ("run_experiment.py", ("--holdout", 0.9, "--n", 2), "error: class 'stand' has 2 samples: "
     "a train_fraction of 0.1 leaves its training side empty"),
    ("sweep_seeds.py", ("--n", 2), "error: class 'stand' has 2 samples: "
     "a train_fraction of 0.8 leaves its held-out side empty"),
]


@pytest.mark.parametrize("name, argv, error", REFUSALS,
                         ids=[f"{name[:-3]}:{'_'.join(map(str, argv))}" for name, argv, _ in REFUSALS])
def test_a_bad_command_line_is_one_error_line_before_any_work(tmp_path, name, argv, error):
    # run_experiment.py writes to its default --out-dir, runs/experiment, under the working
    # directory: a refusal leaves that directory empty
    proc = start_script(name, *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error + "\n")
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_writes_every_artifact(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ("--n", 30, "--epochs", 50, "--grid-step", 0.25, "--out-dir")
    lines = run_script("run_experiment.py", *argv, first)
    assert lines[0] == "dataset: 72 train / 18 test, sigma=0.04"
    assert lines[1].startswith("trained: 50 epochs in ")
    baseline = re.fullmatch(r"nearest-centroid baseline: held-out accuracy (\d\.\d{4})", lines[2])
    assert baseline and 0 <= float(baseline[1]) <= 1
    assert "response map: 25 grid points at step 0.25" in lines
    assert lines[-1] == f"artifacts in {first}/"
    for name in ("model.json", "pruned.json", "quantized.json"):
        assert load_network(first / name).labels == ("stand", "sit", "lie")
    assert (first / "loss.csv").read_text().count("\n") == 1 + 51  # header, 50 epochs + final
    assert (first / "response_map.csv").read_text().count("\n") == 1 + 25
    assert len((first / "train.csv").read_text().splitlines()) == 1 + 72
    assert set(json.loads((first / "energy.json").read_text())) == {"stand", "sit", "lie"}
    # the same seeds reproduce every file byte for byte
    run_script("run_experiment.py", *argv, second)
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


HEADER = ["seed", "epochs", "final", "loss", "accuracy", "quantized", "noisy", "kept", "nJ",
          "margin_p1", "margin_p50", "bayes_gap", "prune_shift", "pruned_train"]


def test_sweep_seeds_reports_every_seed():
    lines = run_script("sweep_seeds.py", "--seeds", 2, "--epochs", 50)
    assert lines[0].split() == HEADER
    assert [line.split()[:2] for line in lines[1:3]] == [["0", "50"], ["1", "50"]]
    for line in lines[1:3]:  # on the default seed-42 split the true class means score 1.0
        row = dict(zip(HEADER[:3] + HEADER[4:], line.split()))
        assert abs(float(row["bayes_gap"]) - (float(row["accuracy"]) - 1.0)) < 1e-9
        # prune drops the two synapses train returns at r_max: each moves a potential a little
        assert 0 < float(row["prune_shift"]) < 0.2 and 0.9 <= float(row["pruned_train"]) <= 1
    assert re.fullmatch(r"[0-2]/2 seeds reach 0\.95 within 50 epochs: \[[0-9, ]*\]", lines[-1])
    assert len(lines) == 4


def test_sweep_seeds_prices_the_energy_weight():
    """A larger energy weight, same everything else: less supply energy per inference."""
    energy = {}
    for weight in (0, 0.3):
        lines = run_script(
            "sweep_seeds.py", "--seeds", 1, "--epochs", 200, "--n", 30,
            "--energy-weight", weight, "--target-high", 1.0,
        )
        assert lines[0].split() == HEADER
        row = dict(zip(HEADER[:3] + HEADER[4:], lines[1].split()))  # 'final loss' is one column
        assert row["seed"] == "0" and int(row["epochs"]) <= 200
        assert 0 <= float(row["margin_p1"]) <= float(row["margin_p50"]) <= 1.0
        energy[weight] = float(row["nJ"])
    assert 0 < energy[0.3] < energy[0]
