"""Smoke runs of the experiment scripts, as subprocesses on small inputs.

The scripts import ``ifcirc``'s public names; a rename or a deletion
there shows up here as a failed run rather than only in the next manual
experiment.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

from ifcirc import load_network
from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, argv)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
          "margin_p1", "margin_p50", "bayes_gap"]


def test_sweep_seeds_reports_every_seed():
    lines = run_script("sweep_seeds.py", "--seeds", 2, "--epochs", 50)
    assert lines[0].split() == HEADER
    assert [line.split()[:2] for line in lines[1:3]] == [["0", "50"], ["1", "50"]]
    for line in lines[1:3]:  # on the default seed-42 split the true class means score 1.0
        row = dict(zip(HEADER[:3] + HEADER[4:], line.split()))
        assert abs(float(row["bayes_gap"]) - (float(row["accuracy"]) - 1.0)) < 1e-9
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
