"""End-to-end command-line behavior, run in-process through main().

Covers the config-merge precedence (defaults < config file < flags), the
exit-code contract (0 ok, 1 user error, 2 validation failure), and byte-level
reproducibility of every artifact a seeded run writes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ifcirc
from ifcirc import TrainConfig, example_model_path, load_network
from ifcirc.cli import main


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


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "train", "--help")[0] == 0


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("ifcirc ")


def test_no_subcommand_is_user_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_user_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_unknown_flag_is_user_error(capsys):
    assert run_cli(capsys, "infer", "--model", "bundled", "--frobnicate", 1)[0] == 1


def test_module_entry_point():
    # the child imports the same ifcirc as this suite, installed or not
    src = str(Path(ifcirc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ifcirc", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ifcirc ")


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


def test_gen_data_holdout_needs_second_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-data", "--n", 5, "--holdout", 0.2, "--out", tmp_path / "d.csv"
    )
    assert code == 1
    assert "holdout-out" in err


def test_gen_data_rejects_bad_holdout_fraction(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen-data", "--n", 5, "--holdout", 1.5,
        "--out", tmp_path / "d.csv", "--holdout-out", tmp_path / "h.csv",
    )
    assert code == 1
    assert "error:" in err


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


def test_unknown_config_key_is_user_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frobnicate": 1}))
    code, _, err = run_cli(capsys, "gen-data", "--config", cfg_path)
    assert code == 1
    assert "unknown config keys: frobnicate" in err


def test_non_object_config_is_user_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert run_cli(capsys, "gen-data", "--config", cfg_path)[0] == 1


def test_malformed_config_is_user_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(capsys, "gen-data", "--config", cfg_path)
    assert code == 1
    assert "cfg.json" in err


def test_missing_config_file_is_user_error(tmp_path, capsys):
    assert run_cli(capsys, "gen-data", "--config", tmp_path / "absent.json")[0] == 1


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


def test_infer_requires_coordinates(capsys):
    code, _, err = run_cli(capsys, "infer", "--model", "bundled", "--pitch", 0)
    assert code == 1
    assert "--roll" in err


def test_infer_missing_model_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "infer", "--model", tmp_path / "no.json", "--pitch", 0, "--roll", 0
    )
    assert code == 1
    assert "error:" in err


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
    fields = ("learning_rate", "seed", "r_min", "r_max", "t_max", "capacitance", "supply_voltage")
    assert set(cfg) == {"data", "out", "loss_out", "epochs", *fields}
    assert all(cfg[key] == getattr(TrainConfig(), key) for key in fields)


def test_train_has_no_rescale_flag(tmp_path, tiny_csv, capsys):
    argv = ("train", "--data", tiny_csv, "--out", tmp_path / "m.json", "--epochs", 1)
    assert run_cli(capsys, *argv, "--scale-factor", "1e-6")[0] == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scale_factor": 1e-6}))
    code, _, err = run_cli(capsys, *argv, "--config", cfg_path)
    assert code == 1
    assert "unknown config keys: scale_factor" in err


def test_train_requires_data(capsys):
    code, _, err = run_cli(capsys, "train")
    assert code == 1
    assert "--data" in err


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


def _csv_with(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"pitch,roll,label\n0.1,0.2,stand\n{row}\n0.0,0.25,sit\n")
    return path


def test_eval_rejects_infinite_csv_field(tmp_path, capsys):
    data = _csv_with(tmp_path, "inf,0.0,lie")
    code, out, err = run_cli(capsys, "eval", "--model", "bundled", "--data", data)
    assert code == 1
    assert err.startswith(f"error: {data}: line 3: non-finite") and "Traceback" not in err
    assert "accuracy" not in out


def test_train_rejects_infinite_csv_field(tmp_path, capsys):
    data = _csv_with(tmp_path, "0.5,-inf,lie")
    model = tmp_path / "model.json"
    code, _, err = run_cli(capsys, "train", "--data", data, "--epochs", 5, "--out", model)
    assert code == 1
    assert err.startswith(f"error: {data}: line 3: non-finite")
    assert not model.exists()


def test_nan_csv_field_reports_its_line(tmp_path, capsys):
    data = _csv_with(tmp_path, "nan,0.0,lie")
    code, _, err = run_cli(capsys, "eval", "--model", "bundled", "--data", data)
    assert code == 1
    assert err.startswith(f"error: {data}: line 3: non-finite")


# --------------------------- prune / quantize --------------------------------


def test_prune_bundled(tmp_path, capsys):
    out = tmp_path / "pruned.json"
    code, stdout, _ = run_cli(capsys, "prune", "--model", "bundled", "--out", out)
    assert code == 0
    assert "synapses_before 18" in stdout
    assert "synapses_after 9" in stdout
    assert "max_inference_time_s 0.25" in stdout
    assert sum(len(n.synapses) for n in load_network(out).neurons) == 9


def test_quantize_bundled(tmp_path, capsys):
    out = tmp_path / "quantized.json"
    code, stdout, _ = run_cli(capsys, "quantize", "--model", "bundled", "--out", out)
    assert code == 0
    assert "synapses_changed" in stdout
    net = load_network(out)
    mantissas = {
        float(f"{s.resistance:e}".split("e")[0])
        for n in net.neurons for s in n.synapses
    }
    assert mantissas <= {float(d) for d in range(1, 10)}


def test_quantize_custom_catalog(tmp_path, capsys):
    out = tmp_path / "q.json"
    code, _, _ = run_cli(
        capsys, "quantize", "--model", "bundled", "--out", out,
        "--catalog", "custom", "--catalog-values", "1000,100000",
    )
    assert code == 0
    values = {s.resistance for n in load_network(out).neurons for s in n.synapses}
    assert values <= {1000.0, 100000.0}


def test_quantize_custom_needs_values(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "quantize", "--model", "bundled", "--out", tmp_path / "q.json",
        "--catalog", "custom",
    )
    assert code == 1
    assert "catalog-values" in err


def _model_with(tmp_path, edit):
    doc = json.loads(example_model_path().read_text())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(doc)))
    return path


def _null_field(key, doc):
    doc["neurons"][0]["synapses"][2][key] = None
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [doc], "model field root must be a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "threshold"},
         "model field threshold is missing"),
        (lambda doc: {**doc, "threshold": None}, "model field threshold must be a finite number, got null"),
        (lambda doc: _null_field("resistance_ohms", doc),
         "model field neurons[0].synapses[2].resistance_ohms must be a finite number, got null"),
    ],
    ids=["list-root", "missing-threshold", "null-threshold", "null-resistance"],
)
def test_malformed_model_is_user_error(tmp_path, capsys, edit, message):
    model = _model_with(tmp_path, edit)
    code, out, err = run_cli(capsys, "infer", "--model", model, "--pitch", 0, "--roll", 0)
    assert code == 1
    assert err == f"error: {model}: {message}\n"
    assert "potential" not in out


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


def test_response_map_refuses_oversized_grid(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code, _, err = run_cli(
        capsys, "response-map", "--model", "bundled", "--step", "1e-6", "--out", out
    )
    assert code == 1
    assert err.startswith("error: ") and "capped at" in err
    assert "Traceback" not in err
    assert not out.exists()


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
