#!/usr/bin/env python3
"""Full pipeline on the synthetic posture task, end to end.

Generates a seeded dataset, trains the resistances, compares against the
nearest-centroid rule (the plug-in Bayes rule for this generator's equal,
isotropic classes), prunes and quantizes the result, and writes every
artifact (datasets, models, loss curve, response map, energy report) into
one output directory.  Rerunning with the same seeds reproduces every file
byte for byte.

    python3 scripts/run_experiment.py --out-dir runs/demo
"""
import json
import sys
import time
from pathlib import Path

import numpy as np

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    ResistorCatalog,
    TrainConfig,
    energy_per_inference,
    energy_report_to_dict,
    evaluate_accuracy,
    generate,
    max_inference_time,
    nearest_centroid_accuracy,
    prune,
    quantize_network,
    response_map,
    save_network,
    split,
    train,
    write_csv,
    write_loss_csv,
    write_response_map_csv,
)
from ifcirc.cli import _COMMANDS, read_flags
from ifcirc.hardware import _grid_axis

SHARED = {row[0]: row for command in ("gen-data", "train") for row in _COMMANDS[command][2]}
SETTINGS = (  # (key, type, default, help), each read as --key-with-dashes
    ("out_dir", str, "runs/experiment", "directory of every artifact"),
    SHARED["n"], SHARED["sigma"],
    ("data_seed", int, 42, "dataset and split seed"),
    ("train_seed", int, TrainConfig().seed, "initialization seed"),
    SHARED["epochs"],
    ("holdout", float, 0.2, "fraction held out, in (0, 1)"),
    ("grid_step", float, 0.01, "response-map grid step in (0, 1]"),
    ("catalog", str, "one_significant_digit", "catalog mode: one_significant_digit, e12 or e24"),
)


def main(args):
    # every flag is checked before any work: the grid step and the catalog by the rules that
    # response_map and ResistorCatalog apply, and the two configs as they are built
    if not 0.0 < args["holdout"] < 1.0:
        raise ValueError(f"--holdout must be in (0, 1), got {args['holdout']}")
    for key, check in (("grid_step", _grid_axis), ("catalog", ResistorCatalog)):
        try:
            check(args[key])
        except ValueError as exc:
            raise ValueError(f"--{key.replace('_', '-')} {args[key]}: {exc}") from None
    train_config = TrainConfig(epochs=args["epochs"], seed=args["train_seed"])
    samples = generate(DatasetConfig(args["n"], args["sigma"], args["data_seed"]))
    train_set, test_set = split(samples, 1.0 - args["holdout"], seed=args["data_seed"])
    for rows, name in ((train_set, "training"), (test_set, "held-out")):
        if not rows:  # as gen-data refuses its split
            raise ValueError(f"--holdout {args['holdout']!r} with --n {args['n']} per class "
                             f"leaves the {name} set empty")
    out = Path(args["out_dir"])
    out.mkdir(parents=True, exist_ok=True)

    write_csv(train_set, out / "train.csv")
    write_csv(test_set, out / "test.csv")
    print(f"dataset: {len(train_set)} train / {len(test_set)} test, sigma={args['sigma']}")

    started = time.perf_counter()
    result = train(train_set, train_config)
    elapsed = time.perf_counter() - started
    save_network(result.network, out / "model.json")
    write_loss_csv(result.loss_history, out / "loss.csv")
    accuracy = evaluate_accuracy(result.network, test_set)
    print(
        f"trained: {result.epochs_run} epochs in {elapsed:.2f}s, "
        f"final loss {result.loss_history[-1]:.6f}, held-out accuracy {accuracy:.4f}"
    )

    baseline = nearest_centroid_accuracy(train_set, test_set)
    print(f"nearest-centroid baseline: held-out accuracy {baseline:.4f}")

    pruned = prune(result.network)
    save_network(pruned, out / "pruned.json")
    kept, total = (np.count_nonzero(np.isfinite(n.resistances)) for n in (pruned, result.network))
    print(
        f"pruned: {kept}/{total} synapses kept, "
        f"held-out accuracy {evaluate_accuracy(pruned, test_set):.4f}, "
        f"max inference time {max_inference_time(pruned) * 1e3:.0f} ms "
        f"(was {max_inference_time(result.network) * 1e3:.0f} ms)"
    )

    quantized = quantize_network(pruned, ResistorCatalog(args["catalog"]))
    save_network(quantized, out / "quantized.json")
    print(
        f"quantized to {args['catalog']}: "
        f"held-out accuracy {evaluate_accuracy(quantized, test_set):.4f}"
    )

    rows = response_map(quantized, args["grid_step"])
    write_response_map_csv(rows, quantized.labels, out / "response_map.csv")
    print(f"response map: {len(rows)} grid points at step {args['grid_step']}")

    energy = {
        label: energy_report_to_dict(energy_per_inference(quantized, mean))
        for label, mean in CLASS_MEANS.items()
    }
    (out / "energy.json").write_text(json.dumps(energy, indent=2) + "\n")
    for label, report in energy.items():
        print(
            f"energy at {label} mean: {report['supply_energy_joules']:.3e} J supplied, "
            f"{report['dissipated_energy_joules']:.3e} J dissipated"
        )

    print(f"artifacts in {out}/")


if __name__ == "__main__":
    if read_flags(sys.argv[1:], "run_experiment.py", __doc__.splitlines()[0], SETTINGS, main):
        raise SystemExit(1)  # a refusal; a run that ends returns None
