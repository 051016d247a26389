#!/usr/bin/env python3
"""How sensitive is training to the resistance initialization, and what does the circuit cost?

This sweep trains one model per init seed on the same dataset and reports
epochs run, final loss, held-out accuracy, and for the pruned and quantized
circuit: held-out accuracy clean and under readout noise of 0.05 V (what
``ifcirc eval --noise-sigma 0.05`` reports), the synapses :func:`prune` keeps,
the mean supply energy per inference at the class means in nJ, and the 1st and
50th percentiles of the held-out top-1 − top-2 margin in volts.  ``bayes_gap``
is the trained model's held-out accuracy minus that of the nearest true class
mean on the same held-out set: :func:`nearest_centroid_accuracy` trained on one
sample per class, placed at its ``CLASS_MEANS`` entry.  For the generator's
equal-size, one-sigma isotropic classes that rule is the Bayes classifier.
``prune_shift`` is the largest move of a held-out potential that :func:`prune`
makes, in units of the supply voltage v_in, and ``pruned_train`` the pruned
circuit's training accuracy: the circuit that is built.  ``--energy-weight``
and ``--target-high`` set the training objective, so runs over a few values
trace the energy/accuracy frontier.  Projected Levenberg–Marquardt on the
log-resistances makes the outcome independent of where the log-uniform
initialization lands: on the default seed-42 split every one of init seeds 0-11
ends at the same loss, reaches 1.0 held-out accuracy, clean, quantized and
noisy, and prunes to 5 of 18 synapses, as backward elimination drops two of the
7 that the first fit keeps.  ``epochs`` counts the iterations of every fit.

    python3 scripts/sweep_seeds.py --seeds 12
    python3 scripts/sweep_seeds.py --seeds 1 --energy-weight 0 --target-high 1.0
"""
import statistics
import sys
from dataclasses import replace

import numpy as np

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    PostureSample,
    TrainConfig,
    energy_per_inference,
    evaluate_accuracy,
    generate,
    infer_batch,
    nearest_centroid_accuracy,
    prune,
    quantize_network,
    split,
    train,
)
from ifcirc.cli import _COMMANDS, read_flags

NOISE_SIGMA = 0.05  # readout noise, volts; drawn from seed 0 as ifcirc eval does
SHARED = {row[0]: row for command in ("gen-data", "train") for row in _COMMANDS[command][2]}
SETTINGS = (  # (key, type, default, help), each read as --key-with-dashes
    ("seeds", int, 12, "init seeds 0..N-1"),
    *(SHARED[key] for key in ("epochs", "energy_weight", "target_high", "n", "sigma")),
    ("data_seed", int, 42, "dataset and split seed"),
    ("target", float, 0.95, "held-out accuracy a seed is counted at"),
)


def main(args):
    if args["seeds"] < 1:
        raise ValueError(f"--seeds must be >= 1, got {args['seeds']}")
    base = TrainConfig(**{key: args[key] for key in ("epochs", "energy_weight", "target_high")})
    samples = generate(DatasetConfig(args["n"], args["sigma"], args["data_seed"]))
    train_set, test_set = split(samples, 0.8, seed=args["data_seed"])
    if not test_set:  # as gen-data refuses its split; 0.8 of n >= 1 keeps a training sample
        raise ValueError(f"--n {args['n']} per class leaves the held-out set empty")
    points = [(s.pitch, s.roll) for s in test_set]
    # the nearest true class mean: each class's one training sample is its mean
    means = [PostureSample(*mean, label) for label, mean in CLASS_MEANS.items()]
    bayes = nearest_centroid_accuracy(means, test_set)

    print(
        f"{'seed':>4}  {'epochs':>6}  {'final loss':>10}  {'accuracy':>8}  {'quantized':>9}  "
        f"{'noisy':>6}  {'kept':>4}  {'nJ':>7}  {'margin_p1':>9}  {'margin_p50':>10}  "
        f"{'bayes_gap':>9}  {'prune_shift':>11}  {'pruned_train':>12}"
    )
    reached = []
    for seed in range(args["seeds"]):
        result = train(train_set, replace(base, seed=seed))
        accuracy = evaluate_accuracy(result.network, test_set)
        pruned = prune(result.network)
        moved = np.abs(infer_batch(pruned, points) - infer_batch(result.network, points))
        quantized = quantize_network(pruned)
        q_accuracy = evaluate_accuracy(quantized, test_set)
        rng = np.random.Generator(np.random.PCG64(0))
        noisy = evaluate_accuracy(quantized, test_set, noise_sigma=NOISE_SIGMA, rng=rng)
        kept = np.count_nonzero(np.isfinite(pruned.resistances))
        supply = statistics.fmean(
            energy_per_inference(quantized, mean).supply_energy for mean in CLASS_MEANS.values()
        )
        top = np.sort(infer_batch(quantized, points), axis=1)  # the margin: top-1 minus top-2
        p1, p50 = np.percentile(top[:, -1] - top[:, -2], [1, 50])
        marker = " <- reaches target" if accuracy >= args["target"] else ""
        if accuracy >= args["target"]:
            reached.append(seed)
        print(
            f"{seed:>4}  {result.epochs_run:>6}  {result.loss_history[-1]:>10.6f}  "
            f"{accuracy:>8.4f}  {q_accuracy:>9.4f}  {noisy:>6.4f}  {kept:>4}  "
            f"{supply * 1e9:>7.1f}  {p1:>9.3f}  {p50:>10.3f}  {accuracy - bayes:>+9.4f}  "
            f"{moved.max() / pruned.supply_voltage:>11.4f}  "
            f"{evaluate_accuracy(pruned, train_set):>12.4f}{marker}"
        )
    print(
        f"{len(reached)}/{args['seeds']} seeds reach {args['target']} "
        f"within {args['epochs']} epochs: {reached}"
    )


if __name__ == "__main__":
    if read_flags(sys.argv[1:], "sweep_seeds.py", __doc__.splitlines()[0], SETTINGS, main):
        raise SystemExit(1)  # a refusal; a run that ends returns None
