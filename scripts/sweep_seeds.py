#!/usr/bin/env python3
"""How sensitive is training to the resistance initialization, and what does the circuit cost?

This sweep trains one model per init seed on the same dataset and reports
epochs run, final loss, held-out accuracy, and for the pruned and
quantized circuit: held-out accuracy clean and under readout noise of
0.05 V (what ``ifcirc eval --noise-sigma 0.05`` reports), the synapses
:func:`prune` keeps, the mean supply energy per inference at the class
means in nJ, and the 1st and 50th percentiles of the held-out top-1 −
top-2 margin in volts.  ``--energy-weight`` and ``--target-high`` set the
training objective, so runs over a few values trace the energy/accuracy
frontier.  Projected Levenberg–Marquardt on the log-resistances makes the
outcome independent of where the log-uniform initialization lands: on the
default seed-42 split every one of init seeds 0-11 ends at the same loss,
reaches 1.0 held-out accuracy and prunes to 7 of 18 synapses.

    python3 scripts/sweep_seeds.py --seeds 12
    python3 scripts/sweep_seeds.py --seeds 1 --energy-weight 0 --target-high 1.0
"""
import argparse
import statistics

import numpy as np

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    TrainConfig,
    energy_per_inference,
    evaluate_accuracy,
    generate,
    infer_batch,
    prune,
    quantize_network,
    split,
    train,
)

NOISE_SIGMA = 0.05  # readout noise, volts; drawn from seed 0 as ifcirc eval does


def parse_args():
    defaults = TrainConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12, help="init seeds 0..N-1")
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--energy-weight", type=float, default=defaults.energy_weight)
    parser.add_argument("--target-high", type=float, default=defaults.target_high,
                        help="true-class target, volts (default 0.6 x supply voltage)")
    parser.add_argument("--n", type=int, default=300, help="samples per class")
    parser.add_argument("--sigma", type=float, default=0.04)
    parser.add_argument("--data-seed", type=int, default=42)
    parser.add_argument("--target", type=float, default=0.95)
    return parser.parse_args()


def margins(net, samples):
    """Top-1 minus top-2 potential of every sample, volts."""
    potentials = np.sort(infer_batch(net, [(s.pitch, s.roll) for s in samples]), axis=1)
    return potentials[:, -1] - potentials[:, -2]


def main():
    args = parse_args()
    samples = generate(DatasetConfig(args.n, args.sigma, args.data_seed))
    train_set, test_set = split(samples, 0.8, seed=args.data_seed)

    print(
        f"{'seed':>4}  {'epochs':>6}  {'final loss':>10}  {'accuracy':>8}  {'quantized':>9}  "
        f"{'noisy':>6}  {'kept':>4}  {'nJ':>7}  {'margin_p1':>9}  {'margin_p50':>10}"
    )
    reached = []
    for seed in range(args.seeds):
        cfg = TrainConfig(
            epochs=args.epochs, seed=seed,
            energy_weight=args.energy_weight, target_high=args.target_high,
        )
        result = train(train_set, cfg)
        accuracy = evaluate_accuracy(result.network, test_set)
        pruned = prune(result.network)
        quantized = quantize_network(pruned)
        q_accuracy = evaluate_accuracy(quantized, test_set)
        rng = np.random.Generator(np.random.PCG64(0))
        noisy = evaluate_accuracy(quantized, test_set, noise_sigma=NOISE_SIGMA, rng=rng)
        kept = sum(len(n.synapses) for n in pruned.neurons)
        supply = statistics.fmean(
            energy_per_inference(quantized, mean).supply_energy for mean in CLASS_MEANS.values()
        )
        p1, p50 = np.percentile(margins(quantized, test_set), [1, 50])
        marker = " <- reaches target" if accuracy >= args.target else ""
        if accuracy >= args.target:
            reached.append(seed)
        print(
            f"{seed:>4}  {result.epochs_run:>6}  {result.loss_history[-1]:>10.6f}  "
            f"{accuracy:>8.4f}  {q_accuracy:>9.4f}  {noisy:>6.4f}  {kept:>4}  "
            f"{supply * 1e9:>7.1f}  {p1:>9.3f}  {p50:>10.3f}{marker}"
        )
    print(
        f"{len(reached)}/{args.seeds} seeds reach {args.target} "
        f"within {args.epochs} epochs: {reached}"
    )


if __name__ == "__main__":
    main()
