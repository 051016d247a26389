"""Gradient-descent training of resistance values.

The loss is the MSE between membrane potentials and per-class target
potentials (supply voltage for the true class, 0 for the rest).  Each
epoch runs the closed-form kernel (:mod:`ifcirc.kernel`) forward over the
whole training set and takes its analytic gradient with respect to the
conductances G = 1/(R C).

Descent runs on the log-resistances u = ln R.  Since G = e^(-u)/C, the
chain rule gives dL/du = -G * dL/dG, and the box [r_min, r_max] becomes
the box [ln r_min, ln r_max].  A step in u is a relative change of R, so
one learning rate suits resistances from 1e3 to 1e6 ohms in any units,
and a synapse the loss wants gone walks to the ceiling, where
:func:`prune` removes it.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import PostureSample
from .kernel import duration_matrix, forward, gradient
from .neuron import IFNeuron, Network, Polarity, Synapse, infer_batch

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "mse_loss",
    "rescale_network",
    "clamp_resistances",
    "prune",
    "train",
    "LogisticBaseline",
    "train_logistic_baseline",
    "evaluate_accuracy",
    "write_loss_csv",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5.0  # step size on u = ln R
    epochs: int = 5000
    seed: int = 0
    r_min: float = 1e3  # ohms
    r_max: float = 1e6
    target_high: float | None = None  # defaults to supply_voltage
    target_low: float = 0.0
    # electrical configuration of the trained network
    capacitance: float = 1e-6
    t_max: float = 0.05
    supply_voltage: float = 1.0
    # log-uniform initialization range, hardware ohms
    init_r_min: float = 1e4
    init_r_max: float = 1e6
    # stop early once loss improves by less than this over the window
    early_stop_window: int = 100
    early_stop_delta: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive real, got {self.learning_rate}")
        if self.epochs <= 0:
            raise ValueError("epochs must be > 0")
        if not 0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if not self.r_min <= self.init_r_min <= self.init_r_max <= self.r_max:
            raise ValueError("initialization range must lie within [r_min, r_max]")

    @property
    def effective_target_high(self) -> float:
        return self.supply_voltage if self.target_high is None else self.target_high


@dataclass(frozen=True)
class TrainResult:
    network: Network
    loss_history: list[float]  # loss before each update, plus the final loss
    epochs_run: int


def mse_loss(potentials: Sequence[float], targets: Sequence[float]) -> float:
    """Mean squared difference between potentials and target potentials."""
    if len(potentials) != len(targets):
        raise ValueError(f"length mismatch: {len(potentials)} potentials vs {len(targets)} targets")
    if len(potentials) == 0:
        raise ValueError("cannot compute loss of empty vectors")
    return sum((p - t) ** 2 for p, t in zip(potentials, targets)) / len(potentials)


def rescale_network(net: Network, k: float) -> Network:
    """Multiply every resistance by k and divide every capacitance by k.

    Time constants are invariant, so every potential is too.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"scale factor must be > 0, got {k}")
    neurons = tuple(
        replace(
            neuron,
            capacitance=neuron.capacitance / k,
            synapses=tuple(replace(s, resistance=s.resistance * k) for s in neuron.synapses),
        )
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


def clamp_resistances(net: Network, r_min: float, r_max: float) -> Network:
    """Project every resistance into [r_min, r_max]."""
    if not r_min < r_max:
        raise ValueError(f"need r_min < r_max, got {r_min}, {r_max}")
    neurons = tuple(
        replace(
            neuron,
            synapses=tuple(
                replace(s, resistance=min(max(s.resistance, r_min), r_max))
                for s in neuron.synapses
            ),
        )
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


def prune(net: Network, *, r_max: float = 1e6, threshold_fraction: float = 0.999) -> Network:
    """Drop synapses whose resistance reached the training ceiling.

    A resistance at the upper bound lets almost no current through, so the
    synapse contributes nothing and can be left out of the hardware.  The
    threshold is a fraction of r_max rather than exact equality because
    clamped float updates may sit infinitesimally below the bound.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be a finite resistance > 0, got {r_max}")
    if not math.isfinite(threshold_fraction):
        raise ValueError(f"threshold_fraction must be finite, got {threshold_fraction}")
    cutoff = threshold_fraction * r_max
    neurons = tuple(
        replace(neuron, synapses=tuple(s for s in neuron.synapses if s.resistance < cutoff))
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


def _features(samples: Sequence[PostureSample]) -> np.ndarray:
    # one list per column converts several times faster than one per row
    return np.array([[s.pitch for s in samples], [s.roll for s in samples]], dtype=np.float64).T


def _loss_and_gradient(
    log_r: np.ndarray, durations: np.ndarray, targets: np.ndarray, cfg: TrainConfig
) -> tuple[float, np.ndarray]:
    """MSE loss and dL/du at log-resistances u, (2, classes, lines), over the batch."""
    g = 1.0 / (np.exp(log_r) * cfg.capacitance)
    fwd = forward(durations, g, cfg.supply_voltage)
    residual = fwd.v - targets
    loss = float(np.vdot(residual, residual)) / residual.size
    dl_dg = gradient(durations, cfg.supply_voltage, fwd, residual) * (2.0 / residual.size)
    return loss, -g * dl_dg  # dG/du = -G


def train(samples: Sequence[PostureSample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Full-batch gradient descent on all log-resistances.

    Every class gets one neuron wired to every input (bias included) with
    both polarities; dead synapses are removed later by :func:`prune`.
    Deterministic for a given config.
    """
    if len(samples) == 0:
        raise ValueError("cannot train on an empty dataset")
    classes = list(dict.fromkeys(s.label for s in samples))
    features = _features(samples)
    n_inputs = features.shape[1]
    n_classes = len(classes)

    durations = duration_matrix(features, cfg.t_max)  # (n, lines)
    class_index = {label: i for i, label in enumerate(classes)}
    targets = np.full((n_classes, len(samples)), cfg.target_low, dtype=np.float64)
    for col, s in enumerate(samples):
        targets[class_index[s.label], col] = cfg.effective_target_high

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log_lo, log_hi = math.log(cfg.r_min), math.log(cfg.r_max)
    # (polarity, class, line): excitatory in [0], inhibitory in [1]; log-uniform init
    u = rng.uniform(math.log(cfg.init_r_min), math.log(cfg.init_r_max),
                    size=(2, n_classes, n_inputs + 1))

    history: list[float] = []
    epochs_run = 0
    while True:
        loss, dl_du = _loss_and_gradient(u, durations, targets, cfg)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epochs_run)
        history.append(loss)
        window = cfg.early_stop_window
        if epochs_run == cfg.epochs or (
            len(history) > window and history[-window - 1] - history[-1] < cfg.early_stop_delta
        ):
            break
        u = np.clip(u - cfg.learning_rate * dl_du, log_lo, log_hi)
        epochs_run += 1

    # a pinned synapse gets its bound exactly: exp(ln r_max) may be an ulp off r_max
    r = np.select([u <= log_lo, u >= log_hi], [cfg.r_min, cfg.r_max], np.exp(u))
    neurons = []
    for ci, label in enumerate(classes):
        synapses = [
            Synapse(j, polarity, float(r[phase, ci, j]))
            for phase, polarity in enumerate(Polarity)
            for j in range(n_inputs + 1)
        ]
        neurons.append(IFNeuron(label=label, capacitance=cfg.capacitance, synapses=tuple(synapses)))
    network = Network(
        neurons=tuple(neurons),
        n_inputs=n_inputs,
        supply_voltage=cfg.supply_voltage,
        t_max=cfg.t_max,
    )
    return TrainResult(network=network, loss_history=history, epochs_run=epochs_run)


def evaluate_accuracy(net: Network, samples: Sequence[PostureSample]) -> float:
    """Fraction of samples whose argmax class matches the label.

    Ties go to the lowest neuron index, as in :func:`ifcirc.classify`.
    """
    if len(samples) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = net.labels
    index: dict[str, int] = {}
    for i, label in enumerate(labels):
        index.setdefault(label, i)
    try:
        truth = np.array([index[s.label] for s in samples])
    except KeyError as exc:
        label = exc.args[0]
        raise ValueError(f"sample label {label!r} not among network classes {labels}") from None
    potentials = infer_batch(net, _features(samples))
    if not np.isfinite(potentials).all():
        raise ValueError("potentials must be finite")
    predicted = np.array([index[label] for label in labels])[potentials.argmax(axis=1)]
    return int(np.count_nonzero(predicted == truth)) / len(samples)


def write_loss_csv(history: Sequence[float], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(history):
            writer.writerow([epoch, repr(loss)])


# --------------------------- logistic baseline -----------------------------


@dataclass(frozen=True)
class LogisticBaseline:
    classes: tuple[str, ...]
    weights: np.ndarray  # (2, n_classes)
    bias: np.ndarray  # (n_classes,)
    accuracy: float  # on the held-out set

    def predict(self, features: Sequence[float]) -> str:
        logits = np.asarray(features, dtype=np.float64) @ self.weights + self.bias
        return self.classes[int(np.argmax(logits))]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def train_logistic_baseline(
    train_samples: Sequence[PostureSample],
    test_samples: Sequence[PostureSample] | None = None,
    *,
    learning_rate: float = 0.5,
    epochs: int = 2000,
    seed: int = 0,
) -> LogisticBaseline:
    """Multinomial logistic regression by full-batch gradient descent.

    Accuracy is measured on ``test_samples`` (falling back to the training
    set when no held-out set is given, e.g. for smoke checks).
    """
    if len(train_samples) == 0:
        raise ValueError("cannot train on an empty dataset")
    classes = tuple(dict.fromkeys(s.label for s in train_samples))
    x = _features(train_samples)
    y = np.zeros((len(train_samples), len(classes)))
    index = {label: i for i, label in enumerate(classes)}
    for row, s in enumerate(train_samples):
        y[row, index[s.label]] = 1.0

    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.normal(0.0, 0.01, size=(x.shape[1], len(classes)))
    bias = np.zeros(len(classes))
    n = len(train_samples)
    for epoch in range(epochs):
        probs = _softmax(x @ weights + bias)
        if not np.all(np.isfinite(probs)):
            raise TrainingDivergedError(epoch)
        grad = probs - y
        weights -= learning_rate * (x.T @ grad) / n
        bias -= learning_rate * grad.sum(axis=0) / n

    held_out = test_samples if test_samples is not None else train_samples
    model = LogisticBaseline(classes=classes, weights=weights, bias=bias, accuracy=0.0)
    hits = sum(1 for s in held_out if model.predict((s.pitch, s.roll)) == s.label)
    return replace(model, accuracy=hits / len(held_out))
