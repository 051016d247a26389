"""Training of resistance values by projected Levenberg–Marquardt.

Training works in the only units the closed form depends on: durations
are fractions of t_max, potentials and targets fractions of v_in, and the
rates t_max / (R·C) = exp(ln t_max − ln C − ln R).  Ohms, farads and volts
return when the :class:`Network` is built, so training is invariant under
v_in (target_high in proportion), (R * k, C / k) and (t_max * k, C * k).
The loss, in units of v_in², is the MSE between potentials and per-class
targets (by default 0.6 for the true class, 0 for the others), plus an
energy term:

    L = MSE(V, targets) + energy_weight * mean(V_e)

Each neuron draws C * v_in * V_e from the supply per inference, V_e being
its potential after the excitatory phase, so the term is the supply
energy per unit C * v_in².  It prices every volt the circuit charges only
to bleed it off again.  On the posture task, with the true-class target
below the supply, the trained circuit draws half the energy of the
MSE-only one at the same held-out accuracy.

Training runs on u = ln R in the box [ln r_min, ln r_max], the parts
available, from u uniform over its top two decades; a synapse the loss
wants gone walks to the ceiling, where :func:`prune` removes it.  Each
step is projected Levenberg–Marquardt on H = (2/size) JᵀJ, the
Gauss–Newton matrix of the MSE, J = dV/du, one small block per neuron.
Synapses on a bound pushed outward stay; the others solve
(H + mu * (diag H + 1e-12)) delta = -dL/du, the energy term entering by
the exact gradient only.  delta is capped at 0.5 in ln R: uncapped steps
can pin synapses at a stationary point of three times the optimal loss.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import PostureSample
from .hardware import perturb_readout
from .kernel import duration_matrix, forward, sensitivities
from .neuron import IFNeuron, Network, Polarity, Synapse, infer_batch

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "prune",
    "train",
    "LogisticBaseline",
    "train_logistic_baseline",
    "evaluate_accuracy",
    "write_loss_csv",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the logistic baseline's loss becomes non-finite."""

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5000  # budget of accepted iterations
    seed: int = 0  # of the init: ln R log-uniform over the box's top two decades
    r_min: float = 1e3  # ohms; [r_min, r_max] is the range of parts available
    r_max: float = 1e6
    target_high: float | None = None  # true-class target, volts, <= supply; None: 0.6 * supply
    # weight of the supply-energy term mean(V_e) / v_in in the loss; 0 trains on the MSE alone
    energy_weight: float = 0.1
    # electrical configuration of the trained network; training sees R*C/t_max only
    capacitance: float = 1e-6
    t_max: float = 0.05
    supply_voltage: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ValueError(f"need 0 < r_min < r_max < inf, got {self.r_min}, {self.r_max}")
        for name in ("capacitance", "t_max", "supply_voltage"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        # the box in units of t_max, and its reciprocal: training forms the rates
        # t_max/(R*C), the trained network the conductances 1/(R*C)
        rc_min = self.r_min * self.capacitance
        rates = (self.t_max / rc_min, 1.0 / rc_min) if rc_min > 0 else (math.inf,)
        if not all(map(math.isfinite, (self.r_max * self.capacitance / self.t_max, *rates))):
            raise ValueError(
                f"r_min {self.r_min}, r_max {self.r_max}, capacitance {self.capacitance} and "
                f"t_max {self.t_max} overflow: r_max*C/t_max, t_max/(r_min*C) and 1/(r_min*C) "
                "must be finite"
            )
        if self.target_high is not None:  # the potential never exceeds the supply
            if not (math.isfinite(self.target_high) and self.target_high <= self.supply_voltage):
                raise ValueError(
                    f"target_high must be finite and at most supply_voltage "
                    f"{self.supply_voltage}, got {self.target_high}"
                )
            if not self.target_high > 0:  # the other classes target 0 V
                raise ValueError(f"target_high must be > 0, got {self.target_high}")
        if not (math.isfinite(self.energy_weight) and self.energy_weight >= 0):
            raise ValueError(
                f"energy_weight must be a finite number >= 0, got {self.energy_weight}"
            )


@dataclass(frozen=True)
class TrainResult:
    network: Network
    loss_history: list[float]  # initial loss, then the loss after each accepted iteration
    epochs_run: int  # accepted iterations


_PRUNE_FRACTION = 0.999


def prune(net: Network, *, r_max: float = TrainConfig.r_max) -> Network:
    """Drop synapses whose resistance reached the training ceiling.

    A resistance at the upper bound lets almost no current through, so the
    synapse contributes nothing and can be left out of the hardware.  The
    cutoff is 0.999 * r_max rather than r_max: training gives a synapse it
    pins to the ceiling r_max exactly, but a synapse still walking there
    when training stops sits just below it (999,999.998 ohms in the MSE
    model of the seed-42 split, which exact equality would keep).
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be a finite resistance > 0, got {r_max}")
    cutoff = _PRUNE_FRACTION * r_max
    neurons = tuple(
        replace(neuron, synapses=tuple(s for s in neuron.synapses if s.resistance < cutoff))
        for neuron in net.neurons
    )
    return replace(net, neurons=neurons)


def _features(samples: Sequence[PostureSample]) -> np.ndarray:
    # one list per column converts several times faster than one per row
    return np.array([[s.pitch for s in samples], [s.roll for s in samples]], dtype=np.float64).T


# the init spans the box's top two decades: synapses start weak, the task recruits what it needs
_INIT_SPAN = 100.0
# step cap in ln R; damping factors and range (floored: mu never underflows to 0); stop tolerance
_MAX_STEP, _MU_DOWN, _MU_UP, _MU_MIN, _MU_MAX, _REL_TOL = 0.5, 3.0, 10.0, 1e-10, 1e10, 1e-13


def _loss_and_gradient(
    log_r: np.ndarray, durations: np.ndarray, targets: np.ndarray, cfg: TrainConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, dL/du and J at log-resistances u, (2, classes, lines), over the batch.

    In supply and window units, ``durations`` in t_max and ``targets`` in v_in.
    L = MSE(V, targets) + energy_weight * mean(V_e); J = dV_c/du[:, c], (c, n, 2 * lines).
    Both contract the one :func:`~ifcirc.kernel.sensitivities` array with the durations:
    dL/dG summed over the batch, J per sample.  A line that never runs (D = 0) gets 0.
    """
    g = np.exp(math.log(cfg.t_max) - math.log(cfg.capacitance) - log_r)
    fwd = forward(durations, g, 1.0)
    residual = fwd.v - targets
    loss = float(np.vdot(residual, residual)) / residual.size
    loss += cfg.energy_weight * float(fwd.v_e.mean())
    sens = sensitivities(fwd, 1.0)  # dV/d(D·G)
    # dL/dV and dL/dV_e share the factor 2 / size, its 1 / size taken before the batch sum
    # so the sum cannot overflow; dV_e/d(D·G_e) = exp(-D·G_e), and V_e does not depend on G_i
    weights = residual * sens
    weights[0] += 0.5 * cfg.energy_weight * fwd.factors[0]
    weights *= 1.0 / residual.size
    dl_dg = (weights.reshape(-1, residual.shape[1]) @ durations).reshape(g.shape)
    jac = sens.transpose(1, 2, 0)[..., None] * durations[:, None, :]
    jac *= -g.transpose(1, 0, 2)[:, None]  # dG/du = -G
    return loss, -g * dl_dg * 2.0, jac.reshape(*fwd.v.shape, -1)


def train(samples: Sequence[PostureSample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Projected Levenberg–Marquardt on all log-resistances, full batch.

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

    durations = duration_matrix(features, 1.0)  # (n, lines), in units of t_max
    high = 0.6 if cfg.target_high is None else cfg.target_high / cfg.supply_voltage
    class_index = {label: i for i, label in enumerate(classes)}
    targets = np.zeros((n_classes, len(samples)))  # fractions of the supply
    for col, s in enumerate(samples):
        targets[class_index[s.label], col] = high

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    log_lo, log_hi = math.log(cfg.r_min), math.log(cfg.r_max)
    # (polarity, class, line): excitatory in [0], inhibitory in [1]; log-uniform init
    u = rng.uniform(max(log_lo, math.log(cfg.r_max / _INIT_SPAN)), log_hi,
                    size=(2, n_classes, n_inputs + 1))

    loss, grad, jac = _loss_and_gradient(u, durations, targets, cfg)
    history, mu, eye = [loss], 1.0, np.eye(2 * (n_inputs + 1))
    while len(history) <= cfg.epochs and mu <= _MU_MAX:
        # per neuron, (classes, 2 * lines) as in J; pin each synapse on a bound pushed outward
        free = ~(((u <= log_lo) & (grad > 0)) | ((u >= log_hi) & (grad < 0)))
        free, rhs = (x.transpose(1, 0, 2).reshape(n_classes, -1) for x in (free, -grad))
        hess = jac.transpose(0, 2, 1) @ jac * (2.0 / targets.size)
        a = hess + mu * (np.einsum("cii->ci", hess) + 1e-12)[:, None] * eye
        a = np.where(free[:, :, None] & free[:, None], a, eye)  # a pinned synapse steps 0
        try:
            step = np.linalg.solve(a, np.where(free, rhs, 0.0)[..., None])
        except np.linalg.LinAlgError:  # singular in floating point: damp harder
            mu *= _MU_UP
            continue
        step = step.reshape(n_classes, 2, -1).transpose(1, 0, 2)
        trial = np.clip(u + np.clip(step, -_MAX_STEP, _MAX_STEP), log_lo, log_hi)
        trial_loss, trial_grad, trial_jac = _loss_and_gradient(trial, durations, targets, cfg)
        if not trial_loss <= loss:  # rejected: damp harder; a rejected trial costs no budget
            mu *= _MU_UP
            continue
        history.append(trial_loss)
        u, loss, grad, jac = trial, trial_loss, trial_grad, trial_jac
        mu = max(mu / _MU_DOWN, _MU_MIN)
        if history[-2] - loss <= _REL_TOL * history[-2]:
            break
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
    return TrainResult(network=network, loss_history=history, epochs_run=len(history) - 1)


def evaluate_accuracy(
    net: Network,
    samples: Sequence[PostureSample],
    *,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of samples whose argmax class matches the label.

    Ties go to the lowest neuron index, as in :func:`ifcirc.classify`.  A
    nonzero ``noise_sigma`` first passes every potential through
    :func:`ifcirc.perturb_readout`, drawing from ``rng`` sample by sample,
    neuron by neuron; it needs an ``rng``.
    """
    if noise_sigma != 0.0 and rng is None:
        raise ValueError("a nonzero noise_sigma needs rng, a numpy Generator to draw from")
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
    if noise_sigma != 0.0:
        potentials = perturb_readout(potentials, noise_sigma, rng, supply_voltage=net.supply_voltage)
    predicted = np.array([index[label] for label in labels])[potentials.argmax(axis=1)]
    return int(np.count_nonzero(predicted == truth)) / len(samples)


def write_loss_csv(history: Sequence[float], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(history):
            writer.writerow([epoch, repr(loss)])


# --------------------------- logistic baseline -----------------------------

_BASELINE_LEARNING_RATE, _BASELINE_EPOCHS, _BASELINE_SEED = 0.5, 2000, 0  # gradient descent


@dataclass(frozen=True)
class LogisticBaseline:
    classes: tuple[str, ...]
    weights: np.ndarray  # (2, n_classes)
    bias: np.ndarray  # (n_classes,)
    accuracy: float  # on the held-out set

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def train_logistic_baseline(
    train_samples: Sequence[PostureSample], test_samples: Sequence[PostureSample]
) -> LogisticBaseline:
    """Multinomial logistic regression by full-batch gradient descent.

    Accuracy is measured on the held-out ``test_samples``.
    """
    if len(train_samples) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(test_samples) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    classes = tuple(dict.fromkeys(s.label for s in train_samples))
    x = _features(train_samples)
    y = np.zeros((len(train_samples), len(classes)))
    index = {label: i for i, label in enumerate(classes)}
    for row, s in enumerate(train_samples):
        y[row, index[s.label]] = 1.0

    rng = np.random.Generator(np.random.PCG64(_BASELINE_SEED))
    weights = rng.normal(0.0, 0.01, size=(x.shape[1], len(classes)))
    bias = np.zeros(len(classes))
    n = len(train_samples)
    for epoch in range(_BASELINE_EPOCHS):
        probs = _softmax(x @ weights + bias)
        if not np.all(np.isfinite(probs)):
            raise TrainingDivergedError(f"training loss became non-finite at epoch {epoch}")
        grad = probs - y
        weights -= _BASELINE_LEARNING_RATE * (x.T @ grad) / n
        bias -= _BASELINE_LEARNING_RATE * grad.sum(axis=0) / n

    predicted = (_features(test_samples) @ weights + bias).argmax(axis=1).tolist()
    hits = sum(classes[k] == s.label for k, s in zip(predicted, test_samples))
    return LogisticBaseline(classes, weights, bias, accuracy=hits / len(test_samples))
