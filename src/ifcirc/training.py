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
Each synapse on a bound pushed outward stays; the others solve
(H + mu * (diag H + 1e-12)) delta = -dL/du, the energy term entering by
the exact gradient only.  Each point a step is sought from is
differentiated and its system built once; a damping trial only re-solves
that system with a larger mu.  delta is capped at 0.5 in ln R: uncapped
steps can pin synapses at a stationary point of three times the optimal
loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._pcg import PCG64
from .dataset import PostureSample, _check_integer, _check_real, _write_rows
from .hardware import perturb_readout
from .kernel import Forward, duration_matrix, forward, sensitivities
from .neuron import Network, infer_batch

__all__ = [
    "TrainConfig",
    "TrainResult",
    "prune",
    "train",
    "evaluate_accuracy",
    "nearest_centroid_accuracy",
    "write_loss_csv",
]


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
        _check_integer("epochs", self.epochs, 1)
        _check_integer("seed", self.seed, 0)
        for name in ("r_min", "r_max", "capacitance", "t_max", "supply_voltage"):
            _check_real(name, getattr(self, name))
        if not self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max < inf, got {self.r_min}, {self.r_max}")
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
        if self.target_high is not None:  # above the 0 V the other classes target
            _check_real("target_high", self.target_high)
            if self.target_high > self.supply_voltage:  # the potential never exceeds the supply
                raise ValueError(
                    f"target_high must be finite and at most supply_voltage "
                    f"{self.supply_voltage}, got {self.target_high}"
                )
        _check_real("energy_weight", self.energy_weight, zero=True)


@dataclass(frozen=True)
class TrainResult:
    """``loss_history``, and the ``final_loss`` and ``train_accuracy`` of ``ifcirc train``, describe
    ``network``, whose dropped synapses still conduct at r_max, not :func:`prune`'s circuit."""

    network: Network
    loss_history: list[float]  # each kept fit in turn: its starting loss, one per accepted iteration
    epochs_run: int  # accepted iterations of every fit, the discarded last refit included


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
    _check_real("r_max", r_max)
    cutoff = _PRUNE_FRACTION * r_max
    r = np.where(net.resistances < cutoff, net.resistances, np.inf)
    return replace(net, resistances=r)


def _features(samples: Sequence[PostureSample]) -> np.ndarray:
    # one list per column converts several times faster than one per row
    return np.array([[s.pitch for s in samples], [s.roll for s in samples]], dtype=np.float64).T


# the init spans the box's top two decades: synapses start weak, the task recruits what it needs
_INIT_SPAN = 100.0
# step cap in ln R; damping factors and range (floored: mu never underflows to 0); stop tolerance
_MAX_STEP, _MU_DOWN, _MU_UP, _MU_MIN, _MU_MAX, _REL_TOL = 0.5, 3.0, 10.0, 1e-10, 1e10, 1e-13


def _loss(log_r: np.ndarray, durations: np.ndarray, targets: np.ndarray,
          cfg: TrainConfig) -> tuple[float, np.ndarray, Forward, np.ndarray]:
    """L = MSE(V, targets) + energy_weight * mean(V_e) at log-resistances u, (2, classes,
    lines), over the batch, with the rates G, the kernel's :class:`~ifcirc.kernel.Forward`
    and the residual V - targets; ``durations`` in t_max, ``targets`` and V in v_in."""
    g = np.exp(math.log(cfg.t_max) - math.log(cfg.capacitance) - log_r)
    fwd = forward(durations, g, 1.0)
    residual = fwd.v - targets
    loss = float(np.vdot(residual, residual)) / residual.size
    loss += cfg.energy_weight * float(fwd.v_e.mean())
    return loss, g, fwd, residual


def _gradient(point: tuple, durations: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, ...]:
    """dL/du and J = dV_c/du[:, c], (c, n, 2 * lines), at a point :func:`_loss` returned.
    Both contract the one :func:`~ifcirc.kernel.sensitivities` array with the durations:
    dL/dG summed over the batch, J per sample.  A line that never runs (D = 0) gets 0."""
    _, g, fwd, residual = point
    sens = sensitivities(fwd, 1.0)  # dV/d(D·G)
    # dL/dV and dL/dV_e share the factor 2 / size, its 1 / size taken before the batch sum
    # so the sum cannot overflow; dV_e/d(D·G_e) = exp(-D·G_e), and V_e does not depend on G_i
    weights = residual * sens
    weights[0] += 0.5 * cfg.energy_weight * fwd.factors[0]
    weights *= 1.0 / residual.size
    dl_dg = (weights.reshape(-1, residual.shape[1]) @ durations).reshape(g.shape)
    jac = sens.transpose(1, 2, 0)[..., None] * durations[:, None, :]
    jac *= -g.transpose(1, 0, 2)[:, None]  # dG/du = -G
    return -g * dl_dg * 2.0, jac.reshape(*fwd.v.shape, -1)


def _fit(u: np.ndarray, held: np.ndarray, budget: int, durations: np.ndarray,
         targets: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Projected LM from ``u`` for at most ``budget`` accepted iterations, each synapse in
    ``held`` pinned at ln r_max like a bound; the end point, the loss at each point and the
    potentials V, (classes, n), at the end.  The outer loop differentiates each point once
    and builds its system; the inner loop runs one damping trial per pass, re-damping and
    re-solving that system, and its ``else`` is the stop at the damping ceiling."""
    log_lo, log_hi = math.log(cfg.r_min), math.log(cfg.r_max)
    u, n_classes, eye = np.where(held, log_hi, u), u.shape[1], np.eye(u.shape[0] * u.shape[2])
    point = _loss(u, durations, targets, cfg)
    history, mu = [point[0]], 1.0
    while len(history) <= budget:
        grad, jac = _gradient(point, durations, cfg)
        # per neuron, (classes, 2 * lines) as in J; pin each synapse on a bound pushed outward
        free = ~(held | ((u <= log_lo) & (grad > 0)) | ((u >= log_hi) & (grad < 0)))
        free, rhs = (x.transpose(1, 0, 2).reshape(n_classes, -1) for x in (free, -grad))
        hess = jac.transpose(0, 2, 1) @ jac * (2.0 / targets.size)
        while mu <= _MU_MAX:
            a = hess + mu * (hess.diagonal(axis1=1, axis2=2) + 1e-12)[:, None] * eye
            a = np.where(free[:, :, None] & free[:, None], a, eye)  # a pinned synapse steps 0
            try:
                step = np.linalg.solve(a, np.where(free, rhs, 0.0)[..., None])
            except np.linalg.LinAlgError:  # singular in floating point
                pass
            else:
                step = step.reshape(n_classes, 2, -1).transpose(1, 0, 2)
                trial = np.clip(u + np.clip(step, -_MAX_STEP, _MAX_STEP), log_lo, log_hi)
                trial_point = _loss(trial, durations, targets, cfg)
                if trial_point[0] <= history[-1]:
                    break
            mu *= _MU_UP  # singular or rejected: damp harder; it costs no budget
        else:  # the damping ceiling: no trial from this point lowers the loss
            break
        history.append(trial_point[0])
        u, point, mu = trial, trial_point, max(mu / _MU_DOWN, _MU_MIN)
        if history[-2] - history[-1] <= _REL_TOL * history[-2]:
            break
    return u, history, point[2].v


def train(samples: Sequence[PostureSample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Projected Levenberg–Marquardt on all log-resistances, full batch, then the
    fewest synapses that keep the training accuracy of that first fit.

    Every class gets one neuron wired to every input (bias included) with both
    polarities.  Backward elimination holds at r_max the live synapse whose hold raises
    the loss least (ties to the lowest flat index) and refits warm, until a refit falls
    below the first fit's training accuracy and is discarded.  Dropped synapses sit at
    r_max exactly, for :func:`prune`.  ``cfg.epochs`` caps the accepted iterations of
    all fits together.  Deterministic for a given config.  Loss and training accuracy are the
    returned network's; :func:`prune`'s circuit, the one built, gets 718 of 720 training samples
    right on the default seed-42 split, not 716, and moves held-out potentials by 0.0706 v_in.
    """
    if len(samples) == 0:
        raise ValueError("cannot train on an empty dataset")
    classes = list(dict.fromkeys(s.label for s in samples))
    durations = duration_matrix(_features(samples), 1.0)  # (n, lines), in units of t_max
    high = 0.6 if cfg.target_high is None else cfg.target_high / cfg.supply_voltage
    class_index = {label: i for i, label in enumerate(classes)}
    truth = np.array([class_index[s.label] for s in samples])
    targets = np.zeros((len(classes), len(samples)))  # fractions of the supply
    targets[truth, np.arange(len(samples))] = high

    log_lo, log_hi = math.log(cfg.r_min), math.log(cfg.r_max)
    # (polarity, class, line): excitatory in [0], inhibitory in [1]; log-uniform init
    u = PCG64(cfg.seed).uniform(max(log_lo, math.log(cfg.r_max / _INIT_SPAN)), log_hi,
                                size=(2, len(classes), durations.shape[1]))

    def hits(v: np.ndarray) -> int:  # training samples whose argmax neuron is their class
        return int(np.count_nonzero(v.argmax(axis=0) == truth))

    held, flat = np.zeros(u.shape, dtype=bool), np.arange(u.size).reshape(u.shape)
    u, history, v = _fit(u, held, cfg.epochs, durations, targets, cfg)
    floor, spent = hits(v), len(history) - 1
    while spent < cfg.epochs and (u < log_hi).any():
        costs = [(_loss(np.where(flat == i, log_hi, u), durations, targets, cfg)[0], i)
                 for i in np.flatnonzero(u < log_hi)]
        trial_held = held | (flat == min(costs)[1])
        trial, trial_history, trial_v = _fit(u, trial_held, cfg.epochs - spent, durations, targets, cfg)
        spent += len(trial_history) - 1
        if hits(trial_v) < floor:
            break
        u, held, history = trial, trial_held, history + trial_history
    # a pinned synapse gets its bound exactly: exp(ln r_max) may be an ulp off r_max
    r = np.select([u <= log_lo, u >= log_hi], [cfg.r_min, cfg.r_max], np.exp(u))
    network = Network(classes, r, cfg.capacitance, cfg.supply_voltage, cfg.t_max)
    return TrainResult(network=network, loss_history=history, epochs_run=spent)


def evaluate_accuracy(
    net: Network,
    samples: Sequence[PostureSample],
    *,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of samples whose argmax class matches the label.

    Ties go to the lowest neuron index, as in :func:`ifcirc.classify`.  A nonzero
    ``noise_sigma`` first passes every potential through :func:`ifcirc.perturb_readout`,
    drawing from ``rng`` sample by sample, neuron by neuron; it refuses a missing ``rng``.
    """
    if len(samples) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = net.labels
    index = {label: i for i, label in enumerate(labels)}
    try:
        truth = np.array([index[s.label] for s in samples])
    except KeyError as exc:
        label = exc.args[0]
        raise ValueError(f"sample label {label!r} not among network classes {labels}") from None
    potentials = infer_batch(net, _features(samples))
    if noise_sigma != 0.0:
        potentials = perturb_readout(potentials, noise_sigma, rng, supply_voltage=net.supply_voltage)
    return int(np.count_nonzero(potentials.argmax(axis=1) == truth)) / len(samples)


def write_loss_csv(history: Sequence[float], path: str | Path) -> None:
    _write_rows(path, ("epoch", "loss"), ((str(i), repr(loss)) for i, loss in enumerate(history)))


def nearest_centroid_accuracy(
    train_samples: Sequence[PostureSample], test_samples: Sequence[PostureSample]
) -> float:
    """Accuracy on ``test_samples`` of the nearest class centroid of ``train_samples``.

    The generator's plug-in Bayes rule.  Ties go to the lowest index in first-appearance
    class order, as in :func:`train`; a held-out label training lacks is a miss.
    """
    if len(train_samples) == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(test_samples) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    index = {label: i for i, label in enumerate(dict.fromkeys(s.label for s in train_samples))}
    x, y = _features(train_samples), np.array([index[s.label] for s in train_samples])
    centroids = np.array([x[y == k].mean(axis=0) for k in range(len(index))])
    nearest = ((_features(test_samples)[:, None] - centroids) ** 2).sum(axis=2).argmin(axis=1)
    hits = sum(index.get(s.label) == k for k, s in zip(nearest.tolist(), test_samples))
    return hits / len(test_samples)
