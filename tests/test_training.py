"""Loss, analytic gradients, rescaling, pruning, and the training loop.

The derivatives under test are :func:`ifcirc.kernel.sensitivities`,
dV/d(D·G) per sample, and the dL/du and Jacobian J = dV/du that
``train()`` contracts from it every iteration.  The finite-difference
comparisons re-derive them from forward evaluations alone, so they would
catch a wrong sign, a wrong factor, or a dropped duration term
independently of the formulas under test.
"""
import hashlib
import math
import re
import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    Network,
    POLARITIES,
    PostureSample,
    TrainConfig,
    classify,
    energy_per_inference,
    evaluate_accuracy,
    generate,
    infer_network,
    nearest_centroid_accuracy,
    perturb_readout,
    prune,
    quantize_network,
    save_network,
    split,
    train,
)
from ifcirc import training
from ifcirc.kernel import duration_matrix, forward, sensitivities
from ifcirc.neuron import infer_batch
from ifcirc.training import _gradient, _loss, write_loss_csv
from conftest import assert_dispatch_digest, exp_and_blas, loss_rises, rescaled, wired, wiring
from test_refusals import LIBRARY_REFUSALS, refusal_tests


# -------------------------------- loss --------------------------------------


def _log_r(net):
    """u = ln R of a fully wired ``net``, (2, classes, lines), as train() lays it out."""
    log_r = np.empty((2, len(net.labels), net.n_inputs + 1))
    for (label, line, polarity), ohms in wired(net).items():
        log_r[POLARITIES.index(polarity), net.labels.index(label), line] = math.log(ohms)
    return log_r


def _train_loss(net, stimulus, targets):
    """The loss train() computes for a fully wired ``net`` at one input, targets in volts.

    train() works in supply and window units: durations in units of t_max, targets as
    fractions of the supply, and a loss in units of v_in squared.
    """
    cfg = TrainConfig(
        capacitance=net.capacitance, t_max=net.t_max, supply_voltage=net.supply_voltage,
        energy_weight=0.0,
    )
    durations = duration_matrix([stimulus], 1.0)
    targets = np.array(targets)[:, None] / net.supply_voltage
    return _loss(_log_r(net), durations, targets, cfg)[0]


def _potentials_and_loss(offset):
    """The MSE, and its dL/du, against the potentials of a uniform 3-class network, in
    units of the supply, shifted by ``offset``."""
    cfg = TrainConfig(energy_weight=0.0)
    log_r = np.full((2, 3, 3), math.log(1e5))
    durations = duration_matrix([(0.3, 0.7)], 1.0)
    # the rates t_max/(R*C) formed as train() forms them, so the targets are met exactly
    rates = np.exp(math.log(cfg.t_max) - math.log(cfg.capacitance) - log_r)
    v = forward(durations, rates, 1.0).v
    point = _loss(log_r, durations, v + np.asarray(offset)[:, None], cfg)
    return point[0], _gradient(point, durations, cfg)[0]


def test_loss_zero_at_target():
    loss, grad = _potentials_and_loss((0.0, 0.0, 0.0))
    assert loss == 0.0
    assert not grad.any()


def test_loss_simple_value():
    loss, _ = _potentials_and_loss((0.5, 0.0, 0.0))
    assert loss == pytest.approx(0.25 / 3)


def test_loss_on_bundled_potentials(bundled_model):
    loss = _train_loss(bundled_model, (0.0, 0.0), (1.0, 0.0, 0.0))
    assert loss == pytest.approx(0.002227668520731167, rel=1e-9)


# ------------------------------ gradients -----------------------------------


def _dv_dg(net, stimuli, dl_dv=None):
    """dL/dG from the sensitivities train() uses, for a network's conductances at ``stimuli``."""
    durations = duration_matrix(stimuli, net.t_max)
    fwd = forward(durations, net.conductances, net.supply_voltage)
    weights = np.ones_like(fwd.v) if dl_dv is None else dl_dv
    return (weights * sensitivities(fwd, net.supply_voltage)) @ durations


def test_gradient_single_excitatory_frozen_value():
    net = Network(("u",), wiring(1, {(0, "excitatory"): 10e3}), 1e-6, t_max=0.01)
    grad = _dv_dg(net, [(1.0,)])
    assert grad[0, 0, 0] == pytest.approx(math.exp(-1) * 0.01, rel=1e-12)
    # chain rule dG/dR = -G/R, as train() applies it, gives dV/dR
    g = net.conductances[0, 0, 0]
    assert grad[0, 0, 0] * (-g / 10e3) == pytest.approx(-math.exp(-1) * 1e-4, rel=1e-12)
    # frozen central difference (h = 1 ohm) from the standalone oracle script
    assert grad[0, 0, 0] * (-g / 10e3) == pytest.approx(-3.6787944178495735e-05, rel=1e-6)


def test_gradient_zero_for_zero_duration():
    table = wiring(2, {(0, "excitatory"): 10e3, (1, "excitatory"): 10e3})
    net = Network(("u",), table, 1e-6, t_max=0.01)
    grad = _dv_dg(net, [(0.0, 1.0)])
    assert grad[0, 0, 0] == 0.0
    assert grad[0, 0, 1] != 0.0


def test_gradients_zero_without_excitation():
    # nothing ever charges, so no inhibitory conductance can influence the potential
    net = Network(("u",), wiring(1, {(0, "inhibitory"): 10e3}), 1e-6, t_max=0.01)
    assert _dv_dg(net, [(1.0,)])[1].tolist() == [[0.0, 0.0]]


@st.composite
def gradient_instances(draw):
    """Rescaled-parameterization networks in well-conditioned ranges.

    Any (line, polarity) pair may be unwired, and inputs at or below zero
    give zero-duration lines.  Exponent sums stay O(1) so neither
    1-exp(...) nor the finite differences fall into cancellation noise.
    """
    n_classes = draw(st.integers(1, 3))
    r = draw(arrays(np.float64, (2, n_classes, 3),
                    elements=st.one_of(st.just(np.inf), st.floats(0.02, 1.0))))
    net = Network(
        [f"c{k}" for k in range(n_classes)],
        r,
        1.0,
        supply_voltage=draw(st.floats(0.5, 5.0)),
        t_max=draw(st.floats(0.002, 0.012)),
    )
    inputs = st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.0, -0.3]))
    n = draw(st.integers(1, 4))
    stimuli = [(draw(inputs), draw(inputs)) for _ in range(n)]
    dl_dv = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n_classes,
                                   max_size=n * n_classes))).reshape(n_classes, n)
    return net, stimuli, dl_dv


@given(instance=gradient_instances())
@settings(max_examples=200)
def test_gradients_match_finite_differences(instance):
    net, stimuli, dl_dv = instance
    durations = duration_matrix(stimuli, net.t_max)
    v_in = net.supply_voltage

    def potentials(g):
        return forward(durations, g, v_in).v

    grad = _dv_dg(net, stimuli, dl_dv)
    g0 = np.array(net.conductances)
    scale = max(g0.max(), 1.0)
    for index in np.ndindex(g0.shape):
        h = 1e-6 * (g0[index] or scale)  # unwired synapses (G = 0) included
        up, down = g0.copy(), g0.copy()
        up[index] += h
        down[index] -= h
        # difference per output first: weights of very different size must not
        # bury a small term in the rounding of a large one
        fd = float(np.sum(dl_dv * (potentials(up) - potentials(down)))) / (2 * h)
        assert grad[index] == pytest.approx(fd, rel=1e-4, abs=1e-12)
        if durations[:, index[2]].max() == 0.0:
            assert grad[index] == 0.0  # a line that never runs has no gradient


@given(instance=gradient_instances())
@settings(max_examples=200)
def test_gradient_signs(instance):
    net, stimuli, _ = instance
    grad = _dv_dg(net, stimuli)
    # more excitatory conductance charges higher, more inhibitory drains lower
    assert (grad[0] >= 0.0).all()
    assert (grad[1] <= 0.0).all()


@st.composite
def log_resistance_instances(draw):
    """Log-resistances, durations, targets and weights as one training epoch sees them.

    Resistances span the default init range in hardware ohms, so exponent
    sums D·G stay within [0, 5]; inputs at or below zero give zero-duration
    lines.  As train() passes them, durations are in units of t_max and
    targets are fractions of the supply.
    """
    n_classes = draw(st.integers(1, 3))
    cfg = TrainConfig(
        supply_voltage=draw(st.floats(0.5, 5.0)), t_max=draw(st.floats(0.005, 0.05)),
        energy_weight=draw(st.floats(0.0, 1.0)),
    )
    lines = 3
    log_r = np.log(np.array(draw(st.lists(
        st.floats(1e4, 1e6), min_size=2 * n_classes * lines, max_size=2 * n_classes * lines
    )))).reshape(2, n_classes, lines)
    inputs = st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.0, -0.3]))
    n = draw(st.integers(1, 4))
    durations = duration_matrix([(draw(inputs), draw(inputs)) for _ in range(n)], 1.0)
    targets = np.array(draw(st.lists(
        st.floats(0.0, 1.0), min_size=n * n_classes, max_size=n * n_classes
    ))).reshape(n_classes, n)
    return log_r, durations, targets, cfg


def _rates(u, cfg):
    """t_max/(R*C) at R = e^u: the rates D·G per unit duration in units of t_max."""
    return cfg.t_max / (np.exp(u) * cfg.capacitance)


@given(instance=log_resistance_instances())
@settings(max_examples=200)
def test_loss_and_gradient_match_finite_differences_in_log_r(instance):
    """The loss and dL/du that train() steps on, against central differences in u."""
    log_r, durations, targets, cfg = instance
    v_in, size = cfg.supply_voltage, targets.size

    point = _loss(log_r, durations, targets, cfg)
    value, (grad, _) = point[0], _gradient(point, durations, cfg)
    # the loss is the MSE of the potentials infer_batch gives for R = e^u, in units of
    # the supply, plus the energy term; V_e is the potential of the excitatory synapses alone
    def network(r):
        labels = [f"c{k}" for k in range(r.shape[1])]
        return Network(labels, r, cfg.capacitance, supply_voltage=v_in, t_max=cfg.t_max)

    stimuli, r = durations[:, :-1], np.exp(log_r)
    v = infer_batch(network(r), stimuli).T / v_in
    v_e = infer_batch(network(np.stack((r[0], np.full_like(r[1], np.inf)))), stimuli).T / v_in
    expected = float(np.mean((v - targets) ** 2)) + cfg.energy_weight * float(np.mean(v_e))
    assert value == pytest.approx(expected, rel=1e-12)
    # the energy term's own gradient, d sum(V_e)/du: V_e is the V of the circuit without
    # its inhibitory synapses, so dV_e/d(D·G_e) is that circuit's sensitivity; G_i has none
    g = _rates(log_r, cfg)
    excitatory = forward(durations, g * np.array([1.0, 0.0])[:, None, None], 1.0)
    dve_dg = sensitivities(excitatory, 1.0)[0] @ durations
    energy_grad = -g * np.stack((dve_dg, np.zeros_like(dve_dg)))
    h = 1e-6
    for index in np.ndindex(log_r.shape):
        up, down = log_r.copy(), log_r.copy()
        up[index] += h
        down[index] -= h
        f_up = forward(durations, _rates(up, cfg), 1.0)
        f_down = forward(durations, _rates(down, cfg), 1.0)
        # L(up) - L(down) per output, so a small change is not lost in the
        # rounding of the whole loss
        mse_delta = float(np.sum((f_up.v - f_down.v) * (f_up.v + f_down.v - 2.0 * targets)))
        energy_delta = float(np.sum(f_up.v_e - f_down.v_e))
        assert energy_grad[index] == pytest.approx(energy_delta / (2 * h), rel=1e-4, abs=1e-12)
        delta = (mse_delta + cfg.energy_weight * energy_delta) / size
        assert grad[index] == pytest.approx(delta / (2 * h), rel=1e-4, abs=1e-12)
        if durations[:, index[2]].max() == 0.0:
            assert grad[index] == 0.0  # a line that never runs has no gradient


@given(instance=log_resistance_instances())
@settings(max_examples=200)
def test_jacobian_matches_finite_differences_in_log_r(instance):
    """J = dV/du, which train() builds its Gauss–Newton matrix from, against central
    differences of the potentials; a neuron's V depends on its own u alone."""
    log_r, durations, targets, cfg = instance
    lines = log_r.shape[2]

    def potentials(u):
        return forward(durations, _rates(u, cfg), 1.0).v

    jac = _gradient(_loss(log_r, durations, targets, cfg), durations, cfg)[1]
    assert jac.shape == (log_r.shape[1], durations.shape[0], 2 * lines)
    h = 1e-6
    for phase, c, line in np.ndindex(log_r.shape):
        up, down = log_r.copy(), log_r.copy()
        up[phase, c, line] += h
        down[phase, c, line] -= h
        fd = (potentials(up) - potentials(down)) / (2 * h)
        assert jac[c, :, phase * lines + line] == pytest.approx(fd[c], rel=1e-4, abs=1e-12)
        assert not np.delete(fd, c, axis=0).any()


# ------------------------------ rescaling -----------------------------------


@given(k=st.sampled_from([1e-6, 1e-3, 1e3]),
       pitch=st.floats(0.0, 1.0), roll=st.floats(0.0, 1.0))
def test_rescale_preserves_potentials(bundled_model, k, pitch, roll):
    scaled = rescaled(bundled_model, k)
    for orig, new in zip(
        infer_network(bundled_model, (pitch, roll)), infer_network(scaled, (pitch, roll))
    ):
        assert math.isclose(orig, new, rel_tol=1e-12)


def test_rescale_preserves_loss(bundled_model):
    targets = (1.0, 0.0, 0.0)
    orig = _train_loss(bundled_model, (0.0, 0.0), targets)
    scaled = _train_loss(rescaled(bundled_model, 1e-6), (0.0, 0.0), targets)
    assert scaled == pytest.approx(orig, rel=1e-12)


# --------------------------- clamp and prune --------------------------------


def test_clamp_examples():
    # a target at the supply pushes every ln R of the one neuron into a wall (excitatory
    # down, inhibitory up), each onto its bound exactly, in the 11 iterations of the first
    # fit; one class is always the argmax, so elimination then holds every synapse at the
    # ceiling, exactly
    stand = [s for s in _quick_dataset(5) if s.label == "stand"]
    cfg = TrainConfig(r_min=2e3, r_max=5e5, energy_weight=0.0, target_high=1.0)
    first_fit = train(stand, replace(cfg, epochs=11))  # the budget ends training there
    assert first_fit.network.labels == ("stand",)
    assert set(wired(first_fit.network).values()) == {2e3, 5e5}
    assert set(wired(train(stand, cfg).network).values()) == {5e5}


def test_prune_bundled_model_leaves_nine(bundled_model):
    pruned = prune(bundled_model)
    assert len(wired(bundled_model)) == 18
    assert len(wired(pruned)) == 9


def test_prune_no_ceiling_is_identity(pruned_bundled_model):
    assert prune(pruned_bundled_model) == pruned_bundled_model


def test_prune_is_idempotent(bundled_model):
    once = prune(bundled_model)
    assert prune(once) == once


# ------------------------------ training ------------------------------------


def _quick_dataset(n=20, seed=0):
    return generate(DatasetConfig(n_per_class=n, seed=seed))


def _resistances(net):
    return list(wired(net).values())


def test_single_step_descends():
    samples = [PostureSample(0.0, 0.0, "stand")]
    result = train(samples, TrainConfig(epochs=1, seed=0))
    assert len(result.loss_history) == 2
    assert result.loss_history[1] < result.loss_history[0]


def test_training_is_deterministic():
    cfg = TrainConfig(epochs=50, seed=3)
    samples = _quick_dataset()
    a = train(samples, cfg)
    b = train(samples, cfg)
    assert a.network == b.network
    assert a.loss_history == b.loss_history


def test_training_respects_bounds():
    # a true-class target at the supply drives resistances into both walls of a box with
    # a floor of 10 kohm, never past
    cfg = TrainConfig(seed=0, r_min=1e4, energy_weight=0.0, target_high=1.0)
    result = train(_quick_dataset(5), cfg)
    rs = _resistances(result.network)
    assert all(1e4 <= r <= 1e6 for r in rs)
    assert 1e4 in rs and 1e6 in rs  # pinned synapses carry their bound exactly


def test_training_early_stop_on_plateau():
    # training stops on its own well inside the budget, once a step no longer
    # lowers the loss; the first fit ends where the history first rises, as elimination
    # holds a synapse at r_max
    samples = [PostureSample(0.0, 0.0, "stand"), PostureSample(0.5, 0.0, "lie")]
    cfg = TrainConfig(epochs=5000, seed=0, energy_weight=0.0, target_high=1.0)
    result = train(samples, cfg)
    assert result.epochs_run < 500
    history = result.loss_history
    end = next((i for i in range(1, len(history)) if history[i] > history[i - 1]), len(history))
    for window in (history[end - 2:end], history[-2:]):  # the first fit's last step, the last
        assert window[0] - window[-1] < 1e-9
    assert history[end - 1] < 0.003  # the separating plateau, not a collapse
    assert evaluate_accuracy(result.network, samples) == 1.0


def test_a_supply_of_1_3e154_volts_trains_to_the_1_volt_resistances():
    # the summed squared residuals in volts overflowed here: training diverged at epoch 0
    samples = _quick_dataset(3, seed=2)
    cfg = TrainConfig(epochs=10, seed=0)
    result = train(samples, replace(cfg, supply_voltage=1.3e154))
    one_volt = train(samples, cfg)
    assert _resistances(result.network) == _resistances(one_volt.network)
    assert result.loss_history == one_volt.loss_history
    assert result.network.supply_voltage == 1.3e154


def test_trainconfig_validation():  # its refusals are rows of test_refusals.py
    assert TrainConfig(epochs=np.int64(3), seed=np.uint8(2)).epochs == 3
    cfg = TrainConfig(r_min=np.float32(2e3), r_max=np.int64(10**6), target_high=np.float64(0.5))
    assert (cfg.r_min, cfg.r_max, cfg.target_high) == (2e3, 1e6, 0.5)  # numpy numbers pass


def test_trained_network_shape():
    result = train(_quick_dataset(5), TrainConfig(epochs=5, seed=0))
    net = result.network
    assert net.labels == ("stand", "sit", "lie")
    assert net.n_inputs == 2
    # every neuron fully wired: both polarities on pitch, roll, and bias
    assert list(wired(net)) == [(label, line, polarity) for label in net.labels
                                for polarity in POLARITIES for line in range(3)]
    assert net.capacitance == 1e-6


@pytest.fixture(scope="module")
def split_42():
    """The seed-42 80/20 split (720/180) of the default posture dataset."""
    samples = generate(DatasetConfig(n_per_class=300, noise_sigma=0.04, seed=42))
    return split(samples, 0.8, seed=42)


@pytest.fixture(scope="module")
def seed_sweep(split_42):
    """Default-config runs for init seeds 0-11 on the seed-42 split."""
    train_set, test_set = split_42
    return test_set, [train(train_set, TrainConfig(seed=seed)) for seed in range(12)]


@pytest.fixture(scope="module")
def mse_result(split_42):
    """The MSE objective alone, true-class target at the supply: the objective before
    the energy term."""
    return train(split_42[0], TrainConfig(energy_weight=0.0, target_high=1.0))


@pytest.fixture(scope="module")
def first_fit(split_42):
    """The default config's first fit alone: its 87 iterations spend the whole budget, so
    no synapse is dropped after it."""
    return train(split_42[0], TrainConfig(epochs=87))


# sha256 of the model JSON the default config (seed 0, energy term on) saves, 205
# iterations over all fits, 7 -> 5 synapses; it holds on every platform measured
DEFAULT_MODEL_SHA256 = "eca1a3a0700ee43a0c7ed4501270add6f26f9a9d0aefe04cb0610e893c53a1b4"
# The pins below move with numpy's exp/expm1 dispatch and with OpenBLAS's core, whose
# vdot, matmul and solve round differently (conftest.exp_and_blas).
_V4, _V3 = "X86_V4/X86_V4", "X86_V3/baseline(X86_V2)"
# sha256 of the model JSON mse_result saves (92 iterations over all fits, 8 -> 5 synapses),
# frozen from the Levenberg–Marquardt trainer in supply and window units with backward
# elimination; this config was the default before the energy term existed
MSE_MODEL_SHA256 = {
    f"{_V4} SkylakeX": "2e25d2d0498119af0e35c1b835315b297a0047a4df2d184b617d1aae58021bc9",
    f"{_V3} SkylakeX": "2e25d2d0498119af0e35c1b835315b297a0047a4df2d184b617d1aae58021bc9",
    f"{_V4} Haswell": "18e86935046d9da247d20d2fce40d15cd3f4c235582ef213e6effef4602b0301",
    f"{_V3} Haswell": "6c288905932deba3c17134e557f7013b2c3148456ac7acc7ad7e753ad30d3237",
    f"{_V4} Sandybridge": "18e86935046d9da247d20d2fce40d15cd3f4c235582ef213e6effef4602b0301",
    f"{_V3} Sandybridge": "18e86935046d9da247d20d2fce40d15cd3f4c235582ef213e6effef4602b0301",
}
# sha256 of the first fits alone, the models both configs saved before elimination: the
# MSE config's in 26 iterations, the default's in 87
MSE_FIRST_FIT_SHA256 = {
    f"{_V4} SkylakeX": "1733978986873020d20907b5047d9540b3b1987b2b9467768de49de4eafc4f35",
    f"{_V3} SkylakeX": "1733978986873020d20907b5047d9540b3b1987b2b9467768de49de4eafc4f35",
    f"{_V4} Haswell": "0e511fcd924cff9c89a2c218688c0f5b2997ed51f719facd70be30b3d5e0d546",
    f"{_V3} Haswell": "9216821aa9f83a4eb2b342d35bc417e717ecb75da3f6cc36e2d507c3e7e56b3f",
    f"{_V4} Sandybridge": "0e511fcd924cff9c89a2c218688c0f5b2997ed51f719facd70be30b3d5e0d546",
    f"{_V3} Sandybridge": "9216821aa9f83a4eb2b342d35bc417e717ecb75da3f6cc36e2d507c3e7e56b3f",
}
DEFAULT_FIRST_FIT_SHA256 = {
    f"{_V4} SkylakeX": "05585276798e63d499d78a3582e8e64c6b1bd1c6005e90d3ae8c80406a8d07f2",
    f"{_V3} SkylakeX": "b69094168d77b27ff6b81dfd69af27d92fb78b5663188a03cbbbec5e52495048",
    f"{_V4} Haswell": "d9dfbc3a2c441ca12baca32ed1a49be5f81ec8face3f20b4836c06324a406795",
    f"{_V3} Haswell": "d9dfbc3a2c441ca12baca32ed1a49be5f81ec8face3f20b4836c06324a406795",
    f"{_V4} Sandybridge": "d9dfbc3a2c441ca12baca32ed1a49be5f81ec8face3f20b4836c06324a406795",
    f"{_V3} Sandybridge": "9a162b7860835852bd8051edf2fe661b68ec22f86329fcdcbe199f721fbf3e8c",
}


def _sha256_of_saved(network, path):
    save_network(network, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_training_converges_from_most_inits(seed_sweep):
    test_set, results = seed_sweep
    accuracies = [evaluate_accuracy(result.network, test_set) for result in results]
    assert sum(accuracy >= 0.95 for accuracy in accuracies) >= 11, accuracies


def test_trained_default_model_prunes_to_half(seed_sweep):
    _, results = seed_sweep
    network = results[TrainConfig().seed].network
    assert len(wired(network)) == 18
    assert len(wired(prune(network))) <= 9


def test_mse_objective_reproduces_its_model_byte_for_byte(mse_result, tmp_path):
    digest = _sha256_of_saved(mse_result.network, tmp_path / "model.json")
    assert_dispatch_digest(MSE_MODEL_SHA256, digest, exp_and_blas)


def test_prune_cuts_a_synapse_just_below_the_ceiling(split_42, tmp_path):
    # the MSE config's first fit stops with one synapse still walking to the ceiling,
    # unpinned at 999,999.998 ohms: the 0.999 cutoff prunes it, exact equality with r_max
    # would not (elimination then holds that synapse at r_max exactly)
    cfg = TrainConfig(energy_weight=0.0, target_high=1.0, epochs=26)  # the first fit's budget
    network = train(split_42[0], cfg).network
    digest = _sha256_of_saved(network, tmp_path / "model.json")
    assert_dispatch_digest(MSE_FIRST_FIT_SHA256, digest, exp_and_blas)
    r_max = TrainConfig.r_max
    rs = _resistances(network)
    assert any(0.999 * r_max <= r < r_max for r in rs), rs
    assert len(wired(prune(network))) == 8


def test_default_objective_reproduces_its_model_byte_for_byte(seed_sweep, tmp_path):
    result = seed_sweep[1][TrainConfig().seed]
    assert result.epochs_run == 205
    assert _sha256_of_saved(result.network, tmp_path / "model.json") == DEFAULT_MODEL_SHA256


def test_first_fit_is_unchanged_by_elimination(first_fit, tmp_path):
    """Elimination starts from the Levenberg–Marquardt fit train() made before it existed."""
    assert first_fit.epochs_run == 87
    digest = _sha256_of_saved(first_fit.network, tmp_path / "model.json")
    assert_dispatch_digest(DEFAULT_FIRST_FIT_SHA256, digest, exp_and_blas)
    assert len(wired(prune(first_fit.network))) == 7


def test_a_platform_without_a_pin_fails_naming_itself_and_its_digest():
    key = "X86_V2/X86_V2 Prescott"
    with pytest.raises(AssertionError, match=f"^no pin for platform {re.escape(key)}, which gave ab12"):
        assert_dispatch_digest(DEFAULT_FIRST_FIT_SHA256, "ab12", lambda: key)


def test_elimination_keeps_five_synapses_at_the_first_fits_accuracy(split_42, seed_sweep, first_fit):
    """The two cross-inhibitory synapses go: sit's on pitch and lie's on roll.  Each
    dropped synapse sits at r_max exactly, and the training accuracy does not fall."""
    train_set, _ = split_42
    network = seed_sweep[1][TrainConfig().seed].network
    assert evaluate_accuracy(network, train_set) >= evaluate_accuracy(first_fit.network, train_set)
    kept = wired(prune(network)).keys()
    first = wired(prune(first_fit.network))
    assert len(kept) == 5 and kept < first.keys()
    dropped = first.keys() - kept
    assert dropped == {("sit", 0, "inhibitory"), ("lie", 1, "inhibitory")}
    final = wired(network)
    assert all(final[key] == TrainConfig.r_max for key in dropped)


# max |dV| over the held-out split between the trained default model and its pruned
# circuit, in units of v_in: the same on both exp dispatches measured
DEFAULT_PRUNE_SHIFT = 0.07060355769122623


def test_prune_keeps_held_out_accuracy_and_moves_potentials_by_a_pinned_shift(split_42, seed_sweep):
    """``train`` returns the two dropped synapses at r_max, where they still conduct; the circuit
    that is built is the pruned one.  Pruned, it scores as well held out and two training samples
    better, and no held-out potential moves by more than the pin."""
    train_set, test_set = split_42
    network = seed_sweep[1][TrainConfig().seed].network
    pruned = prune(network)
    assert evaluate_accuracy(network, test_set) == evaluate_accuracy(pruned, test_set) == 1.0
    assert evaluate_accuracy(network, train_set) == 716 / 720
    assert evaluate_accuracy(pruned, train_set) == 718 / 720
    points = [(s.pitch, s.roll) for s in test_set]
    shift = np.abs(infer_batch(pruned, points) - infer_batch(network, points)).max()
    assert shift / network.supply_voltage == pytest.approx(DEFAULT_PRUNE_SHIFT, rel=1e-12, abs=0)


def _quantized_and_supply_nj(network):
    """The pruned, quantized circuit and its mean supply energy at the class means, nJ."""
    quantized = quantize_network(prune(network))
    reports = [energy_per_inference(quantized, mean) for mean in CLASS_MEANS.values()]
    return quantized, statistics.fmean(r.supply_energy for r in reports) * 1e9


def test_energy_term_cuts_supply_energy_at_equal_accuracy(seed_sweep, mse_result):
    test_set, results = seed_sweep
    network = results[TrainConfig().seed].network
    quantized, energy = _quantized_and_supply_nj(network)
    mse_quantized, mse_energy = _quantized_and_supply_nj(mse_result.network)
    assert energy <= 0.6 * mse_energy, (energy, mse_energy)
    assert evaluate_accuracy(network, test_set) >= evaluate_accuracy(mse_result.network, test_set)
    assert evaluate_accuracy(quantized, test_set) >= evaluate_accuracy(mse_quantized, test_set)


def test_loss_history_never_increases(seed_sweep):
    """The history rises only where a kept refit starts, with one more synapse held at
    r_max: at most twice, for the two synapses elimination drops (7 -> 5)."""
    _, results = seed_sweep
    for seed, result in enumerate(results):
        increases = loss_rises(result.loss_history)
        assert len(increases) <= 2, (seed, increases[:5])


def _assert_one_final_loss(results):
    losses = [result.loss_history[-1] for result in results]
    assert max(losses) - min(losses) <= 1e-9 * min(losses), losses


def test_every_init_lands_on_the_same_optimum(seed_sweep):
    _, results = seed_sweep
    _assert_one_final_loss(results)
    kept = [len(wired(prune(result.network))) for result in results]
    assert kept == [5] * 12, kept


def test_every_init_lands_on_the_same_mse_optimum(split_42, mse_result, tmp_path):
    """Uncapped steps threw init seed 11 onto bounds where training stopped at 3x the
    optimal loss.  Kept synapses may differ here: a saturated neuron can move one to the
    ceiling at no cost in loss.  Seed 0 trained twice saves the same bytes."""
    cfg = TrainConfig(energy_weight=0.0, target_high=1.0)
    results = [train(split_42[0], replace(cfg, seed=seed)) for seed in range(12)]
    _assert_one_final_loss(results)
    once, again = (tmp_path / "once.json", tmp_path / "again.json")
    assert _sha256_of_saved(mse_result.network, once) == _sha256_of_saved(results[0].network, again)


def test_training_is_invariant_under_rescaling(split_42):
    """Box and capacitance rescaled as (R * k, C / k) train to the same potentials: the
    init is drawn from the box, so it rescales with it.  So do t_max and capacitance
    rescaled as (t_max * k, C * k)."""
    train_set, test_set = split_42
    features = np.array([(s.pitch, s.roll) for s in test_set])

    def run(cfg):
        result = train(train_set, cfg)
        return result.epochs_run, infer_batch(result.network, features)

    epochs, potentials = run(TrainConfig())
    scaled_configs = [
        *(TrainConfig(r_min=1e3 * k, r_max=1e6 * k, capacitance=1e-6 / k) for k in (0.1, 10.0, 1e3)),
        # the stimulation window and the capacitance together: R*C / t_max is unchanged
        *(TrainConfig(t_max=0.05 * k, capacitance=1e-6 * k) for k in (1e-3, 1e3)),
    ]
    for cfg in scaled_configs:
        scaled_epochs, scaled = run(cfg)
        assert scaled_epochs == epochs, cfg
        assert np.abs(scaled - potentials).max() <= 1e-12, cfg


def test_training_is_invariant_under_supply_voltage(split_42, seed_sweep):
    """At the default target, 0.6 of the supply, the supply never enters training."""
    one_volt = seed_sweep[1][TrainConfig().seed]
    for v_in in (1e-300, 1e-20, 1e-3, 1e3, 1e20, 1e300):
        result = train(split_42[0], TrainConfig(supply_voltage=v_in))
        assert result.epochs_run == one_volt.epochs_run, v_in
        assert _resistances(result.network) == _resistances(one_volt.network), v_in


def test_returned_point_is_stationary(split_42, seed_sweep):
    """No synapse off its bound, nor one the gradient pushes back into the box, has a
    gradient left at the returned resistances, except those elimination holds at r_max:
    the gradient pushes them back into the box, and there are two (7 -> 5 synapses)."""
    train_set, _ = split_42
    cfg = TrainConfig()
    durations = duration_matrix([(s.pitch, s.roll) for s in train_set], 1.0)
    lo, hi = math.log(cfg.r_min), math.log(cfg.r_max)
    for result in seed_sweep[1]:
        targets = np.array([  # the default true-class target, 0.6 of the supply
            [0.6 if s.label == label else 0.0 for s in train_set]
            for label in result.network.labels
        ])
        log_r = _log_r(result.network)
        grad = _gradient(_loss(log_r, durations, targets, cfg), durations, cfg)[0]
        pinned = ((log_r <= lo) & (grad > 0)) | ((log_r >= hi) & (grad < 0))
        held = (log_r >= hi) & (grad > 0)
        assert np.count_nonzero(held) <= 2
        assert np.abs(grad[~(pinned | held)]).max() <= 1e-6


def _decade(lo, hi):
    """Exponents in [lo, hi], the ends drawn often."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


@st.composite
def extreme_configs(draw):
    """TrainConfigs out to the edges TrainConfig accepts.

    The box in window units spans from a fastest rate t_max/(r_min*C) to a slowest
    time constant r_max*C/t_max, each up to 10**308.25, just under the largest float;
    the energy weight reaches the largest float; the target is a fraction t' in (0, 1]
    of a supply from 1e-300 V to 1e300 V.
    """
    t_max, capacitance = (10.0 ** draw(_decade(-6.0, 6.0)) for _ in range(2))
    log_rate = draw(_decade(-300.0, 308.25))  # log10 t_max/(r_min*C)
    log_tau = draw(_decade(-log_rate, 308.25).filter(lambda x: x > -log_rate))  # r_max*C/t_max
    supply = 10.0 ** draw(_decade(-300.0, 300.0))
    try:
        return TrainConfig(
            epochs=100,
            r_min=t_max / capacitance / 10.0**log_rate,
            r_max=10.0**log_tau * t_max / capacitance,
            capacitance=capacitance,
            t_max=t_max,
            supply_voltage=supply,
            target_high=draw(st.floats(0.0, 1.0, exclude_min=True)) * supply,
            energy_weight=draw(_decade(0.0, sys.float_info.max)),
        )
    except ValueError:  # r_min*C or 1/(r_min*C) out of range, or the target underflows
        assume(False)


@settings(max_examples=40, deadline=None)
@given(cfg=extreme_configs(), labels=st.sampled_from([("stand",), ("stand", "sit", "lie")]))
def test_training_at_the_accepted_extremes_stays_finite(split_42, cfg, labels):
    """Overflows grow with the batch: this trains on the 720-row seed-42 split."""
    samples = [s for s in split_42[0] if s.label in labels]
    result = train(samples, cfg)
    assert all(math.isfinite(loss) for loss in result.loss_history)
    assert all(cfg.r_min <= r <= cfg.r_max for r in _resistances(result.network))
    assert result.network.conductances.max() < math.inf


def _failing_solve(monkeypatch, failures):
    """Make np.linalg.solve raise LinAlgError on its first ``failures`` calls; returns the
    list of calls made."""
    solve, calls = np.linalg.solve, []

    def flaky(a, b):
        calls.append(a.shape)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky)
    return calls


def test_a_singular_solve_damps_harder_and_training_goes_on(split_42, seed_sweep, monkeypatch):
    calls = _failing_solve(monkeypatch, 1)
    result = train(split_42[0], TrainConfig())
    assert len(calls) > 1
    expected = seed_sweep[1][TrainConfig().seed].loss_history[-1]
    assert result.loss_history[-1] == pytest.approx(expected, rel=1e-9)


def _counted(monkeypatch, name):
    """Wrap ``ifcirc.training.<name>`` to record its calls; returns the list of calls made."""
    fn, calls = getattr(training, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(training, name, counted)
    return calls


@pytest.mark.parametrize("failures", [0, 1])
def test_each_accepted_iteration_is_differentiated_once(split_42, monkeypatch, failures):
    """A fit differentiates each point it steps from, and no other: a singular solve or
    a rejected trial adds no call, so the calls are the accepted iterations (205)."""
    solves = _failing_solve(monkeypatch, failures)
    gradients = _counted(monkeypatch, "_gradient")
    result = train(split_42[0], TrainConfig())
    assert len(solves) > failures
    assert len(gradients) == result.epochs_run


def test_rejected_trials_end_the_fit_at_the_damping_ceiling(monkeypatch):
    """Every trial raises the loss: the fit tries mu = 1, 10, ..., 1e10, the damping
    cap, and stops where it began, its start point differentiated once."""
    losses = []

    def worse(*args):  # the start point as it is, each trial above it
        point = _loss(*args)
        losses.append(point[0])
        return point if len(losses) == 1 else (point[0] + 1.0, *point[1:])

    monkeypatch.setattr(training, "_loss", worse)
    solves, gradients = _failing_solve(monkeypatch, 0), _counted(monkeypatch, "_gradient")
    cfg = TrainConfig()
    durations = duration_matrix(np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)
    targets = np.array([[0.6, 0.0], [0.0, 0.6]])
    u = np.full((2, 2, 3), math.log(cfg.r_max / 10))
    end, history, _ = training._fit(u, np.zeros(u.shape, dtype=bool), 100, durations, targets, cfg)
    assert len(solves) == 11 and len(losses) == 12 and len(gradients) == 1
    assert history == losses[:1] and np.array_equal(end, u)


def test_a_solve_that_always_fails_ends_training_without_a_step(monkeypatch):
    calls = _failing_solve(monkeypatch, math.inf)
    samples = [PostureSample(0.0, 0.0, "stand"), PostureSample(0.5, 0.0, "lie")]
    result = train(samples, TrainConfig())
    assert result.epochs_run == 0
    # each fit tries mu = 1, 10, ..., 1e10, the damping cap, and stops; the history holds
    # one loss per fit kept, all but the last refit, which elimination discards
    fits, tries = divmod(len(calls), 11)
    assert tries == 0 and fits >= 1
    assert len(result.loss_history) in (fits, fits - 1)


# --------------------------- evaluation helpers -----------------------------


def test_evaluate_accuracy_on_clean_means(bundled_model):
    clean = generate(DatasetConfig(n_per_class=4, noise_sigma=0.0, seed=0))
    assert evaluate_accuracy(bundled_model, clean) == 1.0


def test_evaluate_accuracy_with_readout_noise(bundled_model):
    """Noise is drawn sample by sample, neuron by neuron, as eval --noise-sigma does."""
    samples = _quick_dataset(20, seed=1)
    rng = np.random.Generator(np.random.PCG64(3))
    hits = 0
    for s in samples:
        potentials = infer_network(bundled_model, (s.pitch, s.roll))
        noisy = [perturb_readout(p, 0.3, rng) for p in potentials]
        hits += bundled_model.labels[classify(noisy)] == s.label
    rng = np.random.Generator(np.random.PCG64(3))
    noisy_accuracy = evaluate_accuracy(bundled_model, samples, noise_sigma=0.3, rng=rng)
    assert noisy_accuracy == hits / len(samples)
    assert noisy_accuracy < evaluate_accuracy(bundled_model, samples)


@pytest.mark.parametrize("labels", [("sit", "lie", "stand"), ("lie", "stand", "sit"),
                                    ("stand", "sit", "lie"), ("stand", "lie", "sit")])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_evaluate_accuracy_counts_by_label(bundled_model, labels, sigma):
    # a hit is a label match, in whatever order the neurons hold the labels
    net = replace(bundled_model, labels=labels)
    samples = _quick_dataset(20, seed=4)
    rng = np.random.Generator(np.random.PCG64(5))
    hits = 0
    for s in samples:
        potentials = [perturb_readout(p, sigma, rng) for p in infer_network(net, (s.pitch, s.roll))]
        hits += labels[classify(potentials)] == s.label
    rng = np.random.Generator(np.random.PCG64(5))
    assert evaluate_accuracy(net, samples, noise_sigma=sigma, rng=rng) == hits / len(samples)


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([0.5, 0.25, 0.125], path)
    assert path.read_bytes() == b"epoch,loss\r\n0,0.5\r\n1,0.25\r\n2,0.125\r\n"


# ------------------------------ baseline ------------------------------------


def test_baseline_single_class_is_perfect():
    samples = [PostureSample(0.0, 0.0, "stand") for _ in range(10)]
    assert nearest_centroid_accuracy(samples, samples) == 1.0


def test_baseline_separates_quick_dataset():
    train_set = _quick_dataset(40, seed=1)
    test_set = _quick_dataset(10, seed=2)
    assert nearest_centroid_accuracy(train_set, test_set) >= 0.95


def test_baseline_is_deterministic():
    samples = _quick_dataset(10, seed=4)
    train_set, test_set = split(samples, 0.5, seed=4)
    assert nearest_centroid_accuracy(train_set, test_set) == nearest_centroid_accuracy(
        train_set, test_set
    )


def test_baseline_ties_go_to_the_first_class_and_unseen_labels_miss():
    train_set = [PostureSample(0.0, 0.0, "sit"), PostureSample(0.5, 0.0, "stand")]
    midway = [PostureSample(0.25, 0.0, "sit"), PostureSample(0.25, 0.0, "stand")]
    assert nearest_centroid_accuracy(train_set, midway) == 0.5  # "sit" appeared first
    assert nearest_centroid_accuracy(train_set, [PostureSample(0.5, 0.0, "lie")]) == 0.0


globals().update(refusal_tests(LIBRARY_REFUSALS["test_training"]))
