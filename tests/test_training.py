"""Loss, analytic gradients, rescaling, pruning, and the training loop.

The gradient under test is :func:`ifcirc.kernel.gradient`, the one
``train()`` calls every epoch.  The finite-difference comparisons
re-derive it from forward evaluations alone, so they would catch a wrong
sign, a wrong factor, or a dropped duration term independently of the
formulas under test.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcirc import (
    DatasetConfig,
    IFNeuron,
    Network,
    Polarity,
    PostureSample,
    Synapse,
    TrainConfig,
    TrainingDivergedError,
    classify,
    clamp_resistances,
    evaluate_accuracy,
    generate,
    infer_network,
    mse_loss,
    prune,
    rescale_network,
    split,
    train,
    train_logistic_baseline,
)
from ifcirc.kernel import duration_matrix, forward, gradient
from ifcirc.neuron import infer_batch
from ifcirc.training import _loss_and_gradient, write_loss_csv


# -------------------------------- loss --------------------------------------


def test_mse_loss_zero_at_target():
    assert mse_loss((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == 0.0


def test_mse_loss_simple_value():
    assert mse_loss((0.5, 0.0, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(0.25 / 3)


def test_mse_loss_on_bundled_potentials(bundled_model):
    pots = infer_network(bundled_model, (0.0, 0.0))
    loss = mse_loss(pots, (1.0, 0.0, 0.0))
    assert loss == pytest.approx(0.002227668520731167, rel=1e-9)


def test_mse_loss_rejects_mismatch():
    with pytest.raises(ValueError):
        mse_loss((1.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        mse_loss((), ())


# ------------------------------ gradients -----------------------------------


def _dv_dg(net, stimuli, dl_dv=None):
    """The gradient train() calls, for a network's conductances at ``stimuli``."""
    durations = duration_matrix(stimuli, net.t_max)
    fwd = forward(durations, net.conductances, net.supply_voltage)
    weights = np.ones_like(fwd.v) if dl_dv is None else dl_dv
    return gradient(durations, net.supply_voltage, fwd, weights)


def test_gradient_single_excitatory_frozen_value():
    neuron = IFNeuron("u", 1e-6, (Synapse(0, Polarity.EXCITATORY, 10e3),))
    net = Network(neurons=(neuron,), n_inputs=1, t_max=0.01)
    grad = _dv_dg(net, [(1.0,)])
    assert grad[0, 0, 0] == pytest.approx(math.exp(-1) * 0.01, rel=1e-12)
    # chain rule dG/dR = -G/R, as train() applies it, gives dV/dR
    g = net.conductances[0, 0, 0]
    assert grad[0, 0, 0] * (-g / 10e3) == pytest.approx(-math.exp(-1) * 1e-4, rel=1e-12)
    # frozen central difference (h = 1 ohm) from the standalone oracle script
    assert grad[0, 0, 0] * (-g / 10e3) == pytest.approx(-3.6787944178495735e-05, rel=1e-6)


def test_gradient_zero_for_zero_duration():
    neuron = IFNeuron(
        "u",
        1e-6,
        (Synapse(0, Polarity.EXCITATORY, 10e3), Synapse(1, Polarity.EXCITATORY, 10e3)),
    )
    net = Network(neurons=(neuron,), n_inputs=2, t_max=0.01)
    grad = _dv_dg(net, [(0.0, 1.0)])
    assert grad[0, 0, 0] == 0.0
    assert grad[0, 0, 1] != 0.0


def test_gradients_zero_without_excitation():
    # nothing ever charges, so no inhibitory conductance can influence the potential
    neuron = IFNeuron("u", 1e-6, (Synapse(0, Polarity.INHIBITORY, 10e3),))
    net = Network(neurons=(neuron,), n_inputs=1, t_max=0.01)
    assert _dv_dg(net, [(1.0,)])[1].tolist() == [[0.0, 0.0]]


@st.composite
def gradient_instances(draw):
    """Rescaled-parameterization networks in well-conditioned ranges.

    Any (line, polarity) pair may be unwired, and inputs at or below zero
    give zero-duration lines.  Exponent sums stay O(1) so neither
    1-exp(...) nor the finite differences fall into cancellation noise.
    """
    n_classes = draw(st.integers(1, 3))
    neurons = []
    for k in range(n_classes):
        synapses = [
            Synapse(line, polarity, draw(st.floats(0.02, 1.0)))
            for line in range(3)
            for polarity in Polarity
            if draw(st.booleans())
        ]
        neurons.append(IFNeuron(f"c{k}", 1.0, tuple(synapses)))
    net = Network(
        neurons=tuple(neurons),
        n_inputs=2,
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
    """Log-resistances, durations and targets as one training epoch sees them.

    Resistances span the default init range in hardware ohms, so exponent
    sums D·G stay within [0, 5]; inputs at or below zero give zero-duration
    lines.
    """
    n_classes = draw(st.integers(1, 3))
    cfg = TrainConfig(
        supply_voltage=draw(st.floats(0.5, 5.0)), t_max=draw(st.floats(0.005, 0.05))
    )
    lines = 3
    log_r = np.log(np.array(draw(st.lists(
        st.floats(1e4, 1e6), min_size=2 * n_classes * lines, max_size=2 * n_classes * lines
    )))).reshape(2, n_classes, lines)
    inputs = st.one_of(st.floats(0.1, 1.0), st.sampled_from([0.0, -0.3]))
    n = draw(st.integers(1, 4))
    durations = duration_matrix([(draw(inputs), draw(inputs)) for _ in range(n)], cfg.t_max)
    targets = np.array(draw(st.lists(
        st.floats(0.0, cfg.supply_voltage), min_size=n * n_classes, max_size=n * n_classes
    ))).reshape(n_classes, n)
    return log_r, durations, targets, cfg


@given(instance=log_resistance_instances())
@settings(max_examples=200)
def test_loss_and_gradient_match_finite_differences_in_log_r(instance):
    """The loss and dL/du that train() steps on, against central differences in u."""
    log_r, durations, targets, cfg = instance

    def potentials(u):
        return forward(durations, 1.0 / (np.exp(u) * cfg.capacitance), cfg.supply_voltage).v

    value, grad = _loss_and_gradient(log_r, durations, targets, cfg)
    # the loss is the MSE of the potentials infer_batch gives for R = e^u
    neurons = tuple(
        IFNeuron(f"c{k}", cfg.capacitance, tuple(
            Synapse(line, polarity, float(np.exp(log_r[phase, k, line])))
            for phase, polarity in enumerate(Polarity)
            for line in range(log_r.shape[2])
        ))
        for k in range(log_r.shape[1])
    )
    net = Network(neurons, n_inputs=2, supply_voltage=cfg.supply_voltage, t_max=cfg.t_max)
    stimuli = durations[:, :-1] / cfg.t_max
    expected = float(np.mean((infer_batch(net, stimuli).T - targets) ** 2))
    assert value == pytest.approx(expected, rel=1e-12)
    h = 1e-6
    for index in np.ndindex(log_r.shape):
        up, down = log_r.copy(), log_r.copy()
        up[index] += h
        down[index] -= h
        v_up, v_down = potentials(up), potentials(down)
        # L(up) - L(down) per output, so a small change is not lost in the
        # rounding of the whole loss
        delta = float(np.sum((v_up - v_down) * (v_up + v_down - 2.0 * targets))) / targets.size
        assert grad[index] == pytest.approx(delta / (2 * h), rel=1e-4, abs=1e-12)
        if durations[:, index[2]].max() == 0.0:
            assert grad[index] == 0.0  # a line that never runs has no gradient


# ------------------------------ rescaling -----------------------------------


def test_rescale_identity(bundled_model):
    assert rescale_network(bundled_model, 1.0) == bundled_model


def test_rescale_to_unit_range(bundled_model):
    scaled = rescale_network(bundled_model, 1e-6)
    rs = [s.resistance for n in scaled.neurons for s in n.synapses]
    assert min(rs) == pytest.approx(1.53e-3)
    assert max(rs) == pytest.approx(1.0)
    assert all(n.capacitance == pytest.approx(1.0) for n in scaled.neurons)


def test_rescale_round_trip(bundled_model):
    back = rescale_network(rescale_network(bundled_model, 1e-3), 1e3)
    for orig, restored in zip(bundled_model.neurons, back.neurons):
        assert restored.capacitance == pytest.approx(orig.capacitance, rel=1e-12)
        for s_orig, s_back in zip(orig.synapses, restored.synapses):
            assert s_back.resistance == pytest.approx(s_orig.resistance, rel=1e-12)


def test_rescale_rejects_bad_factor(bundled_model):
    with pytest.raises(ValueError):
        rescale_network(bundled_model, 0.0)
    with pytest.raises(ValueError):
        rescale_network(bundled_model, -2.0)


@given(k=st.sampled_from([1e-6, 1e-3, 1e3]),
       pitch=st.floats(0.0, 1.0), roll=st.floats(0.0, 1.0))
def test_rescale_preserves_potentials(bundled_model, k, pitch, roll):
    scaled = rescale_network(bundled_model, k)
    for orig, new in zip(
        infer_network(bundled_model, (pitch, roll)), infer_network(scaled, (pitch, roll))
    ):
        assert math.isclose(orig, new, rel_tol=1e-12)


def test_rescale_preserves_loss(bundled_model):
    targets = (1.0, 0.0, 0.0)
    orig = mse_loss(infer_network(bundled_model, (0.0, 0.0)), targets)
    scaled = mse_loss(infer_network(rescale_network(bundled_model, 1e-6), (0.0, 0.0)), targets)
    assert scaled == pytest.approx(orig, rel=1e-12)


# --------------------------- clamp and prune --------------------------------


def test_clamp_examples():
    neuron = IFNeuron(
        "u",
        1e-6,
        (
            Synapse(0, Polarity.EXCITATORY, 2000e3),
            Synapse(1, Polarity.EXCITATORY, 500e3),
            Synapse(2, Polarity.EXCITATORY, 0.5e3),
        ),
    )
    net = Network(neurons=(neuron,), n_inputs=2)
    clamped = clamp_resistances(net, 1e3, 1000e3)
    rs = [s.resistance for s in clamped.neurons[0].synapses]
    assert rs == [1000e3, 500e3, 1e3]


def test_clamp_rejects_inverted_bounds(bundled_model):
    with pytest.raises(ValueError):
        clamp_resistances(bundled_model, 1e6, 1e3)


def test_prune_bundled_model_leaves_nine(bundled_model):
    pruned = prune(bundled_model)
    assert sum(len(n.synapses) for n in bundled_model.neurons) == 18
    assert sum(len(n.synapses) for n in pruned.neurons) == 9


def test_prune_no_ceiling_is_identity(pruned_bundled_model):
    assert prune(pruned_bundled_model) == pruned_bundled_model


def test_prune_is_idempotent(bundled_model):
    once = prune(bundled_model)
    assert prune(once) == once


def test_prune_respects_threshold_fraction(bundled_model):
    # a cutoff above every resistance removes nothing
    assert prune(bundled_model, r_max=1e6, threshold_fraction=1.1) == bundled_model
    # a cutoff below everything removes all synapses
    stripped = prune(bundled_model, r_max=1e6, threshold_fraction=0.0)
    assert sum(len(n.synapses) for n in stripped.neurons) == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"r_max": math.nan}, "r_max must be a finite resistance > 0"),
        ({"r_max": math.inf}, "r_max must be a finite resistance > 0"),
        ({"r_max": 0.0}, "r_max must be a finite resistance > 0"),
        ({"r_max": -1e6}, "r_max must be a finite resistance > 0"),
        ({"threshold_fraction": math.nan}, "threshold_fraction must be finite"),
        ({"threshold_fraction": -math.inf}, "threshold_fraction must be finite"),
    ],
)
def test_prune_rejects_bad_ceiling(bundled_model, kwargs, message):
    # a nan ceiling compares false everywhere and would drop every synapse
    with pytest.raises(ValueError, match=message):
        prune(bundled_model, **kwargs)


# ------------------------------ training ------------------------------------


def _quick_dataset(n=20, seed=0):
    return generate(DatasetConfig(n_per_class=n, seed=seed))


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
    # 2000x the default rate drives resistances into both clamp walls, never past
    cfg = TrainConfig(learning_rate=1e4, epochs=200, seed=0)
    result = train(_quick_dataset(5), cfg)
    rs = [syn.resistance for neuron in result.network.neurons for syn in neuron.synapses]
    assert all(1e3 <= r <= 1e6 for r in rs)
    assert 1e3 in rs and 1e6 in rs  # pinned synapses carry their bound exactly


def test_training_early_stop_on_plateau():
    # at 20x the default rate the resistances reach their walls and the loss
    # flattens well inside the budget; from 250 on this init collapses instead
    samples = [PostureSample(0.0, 0.0, "stand"), PostureSample(0.5, 0.0, "lie")]
    cfg = TrainConfig(learning_rate=100.0, epochs=5000, seed=0)
    result = train(samples, cfg)
    assert result.epochs_run < 5000
    assert len(result.loss_history) == result.epochs_run + 1
    window = result.loss_history[-101:]
    assert window[0] - window[-1] < 1e-9
    assert result.loss_history[-1] < 0.003  # the separating plateau, not a collapse
    assert evaluate_accuracy(result.network, samples) == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_diverged_error_reports_epoch():
    samples = [PostureSample(0.0, 0.0, "stand")]
    cfg = TrainConfig(supply_voltage=math.inf, epochs=10, seed=0)
    with pytest.raises(TrainingDivergedError) as exc_info:
        train(samples, cfg)
    assert exc_info.value.epoch == 0


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], TrainConfig())


def test_trainconfig_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(r_min=1e6, r_max=1e3)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=math.nan)
    with pytest.raises(ValueError):
        TrainConfig(init_r_max=2e6)  # above r_max
    with pytest.raises(ValueError):
        TrainConfig(init_r_min=10.0)  # below r_min


def test_trained_network_shape():
    result = train(_quick_dataset(5), TrainConfig(epochs=5, seed=0))
    net = result.network
    assert net.labels == ("stand", "sit", "lie")
    assert net.n_inputs == 2
    # every neuron fully wired: both polarities on pitch, roll, and bias
    for neuron in net.neurons:
        assert len(neuron.synapses) == 6
        assert neuron.capacitance == 1e-6


@pytest.fixture(scope="module")
def seed_sweep():
    """Default-config runs for init seeds 0-11 on the seed-42 80/20 split."""
    samples = generate(DatasetConfig(n_per_class=300, noise_sigma=0.04, seed=42))
    train_set, test_set = split(samples, 0.8, seed=42)
    return test_set, [train(train_set, TrainConfig(seed=seed)) for seed in range(12)]


def test_training_converges_from_most_inits(seed_sweep):
    test_set, results = seed_sweep
    accuracies = [evaluate_accuracy(result.network, test_set) for result in results]
    assert sum(accuracy >= 0.95 for accuracy in accuracies) >= 11, accuracies


def test_trained_default_model_prunes_to_half(seed_sweep):
    _, results = seed_sweep
    network = results[TrainConfig().seed].network
    assert sum(len(n.synapses) for n in network.neurons) == 18
    assert sum(len(n.synapses) for n in prune(network).neurons) <= 9


# --------------------------- evaluation helpers -----------------------------


def test_evaluate_accuracy_on_clean_means(bundled_model):
    clean = generate(DatasetConfig(n_per_class=4, noise_sigma=0.0, seed=0))
    assert evaluate_accuracy(bundled_model, clean) == 1.0


def test_evaluate_accuracy_rejects_unknown_labels(bundled_model):
    sit_only = Network(neurons=bundled_model.neurons[2:], n_inputs=2)
    with pytest.raises(ValueError):
        evaluate_accuracy(sit_only, _quick_dataset(2))


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([0.5, 0.25, 0.125], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert lines[1] == "0,0.5"
    assert len(lines) == 4


# ------------------------------ baseline ------------------------------------


def test_baseline_single_class_is_perfect():
    samples = [PostureSample(0.0, 0.0, "stand") for _ in range(10)]
    model = train_logistic_baseline(samples, epochs=50)
    assert model.accuracy == 1.0


def test_baseline_separates_quick_dataset():
    train_set = _quick_dataset(40, seed=1)
    test_set = _quick_dataset(10, seed=2)
    model = train_logistic_baseline(train_set, test_set, epochs=1000)
    assert model.accuracy >= 0.95


def test_baseline_is_deterministic():
    samples = _quick_dataset(10, seed=4)
    a = train_logistic_baseline(samples, epochs=100, seed=1)
    b = train_logistic_baseline(samples, epochs=100, seed=1)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.weights, b.weights)
