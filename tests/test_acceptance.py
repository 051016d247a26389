"""Release gate: nine behavioral criteria, one [PASS]/[FAIL] line each.

Run it under pytest, with -s to see the lines:

    python3 -m pytest tests/test_acceptance.py -s

Every criterion prints exactly one line and the suite never weakens a
tolerance to pass; a genuine regression shows up as a [FAIL] plus the
measured number that broke the bound.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    Network,
    POLARITIES,
    TrainConfig,
    build_schedule,
    classify,
    energy_per_inference,
    evaluate_accuracy,
    example_model_path,
    generate,
    infer_batch,
    infer_network,
    integrate_schedule,
    load_network,
    nearest_centroid_accuracy,
    prune,
    quantize_network,
    response_map,
    round_resistance,
    split,
    train,
)
from ifcirc import hardware
from ifcirc.cli import main as cli_main
from ifcirc.kernel import duration_matrix, forward, sensitivities
from conftest import loss_rises, rescaled, wired, wiring


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _random_unit(rng, n_inputs: int) -> Network:
    """One neuron, fully random wiring: any subset of (line, polarity) pairs, at least one."""
    pairs = [(i, p) for i in range(n_inputs + 1) for p in POLARITIES]
    keep = [pair for pair in pairs if rng.random() < 0.6]
    if not keep:
        keep = [pairs[int(rng.integers(len(pairs)))]]
    return Network(("u",), wiring(n_inputs, {
        pair: float(10.0 ** rng.uniform(4.0, 6.0)) for pair in keep
    }), 1e-6)


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        n_inputs = int(rng.integers(1, 4))
        unit = _random_unit(rng, n_inputs)
        stimulus = tuple(float(x) for x in rng.uniform(0.0, 1.0, n_inputs))
        schedule = build_schedule(stimulus, t_max=0.05)
        (exact,) = infer_network(unit, stimulus)
        ode = integrate_schedule(unit.neurons[0], schedule, 1.0, step_divisor=300.0)
        worst = max(worst, _rel_err(exact, ode))
    elapsed = time.perf_counter() - start
    # the RK4 march takes step_divisor steps per time constant of a slot and returns no
    # count of them: a step size gone wrong shows as time alone, so 30 s stops a runaway
    # march rather than timing a fast one
    ok = worst <= 1e-6 and elapsed < 30.0
    _verdict(
        1,
        "closed form matches RK4 on 1000 random neurons",
        ok,
        f"max rel err {worst:.3e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_gradient_correctness():
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    sign_ok = True
    for _ in range(500):
        # rescaled parameterization: R in [0.02, 1] ohm-equivalents, C = 1
        pairs = [(i, p) for i in range(3) for p in POLARITIES]
        keep = [pair for pair in pairs if rng.random() < 0.7] or [pairs[0]]
        if not any(p == "excitatory" for _, p in keep):
            keep.append((0, "excitatory"))
        table = wiring(2, {pair: float(rng.uniform(0.02, 1.0)) for pair in keep})
        stimulus = tuple(float(x) for x in rng.uniform(0.1, 1.0, 2))
        t_max = float(rng.uniform(0.002, 0.012))
        v_in = float(rng.uniform(0.5, 5.0))

        def potential(table):
            net = Network(("u",), table, 1.0, supply_voltage=v_in, t_max=t_max)
            return infer_network(net, stimulus)[0]

        # dV/dG from the sensitivities train() uses, then dG/dR = -1/(R^2 C)
        net = Network(("u",), table, 1.0, supply_voltage=v_in, t_max=t_max)
        durations = duration_matrix([stimulus], t_max)
        fwd = forward(durations, net.conductances, v_in)
        dv_dg = sensitivities(fwd, v_in) @ durations
        for (_, line, polarity), ohms in wired(net).items():
            phase = POLARITIES.index(polarity)
            grad = -dv_dg[phase, 0, line] / (ohms**2 * net.capacitance)
            if polarity == "excitatory" and grad > 0:
                sign_ok = False
            if polarity == "inhibitory" and grad < 0:
                sign_ok = False
            h = 1e-6 * ohms
            fd_args = []
            for delta in (h, -h):
                shifted = table.copy()
                shifted[phase, 0, line] = ohms + delta
                fd_args.append(potential(shifted))
            fd = (fd_args[0] - fd_args[1]) / (2 * h)
            if abs(grad - fd) > 1e-12:
                worst = max(worst, _rel_err(grad, fd))
    ok = worst <= 1e-4 and sign_ok
    _verdict(
        2,
        "analytic gradients match finite differences on 500 instances",
        ok,
        f"max rel err {worst:.3e} <= 1e-4, signs {'ok' if sign_ok else 'WRONG'}",
    )


def test_criterion_3_bundled_model_behavior():
    net = load_network(example_model_path())
    pruned = prune(net)
    before = len(wired(net))
    after = len(wired(pruned))
    expected = {(0.0, 0.0): "stand", (0.0, 0.25): "sit", (0.5, 0.0): "lie"}
    classes_ok = True
    argmax_agree = True
    for stimulus, label in expected.items():
        full = infer_network(net, stimulus)
        lean = infer_network(pruned, stimulus)
        classes_ok &= net.labels[classify(full)] == label
        argmax_agree &= classify(full) == classify(lean)
    ok = before == 18 and after == 9 and classes_ok and argmax_agree
    _verdict(
        3,
        "bundled model prunes 18->9 and classifies the class means",
        ok,
        f"{after} of {before} kept, means {'ok' if classes_ok else 'WRONG'}, "
        f"pruned argmax {'agrees' if argmax_agree else 'DISAGREES'}",
    )


def test_criterion_4_training_run():
    samples = generate(DatasetConfig(n_per_class=300, noise_sigma=0.04, seed=42))
    train_set, test_set = split(samples, 0.8, seed=42)
    budget = TrainConfig().epochs
    start = time.perf_counter()
    result = train(train_set, TrainConfig())
    elapsed = time.perf_counter() - start
    history = result.loss_history
    finite = all(math.isfinite(loss) for loss in history)
    # the history rises only where a kept refit starts, with one more synapse held at
    # r_max: at most twice on this split
    rises = len(loss_rises(history))
    accuracy = evaluate_accuracy(result.network, test_set)
    baseline = nearest_centroid_accuracy(train_set, test_set)
    ok = (
        finite
        and rises <= 2
        and accuracy >= 0.95
        and result.epochs_run < budget
        and baseline >= 0.98
        and abs(accuracy - baseline) <= 0.05
    )
    _verdict(
        4,
        "projected Levenberg–Marquardt reaches 0.95 held-out accuracy within budget",
        ok,
        f"acc {accuracy:.4f} >= 0.95 in {result.epochs_run} < {budget} epochs, stopped by "
        f"its tolerance, {elapsed * 1e3:.0f} ms, "
        f"finite={finite}, {rises} loss rises <= 2, baseline {baseline:.4f}, "
        f"gap {abs(accuracy - baseline):.4f} <= 0.05",
    )


def test_criterion_5_rescaling_invariance():
    base = load_network(example_model_path())
    grid = [(p / 4, r / 4) for p in range(5) for r in range(5)]
    worst = 0.0
    class_ok = True
    for net in (base, prune(base)):
        for k in (1e-6, 1e-3, 1e3):
            scaled = rescaled(net, k)
            for stimulus in grid:
                orig = infer_network(net, stimulus)
                new = infer_network(scaled, stimulus)
                class_ok &= classify(orig) == classify(new)
                for a, b in zip(orig, new):
                    if a != b:
                        worst = max(worst, _rel_err(a, b))
    ok = worst <= 1e-12 and class_ok
    _verdict(
        5,
        "rescaling (R*k, C/k) leaves potentials and classes unchanged",
        ok,
        f"max rel drift {worst:.3e} <= 1e-12, classes {'ok' if class_ok else 'CHANGED'}",
    )


def test_criterion_6_physics_properties():
    rng = np.random.Generator(np.random.PCG64(13))
    worst_perm = 0.0
    worst_linear = 0.0
    worst_energy = 0.0
    mono_ok = True
    argmax_ok = True

    net = load_network(example_model_path())
    for _ in range(200):
        # permutation invariance of the line sums in both phases
        unit = _random_unit(rng, 3)
        durations = duration_matrix([rng.uniform(0.0, 1.0, 3)], t_max=0.05)
        order = rng.permutation(4)
        g = unit.conductances
        worst_perm = max(
            worst_perm,
            _rel_err(
                float(forward(durations, g, 1.0).v[0, 0]),
                float(forward(durations[:, order], g[:, :, order], 1.0).v[0, 0]),
            ),
        )

        # supply-voltage linearity with argmax invariance
        stimulus = tuple(float(x) for x in rng.uniform(0.0, 1.0, 2))
        alpha = float(rng.uniform(0.3, 3.0))
        base_pots = infer_network(net, stimulus)
        alt = replace(net, supply_voltage=net.supply_voltage * alpha)
        alt_pots = infer_network(alt, stimulus)
        worst_linear = max(
            worst_linear, *(_rel_err(a * alpha, b) for a, b in zip(base_pots, alt_pots))
        )
        argmax_ok &= classify(base_pots) == classify(alt_pots)

        # charge/discharge monotonicity and bounds: line 0 charges the
        # capacitor to v0, then line 1 charges ("up") or drains ("down") it
        r = float(10.0 ** rng.uniform(3, 6))
        tau = r * 1e-6
        v0 = float(rng.uniform(0.0, 1.0))
        t0 = -tau * math.log1p(-v0)
        steps = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 0.02, 5))])
        precharge = (0, "excitatory")
        up = {precharge: r, (1, "excitatory"): r}
        down = {precharge: r, (1, "inhibitory"): r}
        t_max = t0 + steps[-1]
        pair = Network(("up", "down"), wiring(2, up, down), 1e-6, t_max=t_max)
        curves = infer_batch(pair, [(t0 / t_max, dt / t_max) for dt in steps])
        ups, downs = curves[:, 0], curves[:, 1]
        mono_ok &= bool(
            (np.diff(ups) >= 0).all() and ups[-1] <= 1.0
            and (np.diff(downs) <= 0).all() and downs[-1] >= 0.0
        )

        # charge-phase energy vs the analytic resistor integrals: line 0
        # charges from rest to v_start through r0, line 1 from v_start on
        v_start = float(rng.uniform(0.0, 0.9))
        v_in = float(rng.uniform(max(v_start, 0.1) + 0.05, 2.0))
        duration = float(rng.uniform(1e-4, 0.1))
        r0 = float(10.0 ** rng.uniform(3, 6))
        tau0 = r0 * 1e-6
        t0 = -tau0 * math.log1p(-v_start / v_in)
        lines = wiring(2, {(0, "excitatory"): r0, (1, "excitatory"): r})
        t_max = max(t0, duration)
        charged = Network(("u",), lines, 1e-6, supply_voltage=v_in, t_max=t_max)
        report = energy_per_inference(charged, (t0 / t_max, duration / t_max))
        analytic = v_in**2 / r0 * (tau0 / 2.0) * -math.expm1(-2.0 * t0 / tau0) + (
            (v_in - v_start) ** 2 / r * (tau / 2.0) * -math.expm1(-2.0 * duration / tau)
        )
        worst_energy = max(worst_energy, _rel_err(report.dissipated_energy, analytic))

    report = energy_per_inference(net, (0.4, 0.6))
    worst_energy = max(
        worst_energy,
        _rel_err(report.supply_energy, report.stored_energy + report.dissipated_energy),
    )

    ok = (
        worst_perm <= 1e-9
        and worst_linear <= 1e-9
        and argmax_ok
        and mono_ok
        and worst_energy <= 1e-9
    )
    _verdict(
        6,
        "permutation, linearity, monotonicity, and energy properties hold",
        ok,
        f"perm {worst_perm:.2e}, linear {worst_linear:.2e}, "
        f"mono {'ok' if mono_ok else 'BROKEN'}, energy {worst_energy:.2e}, all <= 1e-9",
    )


def test_criterion_7_hardware_model(monkeypatch):
    rounded = round_resistance(3230.0)
    net = load_network(example_model_path())
    quantized = quantize_network(net)
    means_ok = all(
        quantized.labels[classify(infer_network(quantized, mean))] == label
        for label, mean in CLASS_MEANS.items()
    )
    calls, kernel = [], hardware.infer_batch

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    # rows are computed as they are read: one kernel call per pitch row, counted on the
    # map's own binding, so the infer_network calls below are not
    monkeypatch.setattr(hardware, "infer_batch", counted)
    start = time.perf_counter()
    rows = list(response_map(net, 0.01))
    elapsed = time.perf_counter() - start
    exact = all(
        potentials == infer_network(net, (pitch, roll))
        for pitch, roll, potentials in rows
    )
    ok = rounded == 3000.0 and means_ok and len(calls) == 101 and exact and len(rows) == 101**2
    _verdict(
        7,
        "catalog rounding, quantized classes, and the response map hold up",
        ok,
        f"3230->{rounded:.0f}, means {'ok' if means_ok else 'WRONG'}, "
        f"{len(rows)} grid points in {len(calls)} kernel calls == 101, {elapsed * 1e3:.0f} ms, "
        f"exact={exact}",
    )


def test_criterion_8_inference_time_bound():
    from ifcirc import max_inference_time

    net = load_network(example_model_path())
    full = max_inference_time(net)
    lean = max_inference_time(prune(net))
    ok = math.isclose(full, 0.300, rel_tol=1e-9) and math.isclose(
        lean, 0.250, rel_tol=1e-9
    )
    _verdict(
        8,
        "worst-case inference time is 300 ms unpruned, 250 ms pruned",
        ok,
        f"unpruned {full * 1e3:.1f} ms, pruned {lean * 1e3:.1f} ms",
    )


def test_criterion_9_cli_determinism(tmp_path):
    import contextlib
    import io

    def run(argv, out_paths):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main([str(a) for a in argv])
        assert code == 0, f"{argv[0]} exited {code}"
        stdout = buffer.getvalue()
        for path in out_paths:
            stdout = stdout.replace(str(path), "OUT")
        return stdout, tuple(Path(p).read_bytes() for p in out_paths)

    data = tmp_path / "data.csv"
    run(["gen-data", "--n", 20, "--seed", 1, "--out", data], [data])

    def commands(tag):
        d = tmp_path / tag
        d.mkdir(exist_ok=True)
        return [
            (["gen-data", "--n", 20, "--seed", 5, "--out", d / "g.csv"], [d / "g.csv"]),
            (
                ["train", "--data", data, "--epochs", 40, "--out", d / "m.json",
                 "--loss-out", d / "l.csv"],
                [d / "m.json", d / "l.csv"],
            ),
            (
                ["eval", "--model", "bundled", "--data", data,
                 "--noise-sigma", 0.05, "--seed", 3],
                [],
            ),
            (["prune", "--model", "bundled", "--out", d / "p.json"], [d / "p.json"]),
            (["quantize", "--model", "bundled", "--out", d / "q.json"], [d / "q.json"]),
            (
                ["infer", "--model", "bundled", "--pitch", 0.2, "--roll", 0.7,
                 "--noise-sigma", 0.05, "--seed", 4],
                [],
            ),
            (
                ["response-map", "--model", "bundled", "--step", 0.2, "--out", d / "r.csv"],
                [d / "r.csv"],
            ),
            (
                ["energy", "--model", "bundled", "--pitch", 0.5, "--roll", 0.5,
                 "--out", d / "e.json"],
                [d / "e.json"],
            ),
            (["validate", "--trials", 2, "--seed", 11], []),
        ]

    mismatched = []
    for (argv_a, outs_a), (argv_b, outs_b) in zip(commands("a"), commands("b")):
        if run(argv_a, outs_a) != run(argv_b, outs_b):
            mismatched.append(argv_a[0])
    ok = not mismatched
    _verdict(
        9,
        "every CLI subcommand is byte-reproducible under a fixed seed",
        ok,
        "9 of 9 subcommands identical" if ok else f"diverged: {', '.join(mismatched)}",
    )
