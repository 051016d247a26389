"""The four workloads: train, batch, stream and cli.

Each workload builds its inputs from the benchmark seed in ``__init__``
(the set-up that ``setup_s`` times) and runs one round of ops per
``run_round`` call.  Rounds repeat the same inputs, so the first round
runs the full correctness checks and records the simulated design
statistics and fingerprints, and every later round must reproduce the
first round's outputs exactly.

The ifcirc functions a workload times are called through ``self.api``
(see ``tracing.bind``) so a traced run can put spans around them.  The
checks call ifcirc directly and stay out of the spans.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from ifcirc import (
    CLASS_MEANS,
    DatasetConfig,
    ResistorCatalog,
    TrainConfig,
    build_schedule,
    classify,
    energy_per_inference,
    energy_report_to_dict,
    evaluate_accuracy,
    example_model_path,
    infer_network,
    load_network,
    max_inference_time,
    prune,
    quantize_network,
    read_csv,
    save_network,
)

from .runner import Runner

ENERGY_TOLERANCE = 1e-12  # supply = stored + dissipated, relative
ORACLE_TOLERANCE = 1e-6  # closed form vs RK4 oracle, relative


def synapse_count(net) -> int:
    return sum(len(n.synapses) for n in net.neurons)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def report_bytes(report) -> bytes:
    return (json.dumps(energy_report_to_dict(report), sort_keys=True) + "\n").encode()


def energy_balanced(report) -> bool:
    residual = report.supply_energy - (report.stored_energy + report.dissipated_energy)
    return abs(residual) <= ENERGY_TOLERANCE * abs(report.supply_energy)


def recount(net, samples) -> int:
    """Correct classifications, counted independently of evaluate_accuracy."""
    labels = net.labels
    return sum(labels[classify(infer_network(net, (s.pitch, s.roll)))] == s.label for s in samples)


def uniform_points(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    return [(float(p), float(r)) for p, r in rng.random((n, 2))]


class Workload:
    name = ""
    round_seconds = 1.0  # nominal length of one round; sets the rounds per run

    def __init__(self, root: Path, seed: int, api) -> None:
        self.root = root
        self.seed = seed
        self.api = api
        self.tracer = None
        self.workdir = root / ".perfbench_out" / f"work-{self.name}-{os.getpid()}"
        self.stats: dict = {}  # simulated design statistics, from the first round
        self.fingerprints: dict[str, str] = {}

    def run_round(self, run: Runner, first: bool) -> None:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------- train ----


class Train(Workload):
    """12-seed initialization sweep on the default posture task."""

    name = "train"
    round_seconds = 5.4
    init_seeds = range(12)
    target = 0.95

    def __init__(self, root, seed, api):
        super().__init__(root, seed, api)
        samples = api.generate(DatasetConfig(300, 0.04, seed))
        self.train_set, self.test_set = api.split(samples, 0.8, seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.first: dict[int, tuple] = {}

    def _op(self, init_seed: int):
        api = self.api
        result = api.train(self.train_set, TrainConfig(seed=init_seed))
        accuracy = api.evaluate_accuracy(result.network, self.test_set)
        pruned = api.prune(result.network)
        quantized = api.quantize_network(pruned)
        return result, accuracy, pruned, quantized, api.evaluate_accuracy(quantized, self.test_set)

    def run_round(self, run, first):
        for init_seed in self.init_seeds:
            out = run.op("train", 1, self._op, init_seed)
            if out is None:
                continue
            result, accuracy, pruned, quantized, q_accuracy = out
            run.counters["training.train_runs"] += 1
            run.counters["training.epochs"] += result.epochs_run
            run.counters["training.early_stops"] += result.epochs_run < TrainConfig().epochs
            run.counters["training.evaluate_accuracy.samples"] += 2 * len(self.test_set)
            run.counters["training.prune.before"] += synapse_count(result.network)
            run.counters["training.prune.after"] += synapse_count(pruned)
            if accuracy >= self.target:
                run.counters["training.target_hits"] += 1
            else:
                run.miss()
            outcome = (result.network, accuracy, q_accuracy)
            if first:
                self._check_first(run, init_seed, outcome, pruned, quantized)
            else:
                run.check(outcome == self.first[init_seed], f"train seed {init_seed}: not reproduced")

    def _check_first(self, run, init_seed, outcome, pruned, quantized):
        network, accuracy, q_accuracy = outcome
        n = len(self.test_set)
        label = f"train seed {init_seed}"
        run.check(accuracy == recount(network, self.test_set) / n, f"{label}: accuracy != recount")
        q_hits = recount(quantized, self.test_set)
        run.check(q_accuracy == q_hits / n, f"{label}: quantized accuracy != recount")
        self.first[init_seed] = outcome
        model_path = self.workdir / f"model-{init_seed}.json"
        save_network(network, model_path)
        self.fingerprints[f"model_init_seed_{init_seed}"] = sha256_file(model_path)
        energies = [energy_per_inference(quantized, mean) for mean in CLASS_MEANS.values()]
        for report in energies:
            run.check(energy_balanced(report), f"{label}: supply != stored + dissipated")
        energy_json = b"".join(map(report_bytes, energies))
        self.fingerprints[f"energy_init_seed_{init_seed}"] = sha256_bytes(energy_json)
        self.stats.setdefault("accuracy", []).append(accuracy)
        self.stats.setdefault("kept", []).append(synapse_count(pruned))
        self.stats.setdefault("sim_inference_ms", []).append(max_inference_time(pruned) * 1e3)
        mean_supply = statistics.fmean(r.supply_energy for r in energies)
        self.stats.setdefault("energy_nj", []).append(mean_supply * 1e9)

    def design(self) -> dict:
        return {
            "heldout_accuracy": statistics.median(self.stats["accuracy"]),
            "pruned_synapses": statistics.median(self.stats["kept"]),
            "sim_inference_ms": statistics.median(self.stats["sim_inference_ms"]),
            "sim_energy_nj": statistics.median(self.stats["energy_nj"]),
        }


# ---------------------------------------------------------------- batch ----


class Batch(Workload):
    """Bulk analysis of the bundled model and its pruned form; no training."""

    name = "batch"
    round_seconds = 5.1
    eval_chunk = 500  # samples per evaluate op, per model
    energy_chunk = 500  # stimuli per energy op, per model
    grid_step = 0.005
    grid_points = 201 * 201  # both axes of the 0.005 grid, endpoints included
    grid_checks = 200

    def __init__(self, root, seed, api):
        super().__init__(root, seed, api)
        bundled = api.load_network(example_model_path())
        self.models = (bundled, api.prune(bundled))
        self.samples = api.generate(DatasetConfig(5000, 0.04, seed))
        rng = np.random.Generator(np.random.PCG64(seed))
        self.stimuli = uniform_points(rng, 2500)
        self.trials = uniform_points(rng, 5)
        self.grid_picks = [int(i) for i in rng.integers(0, self.grid_points, size=self.grid_checks)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.map_path = self.workdir / "map.csv"
        self.first: dict = {}

    def _evaluate(self, chunk):
        return tuple(self.api.evaluate_accuracy(net, chunk) for net in self.models)

    def _energy(self, stimuli):
        api = self.api
        return [api.energy_per_inference(net, x) for net in self.models for x in stimuli]

    def _oracle(self):
        api = self.api
        errors = []
        for net in self.models:
            for x in self.trials:
                schedule = api.build_schedule(x, net.t_max)
                exact = api.infer_network(net, x)
                for neuron, closed in zip(net.neurons, exact):
                    ode = api.integrate_schedule(neuron, schedule, net.supply_voltage)
                    errors.append(abs(closed - ode) / max(abs(closed), abs(ode), 1e-12))
        return errors

    def _map(self):
        rows = self.api.response_map(self.models[0], self.grid_step)
        self.api.write_response_map_csv(rows, self.models[0].labels, self.map_path)
        return rows

    def run_round(self, run, first):
        rows = run.op("response_map", self.grid_points, self._map)
        if rows is not None:
            self._check_map(run, rows, first)
        for start in range(0, len(self.samples), self.eval_chunk):
            chunk = self.samples[start : start + self.eval_chunk]
            out = run.op("evaluate", 2 * len(chunk), self._evaluate, chunk)
            if out is None:
                continue
            run.counters["training.evaluate_accuracy.samples"] += 2 * len(chunk)
            if first:
                hits = [recount(net, chunk) for net in self.models]
                run.check(list(out) == [h / len(chunk) for h in hits], f"evaluate chunk {start}: != recount")
                self.stats.setdefault("hits", []).append(hits[0])
                self.first[("evaluate", start)] = out
            else:
                run.check(out == self.first[("evaluate", start)], f"evaluate chunk {start}: not reproduced")
        for start in range(0, len(self.stimuli), self.energy_chunk):
            chunk = self.stimuli[start : start + self.energy_chunk]
            reports = run.op("energy", 2 * len(chunk), self._energy, chunk)
            if reports is None:
                continue
            run.check(all(map(energy_balanced, reports)), f"energy chunk {start}: unbalanced")
            supplies = [r.supply_energy for r in reports]
            if first:
                self.stats.setdefault("supply", []).extend(supplies)
                self.stats.setdefault("energy_bytes", []).extend(map(report_bytes, reports))
                self.first[("energy", start)] = supplies
            else:
                run.check(supplies == self.first[("energy", start)], f"energy chunk {start}: not reproduced")
        errors = run.op("oracle", 2 * len(self.trials), self._oracle)
        if errors is not None:
            run.counters["oracle.steps_computed"] += sum(
                oracle_steps(neuron, build_schedule(x, net.t_max))
                for net in self.models
                for x in self.trials
                for neuron in net.neurons
            )
            worst = max(errors)
            run.note_max("oracle.max_rel_err", worst)
            run.check(worst <= ORACLE_TOLERANCE, f"oracle relative error {worst!r} > {ORACLE_TOLERANCE}")

    def _check_map(self, run, rows, first):
        run.counters["hardware.response_map.points"] += len(rows)
        size = self.map_path.stat().st_size
        run.counters["hardware.write_response_map_csv.bytes"] += size
        digest = sha256_file(self.map_path)
        if not first:
            run.check(digest == self.fingerprints["response_map_csv"], "response map CSV not reproduced")
            return
        self.fingerprints["response_map_csv"] = digest
        net = self.models[0]
        for index in self.grid_picks:
            pitch, roll, potentials = rows[index]
            same = potentials == infer_network(net, (pitch, roll))
            run.check(same, f"response map row {index} != infer_network")

    def design(self) -> dict:
        self.fingerprints["energy_reports"] = sha256_bytes(b"".join(self.stats["energy_bytes"]))
        pruned = self.models[1]
        return {
            "heldout_accuracy": sum(self.stats["hits"]) / len(self.samples),
            "pruned_synapses": synapse_count(pruned),
            "sim_inference_ms": max_inference_time(pruned) * 1e3,
            "sim_energy_nj": statistics.fmean(self.stats["supply"]) * 1e9,
        }


def oracle_steps(neuron, schedule) -> int:
    """RK4 steps integrate_schedule takes at its default step (computed, not counted)."""
    synapses = neuron.synapse_map()
    if not synapses:
        return 0
    step = min(s.resistance for s in neuron.synapses) * neuron.capacitance / 1000.0
    steps = 0
    for slot in schedule.slots:
        if (slot.input_index, slot.polarity) in synapses and slot.duration > 0.0:
            full = int(slot.duration // step)
            steps += full + (slot.duration - full * step > 0.0)
    return steps


# --------------------------------------------------------------- stream ----


class Stream(Workload):
    """Readings classified one at a time on the bundled model, with readout noise."""

    name = "stream"
    round_seconds = 4.5
    sigma = 0.02
    fault_every = 1000  # every n-th reading comes from a sensor with a 5x gain fault

    def __init__(self, root, seed, api):
        super().__init__(root, seed, api)
        self.net = api.load_network(example_model_path())
        samples = api.generate(DatasetConfig(10000, 0.04, seed))
        rng = np.random.Generator(np.random.PCG64(seed))
        label_index = {label: i for i, label in enumerate(self.net.labels)}
        self.readings = []
        for i, k in enumerate(rng.permutation(len(samples))):
            s = samples[int(k)]
            x = (s.pitch, s.roll)
            if i % self.fault_every == 0:
                x = (5.0 * s.pitch - 0.1, 5.0 * s.roll - 0.1)  # out of [0, 1]: exercises the clamps
            self.readings.append((x, label_index[s.label]))
        self.first: list = []

    def _read(self, x, rng):
        api, net = self.api, self.net
        potentials = api.infer_network(net, x)
        v_max = net.supply_voltage
        noisy = [api.perturb_readout(v, self.sigma, rng, supply_voltage=v_max) for v in potentials]
        return potentials, api.classify(noisy), api.energy_per_inference(net, x)

    def run_round(self, run, first):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        outcomes = []
        digest = hashlib.sha256()
        for i, (x, label) in enumerate(self.readings):
            out = run.op("reading", 1, self._read, x, rng)
            if out is None:
                outcomes.append(None)
                continue
            potentials, predicted, report = out
            run.check(energy_balanced(report), f"reading {i}: supply != stored + dissipated")
            outcomes.append((predicted, report.supply_energy))
            if not first:
                run.check(outcomes[i] == self.first[i], f"reading {i}: not reproduced")
                continue
            digest.update(report_bytes(report))
            if i % self.fault_every == 0:
                clamped = tuple(min(max(v, 0.0), 1.0) for v in x)
                run.check(potentials == infer_network(self.net, clamped), f"reading {i}: clamp mismatch")
        if first:
            self.first = outcomes
            self.fingerprints["energy_reports"] = digest.hexdigest()

    def design(self) -> dict:
        hits = sum(o is not None and o[0] == label for o, (_x, label) in zip(self.first, self.readings))
        return {
            "heldout_accuracy": hits / len(self.readings),
            "pruned_synapses": synapse_count(prune(self.net)),
            "sim_inference_ms": max_inference_time(self.net) * 1e3,
            "sim_energy_nj": statistics.fmean(o[1] for o in self.first if o is not None) * 1e9,
        }


# ------------------------------------------------------------------ cli ----


def parse_lines(stdout: str) -> dict[str, str]:
    """``key value`` output lines; ``potential <label> v`` becomes ``potential <label>``."""
    parsed = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key == "potential":
            label, _, value = value.partition(" ")
            key = f"potential {label}"
        parsed[key] = value
    return parsed


class Cli(Workload):
    """Cold ``python -m ifcirc`` processes: the README flow, then repeated queries."""

    name = "cli"
    round_seconds = 7.5
    repeats = 10

    def __init__(self, root, seed, api):
        super().__init__(root, seed, api)
        self.net = api.load_network(example_model_path())
        samples = api.generate(DatasetConfig(300, 0.04, seed))
        self.expected_split = api.split(samples, 0.8, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.points = uniform_points(rng, self.repeats + 1)
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        self.env = dict(os.environ, PYTHONPATH=path)
        self.first: dict[int, str] = {}

    def commands(self) -> list[tuple[str, ...]]:
        p, r = (repr(v) for v in self.points[0])
        flow = [
            ("gen-data", "--n", "300", "--seed", str(self.seed), "--holdout", "0.2",
             "--out", "train.csv", "--holdout-out", "test.csv"),
            ("train", "--data", "train.csv", "--out", "model.json", "--loss-out", "loss.csv"),
            ("eval", "--model", "model.json", "--data", "test.csv"),
            ("prune", "--model", "model.json", "--out", "pruned.json"),
            ("quantize", "--model", "pruned.json", "--catalog", "e24", "--out", "quantized.json"),
            ("infer", "--model", "quantized.json", "--pitch", p, "--roll", r),
            ("response-map", "--model", "quantized.json", "--step", "0.01", "--out", "map.csv"),
            ("energy", "--model", "quantized.json", "--pitch", p, "--roll", r, "--out", "energy.json"),
            ("validate", "--model", "quantized.json", "--trials", "2", "--seed", str(self.seed)),
        ]
        for x in self.points[1:]:
            p, r = (repr(v) for v in x)
            flow.append(("infer", "--model", "bundled", "--pitch", p, "--roll", r))
            flow.append(("energy", "--model", "bundled", "--pitch", p, "--roll", r))
        return flow

    def _invoke(self, argv):
        if self.tracer is not None:
            self.tracer.open("cli." + argv[0])
        try:
            return subprocess.run(
                [sys.executable, "-m", "ifcirc", *argv],
                cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120,
            )
        finally:
            if self.tracer is not None:
                self.tracer.close()

    def run_round(self, run, first):
        artifacts = ("model.json", "pruned.json", "quantized.json", "map.csv", "energy.json")
        for i, argv in enumerate(self.commands()):
            proc = run.op(argv[0], 1, self._invoke, argv)
            if proc is None:
                continue
            if proc.returncode != 0:
                run.fail(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
                continue
            if first:
                self.first[i] = proc.stdout
                self._check_output(run, argv, parse_lines(proc.stdout))
            else:
                run.check(proc.stdout == self.first.get(i), f"{' '.join(argv)}: output not reproduced")
        for name in artifacts:
            digest = sha256_file(self.workdir / name)
            if first:
                self.fingerprints[name] = digest
            else:
                run.check(digest == self.fingerprints[name], f"{name} not reproduced")

    def _model(self, argv):
        model = argv[argv.index("--model") + 1]
        return self.net if model == "bundled" else load_network(self.workdir / model)

    def _check_output(self, run, argv, out):
        command, where = argv[0], self.workdir
        label = " ".join(argv)
        if command == "gen-data":
            train_set, test_set = self.expected_split
            run.check(read_csv(where / "train.csv") == train_set, f"{label}: train.csv != split(generate())")
            run.check(read_csv(where / "test.csv") == test_set, f"{label}: test.csv != split(generate())")
        elif command == "train":
            accuracy = evaluate_accuracy(load_network(where / "model.json"), read_csv(where / "train.csv"))
            run.check(float(out["train_accuracy"]) == accuracy, f"{label}: train_accuracy line")
        elif command == "eval":
            accuracy = evaluate_accuracy(self._model(argv), read_csv(where / "test.csv"))
            run.check(float(out["accuracy"]) == accuracy, f"{label}: accuracy line != in-process value")
            self.stats["accuracy"] = accuracy
        elif command == "prune":
            pruned = prune(load_network(where / "model.json"))
            run.check(load_network(where / "pruned.json") == pruned, f"{label}: pruned.json != prune(model)")
            run.check(int(out["synapses_after"]) == synapse_count(pruned), f"{label}: synapses_after line")
            self.stats["kept"] = synapse_count(pruned)
            self.stats["sim_inference_ms"] = float(out["max_inference_time_s"]) * 1e3
        elif command == "quantize":
            expected = quantize_network(load_network(where / "pruned.json"), ResistorCatalog("e24"))
            quantized = load_network(where / "quantized.json")
            run.check(quantized == expected, f"{label}: quantized.json != quantize_network")
        elif command == "infer":
            net = self._model(argv)
            x = (float(argv[argv.index("--pitch") + 1]), float(argv[argv.index("--roll") + 1]))
            potentials = infer_network(net, x)
            printed = [float(out[f"potential {name}"]) for name in net.labels]
            run.check(printed == potentials, f"{label}: potential lines != infer_network")
            run.check(out["class"] == net.labels[classify(potentials)], f"{label}: class line")
        elif command == "response-map":
            rows = (where / "map.csv").read_text().splitlines()[1:]
            net = self._model(argv)
            for line in rows[:: max(1, len(rows) // 100)]:
                pitch, roll, *potentials = map(float, line.split(","))
                same = potentials == infer_network(net, (pitch, roll))
                run.check(same, f"{label}: row {line!r} != infer_network")
            self.stats["map_rows"] = len(rows)
        elif command == "energy":
            x = (float(argv[argv.index("--pitch") + 1]), float(argv[argv.index("--roll") + 1]))
            report = energy_per_inference(self._model(argv), x)
            printed = tuple(float(out[f"{k}_energy_joules"]) for k in ("supply", "stored", "dissipated"))
            run.check(printed == (report.supply_energy, report.stored_energy, report.dissipated_energy),
                      f"{label}: energy lines != energy_per_inference")
            run.check(energy_balanced(report), f"{label}: supply != stored + dissipated")
            self.stats.setdefault("supply", []).append(report.supply_energy)
        elif command == "validate":
            worst = float(out["max_relative_error"])
            run.note_max("oracle.max_rel_err", worst)
            run.check(worst <= ORACLE_TOLERANCE, f"{label}: max_relative_error {worst!r}")

    def design(self) -> dict:
        return {
            "heldout_accuracy": self.stats["accuracy"],
            "pruned_synapses": self.stats["kept"],
            "sim_inference_ms": self.stats["sim_inference_ms"],
            "sim_energy_nj": statistics.fmean(self.stats["supply"]) * 1e9,
        }


WORKLOADS = {w.name: w for w in (Train, Batch, Stream, Cli)}
