"""Command-line front end.

Subcommands cover the full loop: gen-data, train, eval, prune, quantize,
infer, response-map, energy, validate.  Settings come from built-in
defaults, overlaid by an optional JSON config file (--config), overlaid by
explicit command-line flags.  The effective merged config is echoed on the
first output line so any run can be reproduced from its log.

Exit codes: 0 success, 1 user error (bad flags, bad files, bad values),
2 internal/validation failure (e.g. the oracle check exceeding tolerance).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import __version__, example_model_path
from .dataset import DatasetConfig, generate, read_csv, split, write_csv
from .hardware import (
    ResistorCatalog,
    energy_per_inference,
    energy_report_to_dict,
    max_inference_time,
    perturb_readout,
    quantize_network,
    response_map,
    write_response_map_csv,
)
from .neuron import build_schedule, classify, infer_batch, infer_network, load_network, save_network
from .oracle import DEFAULT_CONFIG, IntegratorConfig, integrate_schedule
from .training import (
    TrainConfig,
    evaluate_accuracy,
    prune,
    train,
    write_loss_csv,
)

_BUNDLED = "bundled"  # sentinel meaning "use the packaged example model"


def _echo_config(cfg: dict) -> None:
    print("config", json.dumps(cfg, sort_keys=True))


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags, rejecting unknown keys."""
    cfg = dict(defaults)
    if getattr(args, "config", None) is not None:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, key: str) -> None:
    if cfg[key] is None:
        raise ValueError(f"missing required setting --{key.replace('_', '-')}")


def _load_model(cfg: dict):
    _require(cfg, "model")
    path = example_model_path() if cfg["model"] == _BUNDLED else cfg["model"]
    return load_network(path)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ------------------------------ subcommands --------------------------------

_GEN_DEFAULTS = {
    "n": 300,
    "sigma": 0.04,
    "seed": 0,
    "out": "data.csv",
    "holdout": 0.0,
    "holdout_out": None,
}


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _GEN_DEFAULTS)
    _echo_config(cfg)
    ds_cfg = DatasetConfig(n_per_class=int(cfg["n"]), noise_sigma=cfg["sigma"], seed=int(cfg["seed"]))
    samples = generate(ds_cfg)
    holdout = cfg["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise ValueError(f"holdout fraction must be in [0, 1), got {holdout}")
    if holdout > 0.0:
        _require(cfg, "holdout_out")
        kept, held = split(samples, 1.0 - holdout, seed=int(cfg["seed"]))
        write_csv(kept, cfg["out"])
        write_csv(held, cfg["holdout_out"])
        print(f"wrote {len(kept)} rows to {cfg['out']}")
        print(f"wrote {len(held)} rows to {cfg['holdout_out']}")
    else:
        write_csv(samples, cfg["out"])
        print(f"wrote {len(samples)} rows to {cfg['out']}")
    return 0


# TrainConfig fields the train subcommand exposes; their defaults come from TrainConfig
_TRAIN_FIELDS = (
    "learning_rate", "epochs", "seed", "r_min", "r_max", "t_max", "capacitance", "supply_voltage",
)
_TRAIN_DEFAULTS = {
    "data": None,
    "out": "model.json",
    "loss_out": None,
    **{key: getattr(TrainConfig(), key) for key in _TRAIN_FIELDS},
}


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _TRAIN_DEFAULTS)
    _echo_config(cfg)
    _require(cfg, "data")
    samples = read_csv(cfg["data"])
    # each value takes its default's type: int for epochs and seed, float for the rest
    train_cfg = TrainConfig(**{key: type(_TRAIN_DEFAULTS[key])(cfg[key]) for key in _TRAIN_FIELDS})
    result = train(samples, train_cfg)
    save_network(result.network, cfg["out"])
    if cfg["loss_out"] is not None:
        write_loss_csv(result.loss_history, cfg["loss_out"])
    print(f"epochs_run {result.epochs_run}")
    print(f"final_loss {result.loss_history[-1]!r}")
    print(f"train_accuracy {evaluate_accuracy(result.network, samples)!r}")
    print(f"wrote model to {cfg['out']}")
    return 0


_EVAL_DEFAULTS = {"model": None, "data": None, "noise_sigma": 0.0, "seed": 0}


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _EVAL_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    _require(cfg, "data")
    samples = read_csv(cfg["data"])
    sigma = cfg["noise_sigma"]
    if sigma == 0.0:
        accuracy = evaluate_accuracy(net, samples)
    else:
        rng = _rng(int(cfg["seed"]))
        labels = net.labels
        correct = 0
        clean = infer_batch(net, [(s.pitch, s.roll) for s in samples]).tolist()
        # noise is drawn sample by sample, neuron by neuron: the seed's stream order
        for s, potentials in zip(samples, clean):
            noisy = [
                perturb_readout(p, sigma, rng, supply_voltage=net.supply_voltage)
                for p in potentials
            ]
            correct += labels[classify(noisy)] == s.label
        accuracy = correct / len(samples)
    print(f"samples {len(samples)}")
    print(f"accuracy {accuracy!r}")
    return 0


_PRUNE_DEFAULTS = {
    "model": None,
    "out": "pruned.json",
    "r_max": 1e6,
    "threshold_fraction": 0.999,
}


def _cmd_prune(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _PRUNE_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    pruned = prune(net, r_max=cfg["r_max"], threshold_fraction=cfg["threshold_fraction"])
    before = sum(len(n.synapses) for n in net.neurons)
    after = sum(len(n.synapses) for n in pruned.neurons)
    save_network(pruned, cfg["out"])
    print(f"synapses_before {before}")
    print(f"synapses_after {after}")
    print(f"max_inference_time_s {max_inference_time(pruned)!r}")
    print(f"wrote model to {cfg['out']}")
    return 0


_QUANTIZE_DEFAULTS = {
    "model": None,
    "out": "quantized.json",
    "catalog": "one_significant_digit",
    "catalog_values": None,  # comma-separated ohms, only for --catalog custom
}


def _cmd_quantize(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _QUANTIZE_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    if cfg["catalog"] == "custom":
        raw = cfg["catalog_values"]
        if not raw:
            raise ValueError("--catalog custom needs --catalog-values")
        values = tuple(float(v) for v in str(raw).split(","))
        catalog = ResistorCatalog(mode="custom", values=values)
    else:
        catalog = ResistorCatalog(mode=cfg["catalog"])
    quantized = quantize_network(net, catalog)
    save_network(quantized, cfg["out"])
    changed = sum(
        1
        for before, after in zip(net.neurons, quantized.neurons)
        for s_before, s_after in zip(before.synapses, after.synapses)
        if s_before.resistance != s_after.resistance
    )
    print(f"synapses_changed {changed}")
    print(f"wrote model to {cfg['out']}")
    return 0


_INFER_DEFAULTS = {"model": None, "pitch": None, "roll": None, "noise_sigma": 0.0, "seed": 0}


def _cmd_infer(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _INFER_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    _require(cfg, "pitch")
    _require(cfg, "roll")
    potentials = infer_network(net, (cfg["pitch"], cfg["roll"]))
    if cfg["noise_sigma"] > 0.0:
        rng = _rng(int(cfg["seed"]))
        potentials = [
            perturb_readout(p, cfg["noise_sigma"], rng, supply_voltage=net.supply_voltage)
            for p in potentials
        ]
    for label, potential in zip(net.labels, potentials):
        print(f"potential {label} {potential!r}")
    print(f"class {net.labels[classify(potentials)]}")
    return 0


_MAP_DEFAULTS = {"model": None, "step": 0.01, "out": "response_map.csv"}


def _cmd_response_map(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _MAP_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    rows = response_map(net, cfg["step"])
    write_response_map_csv(rows, net.labels, cfg["out"])
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


_ENERGY_DEFAULTS = {"model": None, "pitch": None, "roll": None, "out": None}


def _cmd_energy(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _ENERGY_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    _require(cfg, "pitch")
    _require(cfg, "roll")
    report = energy_per_inference(net, (cfg["pitch"], cfg["roll"]))
    print(f"supply_energy_joules {report.supply_energy!r}")
    print(f"stored_energy_joules {report.stored_energy!r}")
    print(f"dissipated_energy_joules {report.dissipated_energy!r}")
    print(f"max_inference_time_s {max_inference_time(net)!r}")
    if cfg["out"] is not None:
        payload = {"schema_version": 1, **energy_report_to_dict(report)}
        with open(cfg["out"], "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote report to {cfg['out']}")
    return 0


_VALIDATE_DEFAULTS = {
    "model": _BUNDLED,
    "trials": 100,
    "seed": 0,
    "tolerance": 1e-6,
    "step_divisor": 1000.0,
}


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _VALIDATE_DEFAULTS)
    _echo_config(cfg)
    net = _load_model(cfg)
    rng = _rng(int(cfg["seed"]))
    worst = 0.0
    for _ in range(int(cfg["trials"])):
        stimulus = tuple(float(x) for x in rng.random(net.n_inputs))
        schedule = build_schedule(stimulus, net.t_max)
        exact = infer_network(net, stimulus)
        for neuron, closed in zip(net.neurons, exact):
            tau_min = min(
                (s.resistance * neuron.capacitance for s in neuron.synapses), default=1.0
            )
            ode_cfg = IntegratorConfig(step=tau_min / cfg["step_divisor"], method="rk4")
            ode = integrate_schedule(neuron, schedule, net.supply_voltage, ode_cfg)
            err = abs(closed - ode) / max(abs(closed), abs(ode), 1e-12)
            worst = max(worst, err)
    print(f"trials {int(cfg['trials'])}")
    print(f"max_relative_error {worst!r}")
    print(f"tolerance {cfg['tolerance']!r}")
    if worst > cfg["tolerance"]:
        print("validation FAILED", file=sys.stderr)
        return 2
    print("validation ok")
    return 0


# -------------------------------- parser ------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of settings; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifcirc",
        description="Simulate, train, and analyze switched-RC integrate-and-fire classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("gen-data", help="generate a synthetic posture dataset CSV")
    _add_common(p)
    p.add_argument("--n", type=int, help="samples per class (default 300)")
    p.add_argument("--sigma", type=float, help="gaussian noise sigma (default 0.04)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default data.csv)")
    p.add_argument("--holdout", type=float, help="fraction held out to a second CSV (default 0)")
    p.add_argument("--holdout-out", help="path for the held-out CSV")
    p.set_defaults(func=_cmd_gen_data)

    p = subs.add_parser("train", help="train resistances by gradient descent")
    _add_common(p)
    p.add_argument("--data", help="training CSV")
    p.add_argument("--out", help="output model JSON (default model.json)")
    p.add_argument("--loss-out", help="optional epoch,loss CSV")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--r-min", type=float, help="resistance floor, ohms")
    p.add_argument("--r-max", type=float, help="resistance ceiling, ohms")
    p.add_argument("--t-max", type=float, help="full-scale stimulation time, seconds")
    p.add_argument("--capacitance", type=float, help="membrane capacitance, farads")
    p.add_argument("--supply-voltage", type=float)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="classification accuracy of a model on a CSV")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--data", help="evaluation CSV")
    p.add_argument("--noise-sigma", type=float, help="gaussian readout noise (default 0)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("prune", help="drop synapses stuck at the resistance ceiling")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--out", help="output model JSON (default pruned.json)")
    p.add_argument("--r-max", type=float, help="training ceiling, ohms (default 1e6)")
    p.add_argument("--threshold-fraction", type=float, help="prune at fraction of r-max (default 0.999)")
    p.set_defaults(func=_cmd_prune)

    p = subs.add_parser("quantize", help="snap resistances to a parts catalog")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--out", help="output model JSON (default quantized.json)")
    p.add_argument(
        "--catalog",
        choices=["one_significant_digit", "e12", "e24", "custom"],
        help="catalog mode (default one_significant_digit)",
    )
    p.add_argument("--catalog-values", help="comma-separated ohms for --catalog custom")
    p.set_defaults(func=_cmd_quantize)

    p = subs.add_parser("infer", help="classify a single (pitch, roll) input")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--pitch", type=float)
    p.add_argument("--roll", type=float)
    p.add_argument("--noise-sigma", type=float, help="gaussian readout noise (default 0)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_infer)

    p = subs.add_parser("response-map", help="potentials over the full input grid, as CSV")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--step", type=float, help="grid step in [0,1] (default 0.01)")
    p.add_argument("--out", help="output CSV (default response_map.csv)")
    p.set_defaults(func=_cmd_response_map)

    p = subs.add_parser("energy", help="energy drawn/stored/dissipated for one inference")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path, or '{_BUNDLED}'")
    p.add_argument("--pitch", type=float)
    p.add_argument("--roll", type=float)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_energy)

    p = subs.add_parser("validate", help="check closed-form inference against the ODE oracle")
    _add_common(p)
    p.add_argument("--model", help=f"model JSON path (default '{_BUNDLED}')")
    p.add_argument("--trials", type=int, help="random stimuli to test (default 100)")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float, help="max relative error (default 1e-6)")
    p.add_argument("--step-divisor", type=float, help="oracle step = tau_min / divisor")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are user errors here
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
