"""Command-line front end.

Subcommands cover the full loop: gen-data, train, eval, prune, quantize,
infer, response-map, energy, validate.  Each subcommand's settings live in
one table (``_COMMANDS``): a setting is ``(key, type, default, help)``, and
the table is the grammar of the command line (``command --key-with-dashes
value …``), the help page with each default, the defaults themselves and the
one type check that config-file values and flags both pass.  Settings come
from those defaults, overlaid by an optional JSON config file (--config),
overlaid by explicit command-line flags.  The effective merged config is
echoed on the first output line so any run can be reproduced from its log.
``main`` then refuses any unset setting named in ``_REQUIRED``, reads the
command's inputs (the model, then the --data CSV) and hands them to the
subcommand, which only computes and writes.

Exit codes: 0 success (``--help`` and ``--version`` too), 1 user error (bad
flags, bad files, bad values: every refusal is one ``error: …`` line, and a
flag is spelled in full) or a stdout whose reader has gone (nothing more is
printed), 2 internal/validation failure (e.g. the oracle check exceeding
tolerance).
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, example_model_path
from ._pcg import PCG64
from .dataset import (
    DatasetConfig,
    PostureSample,
    _check_integer,
    _check_real,
    _write_json,
    generate,
    json_value,
    read_csv,
    split,
    text_value,
    write_csv,
)
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
from .neuron import (
    Network,
    build_schedule,
    classify,
    infer_network,
    load_network,
    save_network,
)
from .oracle import STEP_DIVISOR, integrate_schedule
from .training import (
    TrainConfig,
    evaluate_accuracy,
    prune,
    train,
    write_loss_csv,
)

_BUNDLED = "bundled"  # sentinel meaning "use the packaged example model"
_REQUIRED = ("data", "model", "pitch", "roll")  # settings a command needs that have no default


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge_config(texts: dict, settings: Sequence[tuple]) -> dict:
    """defaults <- config file <- explicit flags, rejecting unknown keys and mistyped values.

    A config-file value must match its setting's type (an integer also
    passes as a float); null passes only where the default is unset.  A flag's
    text, ``texts[key]``, is converted by its setting's type,
    and then checked by the same rule under the flag's name.  Settings are
    checked in the command's order, so the first bad one is named wherever
    it was given.
    """
    cfg = {key: default for key, _, default, _ in settings if key != "config"}
    file_cfg, path = {}, texts.pop("config", None)  # --config names a file of settings, no setting
    if path is not None:
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
                raise ValueError(f"config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, kind, default, _ in settings:
        if key in file_cfg and (file_cfg[key] is not None or default is not None):
            cfg[key] = json_value(file_cfg[key], kind, f"config key {key}")
        if key in texts:
            cfg[key] = text_value(texts[key], kind, _flag(key))
    return cfg


def _require(cfg: dict, key: str) -> None:
    if cfg[key] is None:
        raise ValueError(f"missing required setting {_flag(key)}")


# ------------------------------ subcommands --------------------------------


def _cmd_gen_data(cfg: dict) -> int:
    config = DatasetConfig(n_per_class=cfg["n"], noise_sigma=cfg["sigma"], seed=cfg["seed"])
    holdout = cfg["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise ValueError(f"holdout fraction must be in [0, 1), got {holdout}")
    if holdout > 0.0:
        _require(cfg, "holdout_out")
    samples = generate(config)  # after every check: a large n takes seconds
    outputs = [(samples, cfg["out"])]
    if holdout > 0.0:
        kept, held = split(samples, 1.0 - holdout, seed=cfg["seed"])
        outputs = [(kept, cfg["out"]), (held, cfg["holdout_out"])]
    for rows, path in outputs:
        write_csv(rows, path)
    for rows, path in outputs:
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_train(cfg: dict, samples: list[PostureSample]) -> int:
    train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})
    result = train(samples, train_cfg)
    save_network(result.network, cfg["out"])
    if cfg["loss_out"] is not None:
        write_loss_csv(result.loss_history, cfg["loss_out"])
    print(f"epochs_run {result.epochs_run}")
    print(f"final_loss {result.loss_history[-1]!r}")
    print(f"train_accuracy {evaluate_accuracy(result.network, samples)!r}")
    print(f"wrote model to {cfg['out']}")
    return 0


def _cmd_eval(cfg: dict, net: Network, samples: list[PostureSample]) -> int:
    # readout noise is numpy's normal; a noiseless run leaves numpy.random unloaded
    rng = np.random.default_rng(cfg["seed"]) if cfg["noise_sigma"] != 0.0 else None
    accuracy = evaluate_accuracy(net, samples, noise_sigma=cfg["noise_sigma"], rng=rng)
    print(f"samples {len(samples)}")
    print(f"accuracy {accuracy!r}")
    return 0


def _cmd_prune(cfg: dict, net: Network) -> int:
    pruned = prune(net, r_max=cfg["r_max"])
    before, after = (np.count_nonzero(np.isfinite(n.resistances)) for n in (net, pruned))
    save_network(pruned, cfg["out"])
    print(f"synapses_before {before}")
    print(f"synapses_after {after}")
    print(f"max_inference_time_s {max_inference_time(pruned)!r}")
    print(f"wrote model to {cfg['out']}")
    return 0


def _cmd_quantize(cfg: dict, net: Network) -> int:
    raw = cfg["catalog_values"]
    pieces = () if raw is None else raw.split(",")
    values = tuple(text_value(piece, float, "--catalog-values") for piece in pieces)
    if cfg["catalog"] == "custom" and not values:
        raise ValueError("--catalog custom needs --catalog-values")
    catalog = ResistorCatalog(mode=cfg["catalog"], values=values)
    quantized = quantize_network(net, catalog)
    changed = np.count_nonzero(net.resistances != quantized.resistances)
    save_network(quantized, cfg["out"])
    print(f"synapses_changed {changed}")
    print(f"wrote model to {cfg['out']}")
    return 0


def _cmd_infer(cfg: dict, net: Network) -> int:
    potentials = infer_network(net, (cfg["pitch"], cfg["roll"]))
    if cfg["noise_sigma"] != 0.0:
        potentials = perturb_readout(
            np.array(potentials), cfg["noise_sigma"], np.random.default_rng(cfg["seed"]),
            supply_voltage=net.supply_voltage,
        ).tolist()
    for label, potential in zip(net.labels, potentials):
        print(f"potential {label} {potential!r}")
    print(f"class {net.labels[classify(potentials)]}")
    return 0


def _cmd_response_map(cfg: dict, net: Network) -> int:
    rows = response_map(net, cfg["step"])
    write_response_map_csv(rows, net.labels, cfg["out"])
    print(f"wrote {len(rows)} rows to {cfg['out']}")
    return 0


def _cmd_energy(cfg: dict, net: Network) -> int:
    report = energy_report_to_dict(energy_per_inference(net, (cfg["pitch"], cfg["roll"])))
    if cfg["out"] is not None:  # write first: a failed write prints no result
        _write_json(cfg["out"], {"schema_version": 1, **report})
    for key, joules in report.items():
        if key != "per_neuron":
            print(f"{key} {joules!r}")
    print(f"max_inference_time_s {max_inference_time(net)!r}")
    if cfg["out"] is not None:
        print(f"wrote report to {cfg['out']}")
    return 0


def _cmd_validate(cfg: dict, net: Network) -> int:
    _check_integer("trials", cfg["trials"], 1)
    _check_real("tolerance", cfg["tolerance"], zero=True)
    rng = PCG64(cfg["seed"])
    worst = 0.0
    for _ in range(cfg["trials"]):
        stimulus = tuple(float(x) for x in rng.random(net.n_inputs))
        schedule = build_schedule(stimulus, net.t_max)
        exact = infer_network(net, stimulus)
        for neuron, closed in zip(net.neurons, exact):
            ode = integrate_schedule(neuron, schedule, net.supply_voltage, cfg["step_divisor"])
            err = abs(closed - ode) / max(abs(closed), abs(ode), 1e-12)
            worst = max(worst, err)
    print(f"trials {cfg['trials']}")
    print(f"max_relative_error {worst!r}")
    print(f"tolerance {cfg['tolerance']!r}")
    if worst > cfg["tolerance"]:
        print("validation FAILED", file=sys.stderr)
        return 2
    print("validation ok")
    return 0


# ------------------------------- settings -----------------------------------

_MODEL = ("model", str, None, f"model JSON path, or '{_BUNDLED}'")
_SEED = ("seed", int, 0, "random seed")
_NOISE = ("noise_sigma", float, 0.0, "gaussian readout noise, volts")
_PITCH = ("pitch", float, None, "pitch input")
_ROLL = ("roll", float, None, "roll input")
_TRAIN = TrainConfig()
_CONFIG = ("config", str, None, "JSON file of settings; flags override it")

# command -> (help, handler, settings); a setting is (key, type, default, help)
_COMMANDS = {
    "gen-data": ("generate a synthetic posture dataset CSV", _cmd_gen_data, (
        ("n", int, 300, "samples per class"),
        ("sigma", float, DatasetConfig.noise_sigma, "gaussian noise sigma"),
        _SEED,
        ("out", str, "data.csv", "output CSV path"),
        ("holdout", float, 0.0, "fraction held out to a second CSV"),
        ("holdout_out", str, None, "path for the held-out CSV"),
    )),
    "train": ("train resistances by Levenberg-Marquardt on MSE plus supply energy", _cmd_train, (
        ("data", str, None, "training CSV"),
        ("out", str, "model.json", "output model JSON"),
        ("loss_out", str, None, "optional epoch,loss CSV"),
        ("epochs", int, _TRAIN.epochs, "budget of accepted iterations"),
        ("seed", int, _TRAIN.seed, "initialization seed"),
        ("r_min", float, _TRAIN.r_min, "resistance floor, ohms: the smallest part available"),
        ("r_max", float, _TRAIN.r_max, "resistance ceiling, ohms: the largest part available"),
        ("t_max", float, _TRAIN.t_max, "full-scale stimulation time, seconds"),
        ("capacitance", float, _TRAIN.capacitance, "membrane capacitance, farads"),
        ("supply_voltage", float, _TRAIN.supply_voltage, "supply voltage, volts"),
        ("energy_weight", float, _TRAIN.energy_weight,
         "weight of the supply-energy term mean(V_e) / v_in in the loss; 0: MSE alone"),
        ("target_high", float, _TRAIN.target_high,
         "true-class target potential, volts, <= supply voltage; unset: 0.6 x supply voltage"),
    )),
    "eval": ("classification accuracy of a model on a CSV", _cmd_eval, (
        _MODEL, ("data", str, None, "evaluation CSV"), _NOISE, _SEED,
    )),
    "prune": ("drop synapses stuck at the resistance ceiling", _cmd_prune, (
        _MODEL,
        ("out", str, "pruned.json", "output model JSON"),
        ("r_max", float, _TRAIN.r_max, "resistance ceiling, ohms: the model's train --r-max"),
    )),
    "quantize": ("snap resistances to a parts catalog", _cmd_quantize, (
        _MODEL,
        ("out", str, "quantized.json", "output model JSON"),
        ("catalog", str, ResistorCatalog.mode,
         "catalog mode: one_significant_digit, e12, e24 or custom"),
        ("catalog_values", str, None, "comma-separated ohms for --catalog custom"),
    )),
    "infer": ("classify a single (pitch, roll) input", _cmd_infer, (
        _MODEL, _PITCH, _ROLL, _NOISE, _SEED,
    )),
    "response-map": ("potentials over the full input grid, as CSV", _cmd_response_map, (
        _MODEL,
        ("step", float, 0.01, "grid step in (0, 1]"),
        ("out", str, "response_map.csv", "output CSV"),
    )),
    "energy": ("energy drawn/stored/dissipated for one inference", _cmd_energy, (
        _MODEL, _PITCH, _ROLL, ("out", str, None, "optional JSON report path"),
    )),
    "validate": ("check closed-form inference against the ODE oracle", _cmd_validate, (
        ("model", str, _BUNDLED, "model JSON path"),
        ("trials", int, 100, "random stimuli to test"),
        _SEED,
        ("tolerance", float, 1e-6, "max relative error"),
        ("step_divisor", float, STEP_DIVISOR, "oracle steps per time constant of each slot"),
    )),
}


def read_flags(words: Sequence[str], prog: str, summary: str, settings: Sequence[tuple], run) -> int:
    """``run(cfg)``'s exit code, ``cfg`` read from the ``--flag value`` words by ``settings``.

    Each setting ``(key, type, default, help)`` is the flag ``--key-with-dashes``, spelled in
    full, whose value is ``--flag=value`` or the next word, whatever it starts with but a flag.
    ``-h`` or ``--help`` prints ``prog``'s page of every flag and its default, and returns 0.
    ``cfg`` is ``_merge_config``'s.  A ValueError, OSError or MemoryError, met reading the words
    or in ``run``, is one ``error: …`` line on stderr and exit 1, and a stdout whose reader has
    gone ends the run with exit 1 and nothing more printed.  ``main`` reads every command line
    here, and so do the experiment scripts, each by its own table.
    """
    names = {_flag(key): key for key, *_ in settings}
    flags = {_flag(key) for _, _, table in _COMMANDS.values() for key, *_ in (_CONFIG, *table)}
    try:
        texts, stray, rest = {}, [], iter(words)
        for word in rest:
            if word in ("-h", "--help"):
                rows = [("-h, --help", "show this help message and exit")] + [
                    (_flag(key), text + ("" if default is None else f" (default {default})"))
                    for key, _, default, text in settings]
                print(f"usage: {prog} [--flag value ...]\n\n{summary}\n\noptions:",
                      *(f"  {name:<18}  {text}" for name, text in rows), sep="\n")
                return 0
            name, equals, text = word.partition("=")
            if name not in names:
                stray.append(word)
                continue
            if not equals:  # the next word is the value, whatever it starts with, but no flag
                text = next(rest, None)
                if text is None or text in flags | names.keys():
                    raise ValueError(f"argument {name}: expected one argument")
            texts[names[name]] = text
        if stray:
            raise ValueError(f"unrecognized arguments: {' '.join(stray)}")
        code = run(_merge_config(texts, settings))
        sys.stdout.flush()  # a reader that has gone is found here, not as Python exits
        return code
    except BrokenPipeError:  # stdout's reader has gone: nothing more can reach it
        pass
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an input size no array holds
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()  # an earlier line may still wait for a reader that has gone
            return 1
        except BrokenPipeError:
            pass
    devnull = os.open(os.devnull, os.O_WRONLY)  # the exit's flush of stdout then succeeds
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    command, *words = list(sys.argv[1:] if argv is None else argv) or [None]
    summary, handler, settings = _COMMANDS.get(command, (None, None, ()))
    def run(cfg: dict) -> int:  # a first word that names no command ends here, before any flag
        if command in ("-h", "--help"):
            print("usage: ifcirc [--version] command [--flag value ...]\n\nSimulate, train, and "
                  "analyze switched-RC integrate-and-fire classifiers.\n\ncommands:",
                  *(f"  {name:<18}  {text}" for name, (text, *_) in _COMMANDS.items()), sep="\n")
            return 0
        if command == "--version":
            print(f"ifcirc {__version__}")
            return 0
        if handler is None:
            choices = ", ".join(map(repr, _COMMANDS))
            raise ValueError("the following arguments are required: command" if command is None else
                             f"argument command: invalid choice: {command!r} (choose from {choices})")
        print("config", json.dumps(cfg, sort_keys=True))
        # eval and infer draw from --seed only for readout noise: checked here, a negative
        # seed is refused whether or not a run draws from it
        if "seed" in cfg:
            _check_integer("seed", cfg["seed"], 0)
        outputs = {}  # the file each output setting names -> the first setting that names it
        for key in cfg:  # in the command's order, and before any file is read
            if key in _REQUIRED:
                _require(cfg, key)
            if (key == "out" or key.endswith("_out")) and cfg[key] is not None:
                out = Path(cfg[key])
                first = outputs.setdefault(out.resolve(), key)
                if first != key:  # the second write would overwrite the first
                    raise ValueError(
                        f"{_flag(first)} {cfg[first]} and {_flag(key)} {cfg[key]} name one file")
                if not out.parent.is_dir():  # found now, not at the write after the work
                    raise ValueError(f"{_flag(key)} {cfg[key]}: no directory {out.parent}")
        inputs = []
        if "model" in cfg:
            path = example_model_path() if cfg["model"] == _BUNDLED else cfg["model"]
            inputs.append(load_network(path))
        if "data" in cfg:
            inputs.append(read_csv(cfg["data"]))
        return handler(cfg, *inputs)
    return read_flags(words if handler else [], f"ifcirc {command}", summary, (_CONFIG, *settings), run)


if __name__ == "__main__":
    raise SystemExit(main())
