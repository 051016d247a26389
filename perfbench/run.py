#!/usr/bin/env python3
"""ifcirc benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Run from the root of a checkout.  Workloads: train, batch, stream, cli
(see ``workloads.py``).  One client runs one op at a time.  The seconds
set the number of rounds from each workload's nominal round length, so
two commits do the same work and a faster one finishes sooner.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the first half of the rounds untraced and the second
half with a span around every call into ifcirc.  It prints the per-layer
metrics, and its tracing overhead is the traced half's items per second
over the untraced half's.  Spans go to ``.perfbench_out/spans-*.jsonl.gz``.
Every run appends one record (metrics, design statistics, fingerprints
and environment) to ``--out``.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A failed correctness check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import compileall
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SETUP_PROBES = 7  # fresh processes per run whose set-up is timed; setup_s is their median
STARTUP_PROBES = 5
# End-to-end metrics printed and recorded but not gated in BENCHMARK.json.
# Op times on a shared two-core host move by up to 1.6x between stretches of
# contention that last minutes, beyond the largest bound a gate may use; a
# bound here only makes the compare mode call a difference unresolved.
# failed_ratio is zero on healthy runs; sim_inference_ms is a constant
# simulated time.
RECORDED_ONLY = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_ratio", "unit": "ratio", "better": "lower"},
    {"name": "sim_inference_ms", "unit": "ms", "better": "lower"},
]
CLI_COMMANDS = (
    "gen-data", "train", "eval", "prune", "quantize", "infer", "response-map", "energy", "validate",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train", "batch", "stream", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "results.jsonl",
                        help="result file; one JSON record is appended per run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two result files instead of running")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def require_checkout() -> None:
    """The program under test is the checkout's own src/ifcirc; never an installed copy."""
    missing = [p for p in ("src/ifcirc/__init__.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"error: {ROOT} is not an ifcirc checkout (missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ifcirc

    if Path(ifcirc.__file__).resolve().parent != ROOT / "src" / "ifcirc":
        raise SystemExit(f"error: imported ifcirc from {ifcirc.__file__}, not from {ROOT / 'src'}")


def build() -> None:
    """Byte-compile the sources so no timed process pays for compiling them."""
    if not compileall.compile_dir(ROOT / "src" / "ifcirc", quiet=1):
        raise SystemExit("error: cannot compile src/ifcirc")


def metric_table() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


def timed_startups(code: str) -> list[float]:
    """Wall seconds of fresh interpreters running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready-for-the-first-op, in fresh processes."""
    times = []
    argv = [sys.executable, str(SCRIPT), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe for {workload} failed")
        times.append(ready - start)
    return times


def run_phase(wl, runner, rounds: int, first: bool) -> None:
    for r in range(rounds):
        wl.run_round(runner, first and r == 0)


def layer_metrics(spans: dict, runner, untraced, interpreter: list[float], imports: list[float]) -> dict:
    """Per-layer metrics from the traced phase's spans and counters."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    def per_call(name, scale):
        return per(busy(name), calls(name), scale)

    c = runner.counters
    m = {
        "dataset.generate.busy_s": busy("dataset.generate"),
        "dataset.split.busy_s": busy("dataset.split"),
        "neuron.load_network.busy_s": busy("neuron.load_network"),
        "neuron.infer_network.calls": calls("neuron.infer_network"),
        "neuron.infer_network.us_per_call": per_call("neuron.infer_network", 1e6),
        "neuron.classify.us_per_call": per_call("neuron.classify", 1e6),
        "training.train.calls": calls("training.train"),
        "training.train.busy_s": busy("training.train"),
        "training.epochs": c["training.epochs"],
        "training.epoch_us": per(busy("training.train"), c["training.epochs"], 1e6),
        "training.early_stops": c["training.early_stops"],
        "training.target_hit_ratio": per(c["training.target_hits"], c["training.train_runs"]),
        "training.evaluate_accuracy.samples": c["training.evaluate_accuracy.samples"],
        "training.evaluate_accuracy.us_per_sample": per(
            busy("training.evaluate_accuracy"), c["training.evaluate_accuracy.samples"], 1e6
        ),
        "training.prune.busy_s": busy("training.prune"),
        "training.pruned_fraction": per(
            c["training.prune.before"] - c["training.prune.after"], c["training.prune.before"]
        ),
        "hardware.response_map.points": c["hardware.response_map.points"],
        "hardware.response_map.us_per_point": per(
            busy("hardware.response_map"), c["hardware.response_map.points"], 1e6
        ),
        "hardware.write_response_map_csv.bytes": c["hardware.write_response_map_csv.bytes"],
        "hardware.write_response_map_csv.busy_s": busy("hardware.write_response_map_csv"),
        "hardware.energy_per_inference.calls": calls("hardware.energy_per_inference"),
        "hardware.energy_per_inference.us_per_call": per_call("hardware.energy_per_inference", 1e6),
        "hardware.perturb_readout.us_per_call": per_call("hardware.perturb_readout", 1e6),
        "hardware.quantize_network.busy_s": busy("hardware.quantize_network"),
        "oracle.integrate_schedule.calls": calls("oracle.integrate_schedule"),
        "oracle.integrate_schedule.ms_per_call": per_call("oracle.integrate_schedule", 1e3),
        "oracle.steps_computed": c["oracle.steps_computed"],
        "oracle.max_rel_err": max(r.maxima.get("oracle.max_rel_err", 0.0) for r in (runner, untraced)),
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.import_ms": (statistics.median(imports) - statistics.median(interpreter)) * 1e3,
        "trace.untraced_items_per_s": untraced.items_per_s,
        "trace.traced_items_per_s": runner.items_per_s,
        "trace.overhead_ratio": per(runner.items_per_s, untraced.items_per_s),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.ms"] = per_call(f"cli.{command}", 1e3)
    return m


def run_workload(args) -> int:
    from perfbench.runner import Runner
    from perfbench.stats import latency_summary
    from perfbench.tracing import Tracer, bind
    from perfbench.workloads import WORKLOADS

    table = metric_table()
    cls = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / cls.round_seconds))
    tracer = Tracer() if args.trace else None
    untraced = Runner()
    wl = cls(ROOT, args.seed, bind(tracer))
    try:
        wl.api = bind(None)
        plain_rounds = rounds if tracer is None else (rounds + 1) // 2
        run_phase(wl, untraced, plain_rounds, first=True)
        runners = [untraced]
        if tracer is not None:
            runners.append(Runner(tracer))
            wl.api, wl.tracer = bind(tracer), tracer
            run_phase(wl, runners[1], max(1, rounds - plain_rounds), first=False)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        design = wl.design()
    finally:
        wl.close()

    failed = sum(len(r.failed) for r in runners)
    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "environment": environment(args.seed),
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runners),
        "failed": failed,
        "target_misses": len(untraced.missed),
        "check_messages": [m for r in runners for m in r.messages],
        "design": design,
        "fingerprints": wl.fingerprints,
        "op_ms": {kind: statistics.median(v) * 1e3 for kind, v in sorted(untraced.by_kind.items())},
    }
    if tracer is None:
        record["latency"] = latency_summary(untraced.latencies)
        values = {
            "setup_s": statistics.median(setup_seconds(args.workload, args.seed)),
            "items_per_s": untraced.items_per_s,
            "latency_p50_ms": record["latency"]["p50_ms"],
            "latency_tail_ms": record["latency"]["tail_ms"],
            "peak_rss_mb": peak_rss_mb,
            "failed_ratio": len(untraced.failed | untraced.missed) / untraced.attempted,
            **design,
        }
        listed = table["end_to_end"]
    else:
        spans = tracer.aggregate()
        startups = timed_startups("pass"), timed_startups("import ifcirc")
        values = layer_metrics(spans, runners[1], untraced, *startups)
        record["spans"] = spans
        listed = table["per_layer"]
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        spans_path.parent.mkdir(exist_ok=True)
        with gzip.open(spans_path, "wt") as fh:
            tracer.write(fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed + RECORDED_ONLY
        if m["name"] in values
    }
    gated = {m["name"]: record["metrics"][m["name"]] for m in listed}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_summary(record, gated)
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": gated}))
    return 0 if record["correct"] else 1


def print_summary(record: dict, gated: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"rounds {record['rounds']}")
    for name, m in record["metrics"].items():
        note = "" if name in gated else "  (recorded, not gated)"
        print(f"  {name} {m['value']!r} {m['unit']}{note}")
    if "latency" in record:
        lat = record["latency"]
        print(f"  latency_tail_ms is p{lat['tail_percentile']:g}: "
              f"{lat['tail_beyond']} of {lat['samples']} ops beyond it")
    print(f"  ops {record['attempted']}, failed checks {record['failed']}, "
          f"quality-target misses {record['target_misses']}")
    for name, span in sorted(record.get("spans", {}).items()):
        print(f"  span {name} calls {span['calls']} busy_s {span['busy_s']:.6f} self_s {span['self_s']:.6f}")
    for name, digest in record["fingerprints"].items():
        print(f"  sha256 {name} {digest}")
    for message in record["check_messages"]:
        print(f"  check failed: {message.splitlines()[0]}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("train", "batch", "stream", "cli"):
        argv = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 1}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result.get("metrics", {}).items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    if args.compare:
        from perfbench.compare import compare

        table = metric_table()
        compare(args.compare[0], args.compare[1], table["end_to_end"] + RECORDED_ONLY + table["per_layer"])
        return 0
    if args.setup_probe:
        from perfbench.tracing import bind
        from perfbench.workloads import WORKLOADS

        wl = WORKLOADS[args.workload](ROOT, args.seed, bind(None))
        print("ready", flush=True)
        wl.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    build()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
