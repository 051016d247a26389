"""Compare two result files run by run.py, per workload and metric.

Each side's runs of one workload give a median and quartiles per metric.
The ratio is the new median over the old one (the old median is the base).
A metric with a bound is "unresolved" when either side's interquartile
distance, as a share of its median, exceeds the bound; otherwise it is
"worse" when the new median is worse than the old by more than the bound,
and "within bound" when it is not.  Metrics without a bound get no verdict.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from .stats import quartiles, relative_spread


def load(path: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Metric values per (workload, trace), one value per run."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs[(record["workload"], record["trace"])][name].append(metric["value"])
    return runs


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """(new median / old median, verdict) for one metric of one workload."""
    old_median, new_median = quartiles(old)[1], quartiles(new)[1]
    if old_median == 0:
        ratio = 1.0 if new_median == 0 else float("inf")
    else:
        ratio = new_median / old_median
    if bound is None:
        return ratio, ""
    if relative_spread(old) > bound or relative_spread(new) > bound:
        return ratio, "unresolved"
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ratio, "worse" if worse_by > bound else "within bound"


def compare(old_path: Path, new_path: Path, metrics: list[dict]) -> None:
    """Print both sides per workload for every metric in ``metrics`` (name, unit, better, bound)."""
    old, new = load(old_path), load(new_path)
    specs = {m["name"]: m for m in metrics}
    print(f"old {old_path}  new {new_path}  ratio = new median / old median")
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(next(iter(old[key].values())))} old runs, "
              f"{len(next(iter(new[key].values())))} new runs")
        for name in old[key]:
            if name not in new[key] or name not in specs:
                continue
            spec = specs[name]
            a, b = old[key][name], new[key][name]
            ratio, word = verdict(a, b, spec["better"], spec.get("bound"))
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:42s} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {spec['unit']:6s} ratio {ratio:.4f} {word}")
