"""Synthetic dog-posture dataset: tilt vectors with Gaussian noise.

Each class is a fixed mean (pitch, roll) tilt vector; samples are the mean
plus iid per-axis Gaussian noise.  The yaw axis is irrelevant for posture
and excluded.  Samples are intentionally NOT clamped to [0, 1]: clamping
is the stimulation scheduler's job.

Reproducibility: noise is generated with the Box-Muller transform over a
seeded PCG64 uniform stream (one pair of uniforms per sample, all drawn in
one call), so a given seed yields bit-identical datasets across platforms.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "CLASSES",
    "CLASS_MEANS",
    "PostureSample",
    "DatasetConfig",
    "generate",
    "write_csv",
    "read_csv",
    "split",
]

CLASSES = ("stand", "sit", "lie")
CLASS_MEANS: dict[str, tuple[float, float]] = {
    "stand": (0.0, 0.0),
    "sit": (0.0, 0.25),
    "lie": (0.5, 0.0),
}

_CSV_HEADER = ["pitch", "roll", "label"]


@dataclass(frozen=True, slots=True)
class PostureSample:
    pitch: float
    roll: float
    label: str

    def __post_init__(self) -> None:
        if self.label not in CLASSES:
            raise ValueError(f"label must be one of {CLASSES}, got {self.label!r}")


@dataclass(frozen=True)
class DatasetConfig:
    n_per_class: int
    noise_sigma: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_per_class <= 0:
            raise ValueError(f"n_per_class must be > 0, got {self.n_per_class}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")


def generate(cfg: DatasetConfig) -> list[PostureSample]:
    """n_per_class noisy samples per class, in class order, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # one call draws the same PCG64 stream as 2n scalar draws; Box-Muller stays
    # on the math module because numpy's SIMD log/cos/sin differ in the last ulp
    uniforms = rng.random((len(CLASS_MEANS), 2 * cfg.n_per_class))
    samples = []
    for row, (label, (mean_pitch, mean_roll)) in zip(uniforms, CLASS_MEANS.items()):
        pairs = iter(row.tolist())  # one class at a time keeps the float list short
        for u1, u2 in zip(pairs, pairs):
            radius = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1 - u1 in (0, 1]: log() is safe
            z_pitch = radius * math.cos(2.0 * math.pi * u2)
            z_roll = radius * math.sin(2.0 * math.pi * u2)
            samples.append(
                PostureSample(
                    pitch=mean_pitch + cfg.noise_sigma * z_pitch,
                    roll=mean_roll + cfg.noise_sigma * z_roll,
                    label=label,
                )
            )
    return samples


def write_csv(samples: Iterable[PostureSample], path: str | Path) -> None:
    """Write samples as CSV; float fields use shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in samples:
            writer.writerow([repr(s.pitch), repr(s.roll), s.label])


def read_csv(path: str | Path) -> list[PostureSample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header {','.join(_CSV_HEADER)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 fields, got {len(row)}")
            try:
                pitch, roll = float(row[0]), float(row[1])
                if not (math.isfinite(pitch) and math.isfinite(roll)):
                    raise ValueError(f"non-finite value in {row[0]!r},{row[1]!r}")
                samples.append(PostureSample(pitch, roll, row[2]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return samples


def split(
    samples: list[PostureSample], train_fraction: float, seed: int
) -> tuple[list[PostureSample], list[PostureSample]]:
    """Seeded stratified split: per-class proportions are preserved.

    Per class, a shuffled copy contributes round(train_fraction * n) samples
    to the train side and the remainder to the test side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.Generator(np.random.PCG64(seed))
    by_label: dict[str, list[PostureSample]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s)
    train: list[PostureSample] = []
    test: list[PostureSample] = []
    for label, group in by_label.items():
        order = rng.permutation(len(group))
        n_train = round(train_fraction * len(group))
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
    return train, test
