"""Synthetic dog-posture dataset: tilt vectors with Gaussian noise.

Each class is a fixed mean (pitch, roll) tilt vector; samples are the mean
plus iid per-axis Gaussian noise.  The yaw axis is irrelevant for posture
and excluded.  Samples are intentionally NOT clamped to [0, 1]: clamping
is the stimulation scheduler's job.

Reproducibility: noise is generated with the Box-Muller transform over a
seeded PCG64 uniform stream (one pair of uniforms per sample, all drawn in
one call), so a given seed yields bit-identical datasets across platforms.
The transform runs on one class's row of uniforms at a time.  numpy does
the steps IEEE 754 rounds exactly, so they match scalar Python bit for bit:
1 - u1, -2 * ln, sqrt, 2*pi * u2, the products and the sum with the mean.
The log, cos and sin stay on the ``math`` module, applied element by
element.  numpy's SIMD log differs from ``math.log`` in the last ulp: in
118 of the 30,000 radii at n_per_class=10000, seed 1 (numpy 2.4 on an
AVX-512 x86-64), which moves 34 pitch and 30 roll values.  numpy's cos and
sin matched ``math`` there, but numpy picks its kernels by the CPU's SIMD
features and promises no particular rounding.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections import deque
from dataclasses import dataclass
from itertools import repeat
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
# 1 - u1 >= 2**-53, so no Box-Muller draw has |z| > sqrt(-2 ln 2**-53) = 8.5717
_MAX_ABS_Z = 8.58


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
        n = self.n_per_class
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n <= 0:
            raise ValueError(f"n_per_class must be an integer > 0, got {n!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")
        if not math.isfinite(self.noise_sigma * _MAX_ABS_Z):  # then every sample is finite
            raise ValueError(f"noise_sigma {self.noise_sigma!r} is too large: "
                             f"noise_sigma*{_MAX_ABS_Z} overflows")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# A generated label comes from CLASS_MEANS, so a generated sample skips
# PostureSample's __init__ and its check: it is allocated bare and its slots
# are filled through their descriptors, which a frozen dataclass leaves usable.
_SLOT_SETTERS = (
    PostureSample.pitch.__set__, PostureSample.roll.__set__, PostureSample.label.__set__
)


def generate(cfg: DatasetConfig) -> list[PostureSample]:
    """n_per_class noisy samples per class, in class order, deterministic per seed."""
    n = cfg.n_per_class
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # one call draws the same PCG64 stream as 2n scalar draws: u1, u2 alternate
    uniforms = rng.random((len(CLASS_MEANS), 2 * n))
    samples: list[PostureSample] = []
    for row, (label, (mean_pitch, mean_roll)) in zip(uniforms, CLASS_MEANS.items()):
        u1, u2 = row[0::2], row[1::2]
        # 1 - u1 is in (0, 1], so log() is safe
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u1).tolist()), float, n))
        angle = ((2.0 * math.pi) * u2).tolist()
        z_pitch = radius * np.fromiter(map(math.cos, angle), float, n)
        z_roll = radius * np.fromiter(map(math.sin, angle), float, n)
        pitch = mean_pitch + cfg.noise_sigma * z_pitch
        roll = mean_roll + cfg.noise_sigma * z_roll
        block = list(map(object.__new__, repeat(PostureSample, n)))
        # one slot across the block per pass; a zero-length deque runs the map
        for set_slot, values in zip(_SLOT_SETTERS, (pitch.tolist(), roll.tolist(), repeat(label))):
            deque(map(set_slot, block, values), maxlen=0)
        samples += block
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
