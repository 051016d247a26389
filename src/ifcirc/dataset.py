"""Synthetic dog-posture dataset: tilt vectors with Gaussian noise.

Each class is a fixed mean (pitch, roll) tilt vector; samples are the mean
plus iid per-axis Gaussian noise.  The yaw axis is irrelevant for posture
and excluded.  Samples are intentionally NOT clamped to [0, 1]: clamping
is the stimulation scheduler's job.

Reproducibility: noise is generated with the Box-Muller transform over a
seeded PCG64 uniform stream (one pair of uniforms per sample, all drawn in
one call), so a given seed yields bit-identical datasets across platforms.
The stream, and ``split``'s shuffles, are ifcirc's own (``ifcirc._pcg``):
numpy's ``Generator(PCG64(seed))`` bit for bit, without importing
``numpy.random``.
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
import json
import math
import numbers
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._pcg import PCG64

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

CLASS_MEANS: dict[str, tuple[float, float]] = {
    "stand": (0.0, 0.0),
    "sit": (0.0, 0.25),
    "lie": (0.5, 0.0),
}
CLASSES = tuple(CLASS_MEANS)

_CSV_HEADER = ["pitch", "roll", "label"]
# 1 - u1 >= 2**-53, so no Box-Muller draw has |z| > sqrt(-2 ln 2**-53) = 8.5717
_MAX_ABS_Z = 8.58


@dataclass(frozen=True, slots=True)
class PostureSample:
    pitch: float
    roll: float
    label: str

    def __post_init__(self) -> None:  # as read_csv refuses a field; ints and numpy floats convert
        object.__setattr__(self, "pitch", json_value(self.pitch, float, "pitch"))
        object.__setattr__(self, "roll", json_value(self.roll, float, "roll"))
        if self.label not in CLASSES:
            raise ValueError(f"label must be one of {CLASSES}, got {self.label!r}")


def _number(value: object, kind: type) -> int | float | None:
    """``value`` as an int, or as a finite float if ``kind`` is float; None for a bool, another
    type, NaN, an infinity or an integer past the float range.  numpy numbers convert."""
    family = numbers.Integral if kind is int else numbers.Real  # skipped for an exact int or float
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, family)):
        return None
    try:
        return kind(value) if kind is int or math.isfinite(value) else None
    except OverflowError:  # math.isfinite of an integer past the float range
        return None


def json_value(value: object, kind: type, name: str):
    """A value parsed from JSON, as ``kind``: int, str, list, or a finite float (ints convert).

    Numbers are taken as ``_number`` takes them, so a bool is none.  A mismatch raises
    ValueError naming ``name``.
    """
    converted = _number(value, kind) if kind in (int, float) else value
    if not isinstance(converted, kind):  # None, where _number refuses the value
        description = {int: "an integer", float: "a finite number", str: "a string", list: "a list"}[kind]
        raise ValueError(f"{name} must be {description}, got {json.dumps(value, default=repr)}")
    return converted


def text_value(text: str, kind: type, name: str):
    """``text`` as ``kind``: read by ``kind(text)``, so ``.5`` and ``1_0`` are numbers, and checked
    by ``json_value`` under ``name``, which refuses text ``kind`` cannot read as itself.  Flags,
    ``--catalog-values`` pieces and CSV fields all reach the package as text."""
    try:
        value = kind(text)
    except ValueError:
        value = text
    return json_value(value, kind, name)


def _check_integer(name: str, value: object, least: int) -> None:
    """Refuse, by ``name``, what ``_number`` makes no int, and one below ``least``."""
    if _number(value, int) is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_real(name: str, value: object, zero: bool = False) -> None:
    """Refuse, by ``name``, what ``_number`` makes no float, and one not > 0 (>= 0 if ``zero``)."""
    number = _number(value, float)
    if number is None or not (number >= 0 if zero else number > 0):
        floor = ">= 0" if zero else "> 0"
        raise ValueError(f"{name} must be a finite number {floor}, got {value!r}")


def _real_array(values: object, name: str) -> np.ndarray:
    """``values`` as a float64 array; refuse, by ``name``, one that holds anything but real numbers.

    The dtype decides, with no pass over the elements: ints and floats convert, and
    bool, str, bytes, complex and the like are refused.  An object array, which is how
    numpy holds an int past int64, is the exception: each element must be a real
    number, not a bool, and one past the float range is refused.
    """
    x = np.asarray(values)
    if x.dtype.kind == "O":
        for value in x.flat:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must hold real numbers, got {value!r}")
    elif x.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {x.dtype}")
    try:
        return x.astype(np.float64, copy=False)
    except OverflowError:  # numpy's message names no input
        raise ValueError(f"{name} contains an integer past the float range") from None


@dataclass(frozen=True)
class DatasetConfig:
    n_per_class: int
    noise_sigma: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("n_per_class", self.n_per_class, 1)
        try:  # generate's draw, shaped but not allocated; a MemoryError there names its shape
            np.broadcast_to(0.0, (len(CLASS_MEANS), 2 * self.n_per_class))
        except ValueError as exc:
            raise ValueError(f"n_per_class {self.n_per_class} is too large for a draw: {exc}") from None
        _check_real("noise_sigma", self.noise_sigma, zero=True)
        if not math.isfinite(self.noise_sigma * _MAX_ABS_Z):  # then every sample is finite
            raise ValueError(f"noise_sigma {self.noise_sigma!r} is too large: "
                             f"noise_sigma*{_MAX_ABS_Z} overflows")
        _check_integer("seed", self.seed, 0)


# A generated label comes from CLASS_MEANS, so a generated sample skips
# PostureSample's __init__ and its check: it is allocated bare and its slots
# are filled through their descriptors, which a frozen dataclass leaves usable.
_SLOT_SETTERS = (
    PostureSample.pitch.__set__, PostureSample.roll.__set__, PostureSample.label.__set__
)


def generate(cfg: DatasetConfig) -> list[PostureSample]:
    """n_per_class noisy samples per class, in class order, deterministic per seed."""
    n = cfg.n_per_class
    # one call draws the same PCG64 stream as 2n scalar draws: u1, u2 alternate
    uniforms = PCG64(cfg.seed).random((len(CLASS_MEANS), 2 * n))
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


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    """Write ``header`` and ``rows`` as CSV in csv's default dialect, CRLF line ends.

    Every CSV the package writes goes through here.  Only the header goes
    through ``csv.writer``, which quotes a label that needs it; a row holds
    float reprs, ints and class names, which never do, so it is joined directly.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(fields) + "\r\n" for fields in rows)


def write_csv(samples: Iterable[PostureSample], path: str | Path) -> None:
    """Write samples as CSV; float fields use shortest round-trip repr."""
    _write_rows(path, _CSV_HEADER, ((repr(s.pitch), repr(s.roll), s.label) for s in samples))


def read_csv(path: str | Path) -> list[PostureSample]:
    samples, line_no = [], 1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != _CSV_HEADER:
                raise ValueError(f"expected header {','.join(_CSV_HEADER)!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {len(row)}")
                pitch, roll = text_value(row[0], float, "pitch"), text_value(row[1], float, "roll")
                samples.append(PostureSample(pitch, roll, row[2]))
        except UnicodeDecodeError as exc:  # raised while reading, at no line of its own
            raise ValueError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from exc
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit(), before its row
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return samples


def split(
    samples: list[PostureSample], train_fraction: float, seed: int
) -> tuple[list[PostureSample], list[PostureSample]]:
    """Seeded stratified split: per-class proportions are preserved.

    Per class, a shuffled copy contributes round(train_fraction * n) samples
    to the training side and the remainder to the held-out side.  Refuses an
    empty ``samples``, and a class that would leave either side without a sample.
    """
    fraction = _number(train_fraction, float)
    if fraction is None or not 0.0 < fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    _check_integer("seed", seed, 0)
    if not samples:
        raise ValueError("cannot split an empty dataset")
    rng = PCG64(seed)
    by_label: dict[str, list[PostureSample]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s)
    train: list[PostureSample] = []
    test: list[PostureSample] = []
    for label, group in by_label.items():
        order = rng.permutation(len(group))
        n_train = round(fraction * len(group))
        if n_train in (0, len(group)):
            side = "training" if n_train == 0 else "held-out"
            raise ValueError(f"class {label!r} has {len(group)} sample{'s' * (len(group) > 1)}: "
                             f"a train_fraction of {fraction:g} leaves its {side} side empty")
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
    return train, test
