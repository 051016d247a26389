"""numpy's ``Generator(PCG64(seed))`` for the draws ifcirc makes, without ``numpy.random``.

Importing ``numpy.random`` costs 9-13 ms and 6 MB of peak memory, which the
seeded draws of ``generate``, ``split``, ``train`` and ``validate`` need not pay.
``PCG64`` gives the same numbers, bit for bit, for the three methods they call:

* The seed goes through numpy's ``SeedSequence``: its 32-bit words, low first,
  are hashed into a pool of four words, and the pool gives the 128-bit LCG its
  state and increment.
* Each 64-bit output is the XSL-RR of the LCG's next state.  ``random`` is
  ``(output >> 11) * 2**-53``; ``uniform`` is ``low + (high - low) * random``.
* ``permutation(n)`` is numpy's Fisher–Yates shuffle of ``range(n)``: from
  ``i = n - 1`` down to 1, it swaps ``i`` with ``j = random_interval(i)``.  That
  masks 32-bit halves of the outputs, low half first, and rejects ``j > i``.  A
  high half left over is kept for the next call.

The LCG runs in ``_LANES`` lanes at once.  The next ``_LANES`` states sit in one
Python int, one in each 256-bit slot, and a single multiply and add move all of
them ``count`` steps on: slot by slot, ``s -> A_count * s + C_count``.  Python
ints do the 128-bit products and numpy the output function, so no Python code
runs per draw, except in the shuffle itself.
"""
from __future__ import annotations

import operator

import numpy as np

_M32 = 2**32 - 1
_M128 = 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_LANES = 256  # states per packed int; a 256-bit slot holds a 128x128-bit product
_GROUP = 16  # packed ints decoded in one numpy pass
_ONES = int.from_bytes((1).to_bytes(32, "little") * _LANES, "little")  # 1 in every slot
_SLOTS = _M128 * _ONES  # the low 128 bits of every slot

# SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seeded(seed: int) -> tuple[int, int]:
    """The LCG's (state, increment) after numpy's ``PCG64(SeedSequence(seed))`` seeding."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []  # generate_state(4, uint64): eight words of the pool, hashed
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    seed_128 = state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2]
    increment = (state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6]) << 1 & _M128 | 1
    return ((increment + seed_128) * _MULT + increment) & _M128, increment


def _xsl_rr(states: bytes) -> np.ndarray:
    """The uint64 outputs of packed states, 32 little-endian bytes each."""
    words = np.frombuffer(states, "<u8")
    low, high = words[0::4], words[1::4]
    folded, rotation = high ^ low, high >> 58
    return folded >> rotation | folded << ((64 - rotation) & 63)


class PCG64:
    """A seeded stream equal to ``numpy.random.Generator(numpy.random.PCG64(seed))``."""

    def __init__(self, seed: int) -> None:
        state, self._increment = _seeded(seed)
        states = []
        for _ in range(_LANES):
            state = (state * _MULT + self._increment) & _M128
            states.append(state.to_bytes(32, "little"))
        self._lanes = int.from_bytes(b"".join(states), "little")  # the next _LANES states
        self._half: int | None = None  # a high 32-bit half not yet used
        self._full_step = self._step(_LANES)

    def _step(self, count: int) -> tuple[int, int]:
        """(A, C * _ONES) such that ``count`` LCG steps take each state s to A*s + C."""
        mult, plus, acc_mult, acc_plus = _MULT, self._increment, 1, 0
        while count:
            if count & 1:
                acc_mult, acc_plus = acc_mult * mult & _M128, (acc_plus * mult + plus) & _M128
            mult, plus = mult * mult & _M128, (mult + 1) * plus & _M128
            count >>= 1
        return acc_mult, acc_plus * _ONES

    def _outputs(self, count: int):
        """The next ``count`` 64-bit outputs, in uint64 arrays of at most ``_GROUP * _LANES``."""
        blocks = []
        while count > 0:
            taken = min(count, _LANES)
            blocks.append(self._lanes.to_bytes(32 * _LANES, "little")[:32 * taken])
            mult, plus = self._full_step if taken == _LANES else self._step(taken)
            self._lanes = (self._lanes * mult + plus) & _SLOTS
            count -= taken
            if len(blocks) == _GROUP or count == 0:  # numpy's passes cost more than their data
                yield _xsl_rr(b"".join(blocks))
                blocks = []

    def random(self, size) -> np.ndarray:
        """Doubles in [0, 1) of shape ``size``, as numpy's ``Generator.random(size)``."""
        out = np.empty(size)
        flat, start = out.reshape(-1), 0
        for words in self._outputs(flat.size):
            flat[start:start + words.size] = words >> 11
            start += words.size
        flat *= 2.0**-53
        return out

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``low + (high - low) * random(size)``, as numpy's ``Generator.uniform``."""
        return low + (high - low) * self.random(size)

    def _halves(self, count: int) -> list[int]:
        """The next ``count`` 32-bit halves, low half of each output first."""
        halves = [] if self._half is None else [self._half]
        for words in self._outputs((count - len(halves) + 1) // 2):
            halves += np.stack((words & _M32, words >> 32), axis=1).ravel().tolist()
        self._half = halves.pop() if len(halves) > count else None
        return halves

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled as numpy's ``Generator.permutation(n)`` shuffles it."""
        if n > _M32:  # numpy's 32-bit branch only: it draws 64 bits for an i past _M32
            raise ValueError(f"cannot permute {n} elements: at most {_M32}")
        order, i = list(range(n)), n - 1
        while i > 0:
            mask = (1 << i.bit_length()) - 1
            # each i left takes one half at least, and at most 4096 are held at once
            for half in self._halves(min(i, 4096)):
                j = half & mask
                if j <= i:
                    order[i], order[j] = order[j], order[i]
                    i -= 1
                    if i <= mask >> 1:
                        mask >>= 1
        return order
