"""ifcirc's own seeded stream, ``ifcirc._pcg.PCG64``, against numpy's ``Generator(PCG64(seed))``.

The library draws its seeded data, splits and initial resistances from ``_pcg`` so that it
need not import ``numpy.random``; these tests may, and hold the two streams equal draw for
draw.  The literals at the end pin the stream whatever a later numpy does.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifcirc import TrainConfig
from ifcirc._pcg import PCG64
from ifcirc.training import _INIT_SPAN

SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, np.int64(7)]
SEED_IDS = ["0", "1", "42", "2**32-1", "2**32", "2**64+1", "2**128+3", "int64"]


def numpy_stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_random_is_numpys(seed):
    ours, theirs = PCG64(seed), numpy_stream(seed)
    # around the 256 lanes, around a group of 16 packed ints decoded at once, and past it
    for n in (1, 2, 255, 256, 257, 4095, 4096, 4097, 60000):
        assert np.array_equal(ours.random(n), theirs.random(n)), n
    drawn = ours.random((3, 4))
    assert drawn.shape == (3, 4) and np.array_equal(drawn, theirs.random((3, 4)))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_chained_permutations_are_numpys(seed):
    # one generator throughout: a high half left by one shuffle starts the next, across the
    # doubles drawn in between, which take whole outputs; the first shuffles take their
    # halves from outputs the 4000 doubles left decoded
    ours, theirs = PCG64(seed), numpy_stream(seed)
    assert np.array_equal(ours.random(4000), theirs.random(4000))
    for n in (1, 2, 3, 300, 1025, 65537):
        assert ours.permutation(n) == theirs.permutation(n).tolist(), n
        assert np.array_equal(ours.random(3), theirs.random(3)), n


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_uniform_over_the_training_box_is_numpys(seed):
    cfg = TrainConfig()
    low, high = math.log(cfg.r_max / _INIT_SPAN), math.log(cfg.r_max)
    drawn = PCG64(seed).uniform(low, high, (2, 3, 3))
    assert np.array_equal(drawn, numpy_stream(seed).uniform(low, high, size=(2, 3, 3)))


@given(seed=st.integers(0, 2**160), calls=st.lists(st.tuples(st.booleans(), st.integers(0, 700))))
def test_any_sequence_of_calls_is_numpys(seed, calls):
    ours, theirs = PCG64(seed), numpy_stream(seed)
    for shuffle, n in calls:
        if shuffle:
            assert ours.permutation(n) == theirs.permutation(n).tolist()
        else:
            assert np.array_equal(ours.random(n), theirs.random(n))


def test_stream_frozen_for_seed_42():
    assert PCG64(42).random(3).tolist() == [0.7739560485559633, 0.4388784397520523,
                                            0.8585979199113825]
    assert PCG64(42).permutation(10) == [5, 6, 0, 7, 3, 2, 4, 9, 1, 8]
    assert PCG64(2**128 + 3).random(2).tolist() == [0.10033602866159974, 0.6325138865874828]


def test_refusals():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        PCG64(-1)
    with pytest.raises(TypeError):
        PCG64(1.0)
    # refused before the list is built: 2**32 elements would take over 100 GB
    with pytest.raises(ValueError, match=r"^cannot permute 4294967296 elements: at most 4294967295$"):
        PCG64(0).permutation(2**32)
