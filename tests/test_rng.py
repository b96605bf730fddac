"""Unit tests for seeded RNG streams, with numpy as the oracle.

A :class:`~repro.sim.rng.Stream` must draw exactly what
``numpy.random.default_rng(seed)`` draws: every pinned result was
recorded on numpy's streams.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.sim.rng import RngFactory, Stream


def draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_name_returns_same_generator():
    rngs = RngFactory(1)
    assert rngs.stream("a") is rngs.stream("a")


def test_streams_keyed_by_name_not_order():
    first = RngFactory(7)
    a1 = draws(first.stream("alpha"), 4)
    b1 = draws(first.stream("beta"), 4)

    second = RngFactory(7)
    b2 = draws(second.stream("beta"), 4)  # requested first
    a2 = draws(second.stream("alpha"), 4)
    assert a1 == a2
    assert b1 == b2


def test_different_names_give_different_streams():
    rngs = RngFactory(7)
    assert draws(rngs.stream("x"), 8) != draws(rngs.stream("y"), 8)


def test_different_seeds_give_different_streams():
    a = draws(RngFactory(1).stream("s"), 8)
    b = draws(RngFactory(2).stream("s"), 8)
    assert a != b


def test_spawn_derives_independent_child_factory():
    parent = RngFactory(3)
    child_a = parent.spawn("sub")
    child_b = RngFactory(3).spawn("sub")
    assert child_a.seed == child_b.seed
    assert child_a.seed != parent.seed
    assert draws(child_a.stream("n"), 4) == draws(child_b.stream("n"), 4)


# ----------------------------------------------------------------------
# numpy as the oracle
# ----------------------------------------------------------------------
#: range sizes: the 32-bit Lemire path at its edges, and the full 2**32
#: (one buffered word, no rejection).
SIZES = [1, 2, 3, 63, 64, 4001, 2**31, 2**32 - 1, 2**32]


def child_seed(root, name):
    """The seed :meth:`RngFactory.stream` gives the stream ``name``."""
    digest = hashlib.sha256(f"{root}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


SEEDS = [0, 1, 2**63, 2**64 - 1,
         *(child_seed(1, name) for name in ("mark.sw0", "uniform.n3")),
         child_seed(RngFactory(3).spawn("sub").seed, "n")]


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_for_draw_equal_to_numpy(seed):
    """``random()``, ``integers(n)`` and ``integers(0, n + 1)``
    interleaved, so the 32-bit buffer is left half-used across every
    other kind of call."""
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    calls = random.Random(seed)
    for _ in range(600):
        n = calls.choice(SIZES)
        kind = calls.randrange(3)
        if kind == 0:
            assert ours.random() == oracle.random()
        elif kind == 1:
            assert ours.integers(n) == int(oracle.integers(n))
        elif n < 2**32:
            assert ours.integers(0, n + 1) == int(oracle.integers(0, n + 1))


def test_a_range_off_zero_is_numpys():
    ours, oracle = Stream(11), np.random.default_rng(11)
    for low, high in [(5, 10), (-3, 4), (2**40, 2**40 + 7), (-(2**31), 2**31)]:
        assert [ours.integers(low, high) for _ in range(50)] == \
            [int(oracle.integers(low, high)) for _ in range(50)]


def test_the_factory_streams_are_numpys():
    stream = RngFactory(1).stream("mark.sw0")
    assert draws(stream, 20) == np.random.default_rng(child_seed(1, "mark.sw0")).random(20).tolist()


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (-1, 2**32), (0, 2**64)])
def test_a_range_wider_than_2_to_the_32_raises(low, high):
    with pytest.raises(ValueError, match="wider than 2\\*\\*32"):
        Stream(0).integers(low, high)


@pytest.mark.parametrize("args", [(0,), (5, 5), (5, 4)])
def test_an_empty_range_raises(args):
    with pytest.raises(ValueError, match="empty range"):
        Stream(0).integers(*args)
