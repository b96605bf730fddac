"""Seeded random-number streams.

Every stochastic component (uniform traffic sources, the FECN marking
lottery) draws from its own :class:`Stream`, and all of a simulation's
streams come from one :class:`RngFactory`, keyed by a stable string.
Two simulations built with the same root seed therefore consume
identical random streams regardless of component construction order —
the property our determinism regression test relies on.

A :class:`Stream` is NumPy's ``random.default_rng(seed)`` — SeedSequence
pool mixing feeding a PCG64 generator — in plain Python, for the two
calls the simulator makes: ``random()`` and ``integers()``.  It draws
exactly what NumPy's generator draws (``tests/test_rng.py`` checks it
against NumPy draw for draw), so the pinned results are NumPy's
streams while a cell never imports NumPy, and no pin depends on which
NumPy is installed.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

__all__ = ["RngFactory", "Stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence's hash constants (NumPy's ``bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: the four 64-bit
    words NumPy seeds PCG64 with."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = []
    while True:  # the seed as little-endian 32-bit words, 0 as [0]
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):  # eight 32-bit words, paired low-first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | (state[i + 1] << 32) for i in range(0, 8, 2)]


class Stream:
    """NumPy's ``random.default_rng(seed)``, draw for draw, for
    ``random()`` and ``integers()``.

    PCG64: a 128-bit LCG whose output is the XSL-RR permutation of each
    new state.  ``integers`` takes NumPy's 32-bit Lemire path, which
    draws 32-bit words from a buffer: one 64-bit draw serves two of
    them, low half first, and ``random()`` leaves the buffered half in
    place.  Ranges wider than 2**32 are not drawn (no component asks).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_words(int(seed))
        initstate = (s0 << 64) | s1
        self._inc = inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step
        self._state = ((((inc + initstate) & _MASK128) * _PCG_MULT) + inc) & _MASK128
        self._half: Optional[int] = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        r = s >> 122
        return ((x >> r) | (x << (64 - r))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A float in [0, 1): the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An int in [low, high), or in [0, low) when ``high`` is None."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span <= 0:
            raise ValueError(f"empty range [{low}, {high})")
        if span > 1 << 32:
            raise ValueError(f"range [{low}, {high}) is wider than 2**32")
        rng = span - 1
        if rng == 0:
            return low
        if rng == _MASK32:
            return low + self._next32()
        m = self._next32() * span
        leftover = m & _MASK32
        if leftover < span:
            threshold = (_MASK32 - rng) % span
            while leftover < threshold:
                m = self._next32() * span
                leftover = m & _MASK32
        return low + (m >> 32)


class RngFactory:
    """Derive independent, reproducible RNG streams from one root seed.

    >>> rngs = RngFactory(42)
    >>> a = rngs.stream("node3.uniform")
    >>> b = rngs.stream("node4.uniform")

    Streams are keyed by name, not creation order: ``stream(name)``
    always returns a stream seeded by ``SHA256(root_seed || name)``.
    Asking twice for the same name returns the *same* stream object.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            gen = self._streams[name] = Stream(int.from_bytes(digest[:8], "little"))
        return gen

    def spawn(self, name: str) -> "RngFactory":
        """Derive a child factory (namespaced) for a sub-component tree."""
        digest = hashlib.sha256(f"{self.seed}:{name}:factory".encode()).digest()
        return RngFactory(int.from_bytes(digest[:8], "little"))
