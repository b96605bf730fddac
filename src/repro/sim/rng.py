"""Seeded random-number streams.

Every stochastic component (uniform traffic sources, FECN marking
lottery) pulls an independent ``numpy`` Generator from one
:class:`RngFactory`, keyed by a stable string.  Two simulations built
with the same root seed therefore consume identical random streams
regardless of component construction order — the property our
determinism regression test relies on.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngFactory"]


class RngFactory:
    """Derive independent, reproducible RNG streams from one root seed.

    >>> rngs = RngFactory(42)
    >>> a = rngs.stream("node3.uniform")
    >>> b = rngs.stream("node4.uniform")

    Streams are keyed by name, not creation order: ``stream(name)``
    always returns a generator seeded by ``SHA256(root_seed || name)``.
    Asking twice for the same name returns the *same* generator object.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            import numpy as np  # on first use: a process that runs no cell never loads it

            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngFactory":
        """Derive a child factory (namespaced) for a sub-component tree."""
        digest = hashlib.sha256(f"{self.seed}:{name}:factory".encode()).digest()
        return RngFactory(int.from_bytes(digest[:8], "little"))
