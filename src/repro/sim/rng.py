"""Seeded random-number streams.

Every stochastic component draws from its own named stream derived from a
single experiment seed.  This gives *variance isolation*: changing how one
component consumes randomness (e.g. adding jitter to links) does not
perturb the draws seen by any other component, so A/B comparisons between
system variants stay paired.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed for *name* from *root_seed*."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently seeded ``random.Random`` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("mobility")
    >>> b = reg.stream("network")
    >>> a is reg.stream("mobility")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        #: The root seed this registry derives all streams from.
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoised) stream for *name*."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream
