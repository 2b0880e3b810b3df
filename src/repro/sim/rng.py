"""Seeded, named random-number streams.

Every stochastic component draws from its own named stream so that adding
a new component (or reordering draws inside one) never perturbs the
others — the standard variance-reduction discipline for simulation
studies.  Streams are derived from a root seed with
:class:`numpy.random.SeedSequence` spawning keyed by the stream name.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ConfigError

__all__ = ["RngStreams", "spawn_child"]

_MASK64 = (1 << 64) - 1
#: SplitMix64 constants (Steele et al., "Fast splittable PRNGs").
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def spawn_child(seed: int, shard_index: int) -> int:
    """Derive an independent, reproducible child seed for one shard.

    A SplitMix64-style finalizer over ``(seed, shard_index)``: the child
    seeds are decorrelated from each other *and* from the parent stream,
    unlike ``seed + i`` arithmetic where neighbouring shards feed nearly
    identical state into the generator.  The same ``(seed, shard_index)``
    pair always yields the same child, independent of how many shards
    exist or the order they are spawned in — the property the lab runner
    relies on to make ``--workers 0`` and ``--workers N`` byte-identical.
    """
    z = (int(seed) + (int(shard_index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStreams:
    """Factory of independent named :class:`numpy.random.Generator`\\ s."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: 16-byte stream key -> the name that claimed it
        self._keys: Dict[bytes, str] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use).

        The same ``(seed, name)`` pair always yields an identical stream,
        independent of creation order.  Only the first 16 bytes of the
        name key the stream: a second name with the same prefix would
        silently replay the first one's draws, so it is refused.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Key the child seed by a stable hash of the name so creation
            # order is irrelevant.
            key = name.encode("utf-8").ljust(16, b"\0")[:16]
            owner = self._keys.setdefault(key, name)
            if owner != name:
                raise ConfigError(
                    f"rng streams {owner!r} and {name!r} share their "
                    f"first 16 bytes and would be the same stream")
            digest = np.frombuffer(key, dtype=np.uint32)
            seq = np.random.SeedSequence([self.seed, *digest.tolist()])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def exponential(self, name: str, mean: float) -> float:
        return float(self.get(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.get(name).uniform(low, high))

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.get(name).integers(low, high))
