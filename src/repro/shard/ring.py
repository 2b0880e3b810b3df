"""Consistent-hash ring with virtual nodes, deterministic from a seed.

Every hash is the pure-integer SplitMix64 derivation already used for
lab shard seeding (:func:`repro.sim.rng.spawn_child`), so the ring is
bit-identical across processes and platforms: same ``(seed, members)``
→ same assignment, no Python ``hash()`` randomization, no numpy
state.  Key points and member points draw from separated domains
(a salt on the key side) so a key can never systematically collide with
a member's base point.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, List, Tuple

from repro.errors import ConfigError
from repro.sim.rng import spawn_child

__all__ = ["ShardRing", "ShardMap"]

#: domain separator between key hashes and member vnode hashes
_KEY_SALT = 0x6B65795F72696E67  # "key_ring"
#: virtual points per member
VNODES = 16


class ShardRing:
    """Maps integer keys to member node ids via consistent hashing.

    :data:`VNODES` virtual points per member smooth the load split;
    removing a member moves only the keys it owned (to their ring
    successors), which is what makes rebalance-on-eviction incremental.
    """

    def __init__(self, node_ids: Iterable[int], seed: int = 0):
        self.seed = seed
        self._members: set = set()
        #: sorted [(point, node_id)]; duplicates impossible in practice
        #: (64-bit points), ties broken by node id either way
        self._ring: List[Tuple[int, int]] = []
        for nid in node_ids:
            self.add(nid)
        if not self._ring:
            raise ConfigError("ring needs at least one member")

    # -- membership --------------------------------------------------------
    @property
    def members(self) -> frozenset:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def _points(self, node_id: int) -> List[int]:
        base = spawn_child(self.seed, node_id)
        return [spawn_child(base, v) for v in range(VNODES)]

    def add(self, node_id: int) -> None:
        if node_id in self._members:
            raise ConfigError(f"node {node_id} already on the ring")
        self._members.add(node_id)
        for pt in self._points(node_id):
            insort(self._ring, (pt, node_id))

    def remove(self, node_id: int) -> None:
        if node_id not in self._members:
            raise ConfigError(f"node {node_id} not on the ring")
        if len(self._members) == 1:
            raise ConfigError("cannot remove the last ring member")
        self._members.discard(node_id)
        self._ring = [e for e in self._ring if e[1] != node_id]

    # -- resolution --------------------------------------------------------
    def key_point(self, key: int) -> int:
        return spawn_child(self.seed ^ _KEY_SALT, key)

    def owner(self, key: int, avoid: Iterable[int] = ()) -> int:
        """First ring member at or after the key's point, skipping
        ``avoid`` (walk the successors, wrap at the top)."""
        ring = self._ring
        avoid = frozenset(avoid)
        idx = bisect_left(ring, (self.key_point(key), -1))
        n = len(ring)
        for step in range(n):
            nid = ring[(idx + step) % n][1]
            if nid not in avoid:
                return nid
        raise ConfigError("every ring member is avoided")


class ShardMap:
    """A versioned view of a ring: the epoch bumps on every rebalance.

    Servers hold the authoritative map; clients cache resolved owners
    and learn of staleness through *bounce* replies carrying the
    current owner (the control-plane analogue of the data plane's
    tombstone + directory re-resolve)."""

    def __init__(self, ring: ShardRing):
        self.ring = ring
        self.epoch = 0
        #: (epoch, "add"|"remove", node_id) history, for tests
        self.rebalances: List[Tuple[int, str, int]] = []

    @property
    def members(self) -> frozenset:
        return self.ring.members

    def __len__(self) -> int:
        return len(self.ring)

    def owner(self, key: int, avoid: Iterable[int] = ()) -> int:
        return self.ring.owner(key, avoid)

    def add(self, node_id: int) -> None:
        self.ring.add(node_id)
        self.epoch += 1
        self.rebalances.append((self.epoch, "add", node_id))

    def remove(self, node_id: int) -> None:
        self.ring.remove(node_id)
        self.epoch += 1
        self.rebalances.append((self.epoch, "remove", node_id))
