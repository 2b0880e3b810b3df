"""N-CoSED lock manager with consistent-hash lock homes.

The flat manager homes lock ``i`` at ``members[i % len(members)]`` —
fine on one rack, but at datacenter scale it couples every lock's
placement to member order and moves *every* home on membership change.
Here the home comes from a :class:`~repro.shard.ring.ShardRing` seeded
from the cluster RNG: deterministic across processes, and a member's
death moves only the locks it homed (to their ring successors), each
via the existing epoch-fenced ``_rehome`` machinery.

The wire protocol is untouched — clients still CAS/FAA the word at
``home_node(lock_id)``; only the placement function changed.  A
shard-map epoch change drops the cached placements: the owner cache
and the base's word table, which the clients' hot paths read without
asking ``home_node``.
"""

from __future__ import annotations

from typing import Dict

from repro.dlm.ncosed import NCoSEDManager
from repro.errors import ConfigError
from repro.net.node import Node

from repro.shard.ring import ShardMap, ShardRing

__all__ = ["ShardedNCoSEDManager"]


class ShardedNCoSEDManager(NCoSEDManager):
    """:class:`NCoSEDManager` whose lock homes come from a shard ring."""

    SCHEME = "ncosed-shard"

    def __init__(self, cluster, n_locks: int = 64, **kwargs):
        members = list(cluster.nodes)
        self.shard_map = ShardMap(ShardRing(
            [n.id for n in members], seed=cluster.rng.seed))
        self._member_by_id: Dict[int, Node] = {n.id: n for n in members}
        #: lock -> ring owner id, invalidated wholesale on epoch change
        self._owner_cache: Dict[int, int] = {}
        self._cache_ep = self.shard_map.epoch
        super().__init__(cluster, n_locks=n_locks,
                         member_nodes=members, **kwargs)

    # -- placement ---------------------------------------------------------
    def home_node(self, lock_id: int) -> Node:
        self._check_lock(lock_id)
        override = self._home_override.get(lock_id)
        if override is not None:
            return self._member_by_id[override]
        if self.shard_map.epoch != self._cache_ep:
            self._owner_cache.clear()
            self._word_at.clear()
            self._cache_ep = self.shard_map.epoch
        nid = self._owner_cache.get(lock_id)
        if nid is None:
            nid = self._owner_cache[lock_id] = self.shard_map.owner(
                lock_id)
        return self._member_by_id[nid]

    # -- failover ----------------------------------------------------------
    def _on_detector(self, node_id: int, transition: str) -> None:
        """Dead member: drop it from the ring, rehome its locks to
        their ring successors.

        The victim set is computed *before* the ring removal — after
        it, ``home_node`` already maps those locks to the new owners,
        and the epoch bump + holder expunge of ``_rehome`` would never
        run.  Restores stay ignored, same as the base policy: a lock
        keeps its failover home (the ``_home_override``) until the next
        failure, and the ring keeps the member out — new resolutions
        spread over the survivors.
        """
        if transition != "dead" or node_id not in self._member_by_id:
            return
        victims = [(lid, self.home_node(lid))
                   for lid in range(self.n_locks)
                   if self.home_node(lid).id == node_id]
        if (node_id in self.shard_map.members
                and len(self.shard_map.members) > 1):
            self.shard_map.remove(node_id)
            self._word_at.clear()
            self._obs_rebalance("evict", node_id)
        avoid = self.detector.unreachable_ids
        avoid.add(node_id)
        for nid in self._member_by_id:
            if self._node_dead(nid):
                avoid.add(nid)
        for lock_id, old_home in victims:
            try:
                new_id = self.shard_map.owner(lock_id, avoid=avoid)
            except ConfigError:
                continue
            self._rehome(lock_id, old_home, self._member_by_id[new_id])

    def _obs_rebalance(self, kind: str, node_id: int) -> None:
        obs = self.env.obs
        if obs is None:
            return
        obs.trace.emit("shard.rebalance", node=-1, mgr=self.obs_name,
                       kind=kind, mnode=node_id,
                       ep=self.shard_map.epoch,
                       members=len(self.shard_map.members))
        obs.metrics.counter("shard.rebalances").inc()
