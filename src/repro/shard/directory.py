"""DDSS with the metadata directory sharded across member daemons.

The flat substrate funnels every register/lookup through one metadata
node; here each member's daemon serves the ring slice a
consistent-hash :class:`~repro.shard.ring.ShardMap` assigns it, and a
daemon contacted with someone else's key replies with a **bounce**
carrying the current owner and map epoch — the client chases the hint a
bounded number of times (the control-plane twin of the data plane's
tombstone + re-resolve).  New units are also *homed* by the ring when
the caller gives no explicit placement, so directory authority and data
tend to be co-located.

Eviction through :class:`repro.reconfig.ReconfigManager` drops the
member from the ring before the existing ``migrate_unit`` machinery
moves its units — each to its new ring owner, not round-robin — and a
restore re-adds it, so clients with cached owners exercise the bounce
path under rebalance.

The backing ``_directory`` dict stays physically shared between
daemons, as in the base class: what this models is the *serving*
topology — which daemon answers for which key, where requests queue,
how stale maps are healed — not a replicated metadata store.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigError, DDSSError
from repro.ddss.substrate import DDSS
from repro.net.cluster import Cluster
from repro.net.node import Node

from repro.shard.ring import ShardMap, ShardRing

__all__ = ["ShardedDDSS"]


class ShardedDDSS(DDSS):
    """:class:`DDSS` whose directory serving is spread over the ring."""

    def __init__(self, cluster: Cluster,
                 member_nodes: Optional[Sequence[Node]] = None,
                 segment_bytes: int = 1 << 20):
        super().__init__(cluster, member_nodes=member_nodes,
                         segment_bytes=segment_bytes)
        self.dir_map = ShardMap(ShardRing(
            [m.id for m in self.members], seed=cluster.rng.seed))

    # -- directory routing ---------------------------------------------
    def dir_node(self, key: int) -> int:
        return self.dir_map.owner(key)

    def register_target(self) -> Tuple[int, Optional[int]]:
        key = next(self._next_key)
        return self.dir_map.owner(key), key

    def data_home(self, key: Optional[int],
                  placement: Optional[int]) -> int:
        if placement is None and key is not None:
            home = self.dir_map.owner(key)
            if home in self._segments:
                return home
        return self.pick_home(placement)

    def _dir_reject(self, node: Node, op: str,
                    key: Optional[int]) -> Optional[dict]:
        if key is None:  # pragma: no cover - defensive
            return {"error": f"{op} without a key on a sharded "
                             f"directory"}
        owner = self.dir_map.owner(key)
        if node.id != owner:
            return {"bounce": self.dir_map.epoch, "owner": owner}
        return None

    # -- rebalancing ---------------------------------------------------
    def migrate_off(self, node_id: int,
                    avoid: Sequence[int] = ()) -> int:
        """Drop ``node_id`` from the ring and move its units to their
        new ring owners.

        The ring removal comes first so ``dir_map.owner`` already
        reflects the post-eviction world when new homes are picked —
        directory authority and data move together.
        """
        if node_id in self.dir_map.members and len(self.dir_map) > 1:
            self.dir_map.remove(node_id)
            self._obs_rebalance("evict", node_id)
        banned = {node_id, *avoid}
        if not [m.id for m in self.members if m.id not in banned]:
            raise DDSSError("no live member left to rebalance onto")
        moved = 0
        victims = sorted(k for k, m in self._directory.items()
                         if m.home == node_id and not m.replicas)
        for key in victims:
            try:
                self.migrate_unit(key,
                                  self.dir_map.owner(key, avoid=banned))
            except (DDSSError, ConfigError):
                continue  # busy/full target or all owners banned
            moved += 1
        return moved

    def ring_restore(self, node_id: int) -> None:
        """Re-admit a restored member to the ring (ReconfigManager
        calls this after service restore).  Units are not moved back —
        new registrations simply start landing on the member again."""
        if (any(m.id == node_id for m in self.members)
                and node_id not in self.dir_map.members):
            self.dir_map.add(node_id)
            self._obs_rebalance("restore", node_id)

    def _obs_rebalance(self, kind: str, node_id: int) -> None:
        obs = self.env.obs
        if obs is None:
            return
        obs.trace.emit("shard.rebalance", node=self.meta_node.id,
                       mgr="ddss-dir", kind=kind, mnode=node_id,
                       ep=self.dir_map.epoch,
                       members=len(self.dir_map.members))
        obs.metrics.counter("shard.rebalances").inc()
