"""Sharded service namespaces over consistent hashing.

The flat services put every lock home at ``lock_id % members`` and the
whole DDSS directory on one metadata node — fine for a rack, a wall at
datacenter scale.  This package spreads both namespaces across home
nodes with a virtual-node consistent-hash ring seeded from the cluster
RNG (:class:`ShardRing`), resolved by clients through a
:class:`ShardMap` whose staleness is handled the same way as the PR-7
stale-home data path: the contacted daemon *bounces* the request with
the current owner, and the client chases it a bounded number of times.

* :class:`ShardedNCoSEDManager` — N-CoSED lock table whose homes come
  from the ring; failover rehomes a dead member's locks to their ring
  successors.
* :class:`ShardedDDSS` — DDSS whose *directory serving* is sharded:
  every member daemon answers register/lookup for its ring slice, and
  eviction/restore through :class:`repro.reconfig.ReconfigManager`
  rebalances the ring with the existing ``migrate_unit`` machinery.
"""

from repro.shard.ring import ShardMap, ShardRing
from repro.shard.locks import ShardedNCoSEDManager
from repro.shard.directory import ShardedDDSS

__all__ = ["ShardMap", "ShardRing", "ShardedDDSS",
           "ShardedNCoSEDManager"]
