"""DDSS service side: contributed segments, daemons, metadata directory.

Topology: every participating node contributes one registered segment and
runs a lightweight daemon.  One node (by default the first) additionally
hosts the **metadata directory** mapping unit keys to
:class:`UnitMeta`.  Control operations (allocate / lookup) are
two-sided requests to daemons over :mod:`repro.transport.rpc` — they
are rare.  The data path (``get`` / ``put`` in
:class:`repro.ddss.client.DDSSClient`) is pure one-sided RDMA against
the home segment, which is the substrate's whole point.

On-segment unit layout::

    offset 0   u64  lock word      (0 = free, else owner token)
    offset 8   u64  version counter
    offset 16  ...  data bytes
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import DDSSError
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.transport import rpc

from repro.ddss.allocator import SegmentAllocator
from repro.ddss.coherence import Coherence

__all__ = ["DDSS", "UnitMeta", "HEADER_BYTES", "LOCK_OFF", "VERSION_OFF",
           "INSTALL_BIT", "TOMBSTONE"]

HEADER_BYTES = 16
LOCK_OFF = 0
VERSION_OFF = 8

#: top bit of the version word: a transactional install is in flight.
#: Snapshot readers spin past it; a competing installer's CAS fails.
INSTALL_BIT = 1 << 63

#: version-word value marking a *stale* unit location after a rebalance.
#: Any CAS or snapshot that sees it must re-resolve the key through the
#: directory (``StaleHomeError``).  All-ones can never be a live version
#: (versions count up from zero and INSTALL_BIT is the only flag).
TOMBSTONE = (1 << 64) - 1

#: CPU time the daemon spends on one control request (µs)
DAEMON_WORK_US = 2.0


@dataclass(frozen=True)
class UnitMeta:
    """Directory entry describing one shared unit.

    ``replicas`` lists additional copies as ``(home, addr, rkey)``
    triples.  A put writes every reachable copy (at least one must
    succeed); a get fails over from the primary to the replicas when a
    copy is unreachable (see :meth:`repro.ddss.client.DDSSClient.get`).
    """

    key: int
    home: int            # node id of the home segment
    addr: int            # absolute address of the unit header
    rkey: int
    size: int            # data bytes (excluding header)
    coherence: Coherence
    delta: int = 2       # max version staleness (DELTA)
    ttl_us: float = 1000.0  # max time staleness (TEMPORAL)
    replicas: Tuple[Tuple[int, int, int], ...] = ()

    @property
    def data_addr(self) -> int:
        return self.addr + HEADER_BYTES

    @property
    def copies(self) -> Tuple[Tuple[int, int, int], ...]:
        """All copies, primary first, as ``(home, addr, rkey)``."""
        return ((self.home, self.addr, self.rkey),) + self.replicas


class DDSS:
    """The substrate service: call :meth:`client` per application node."""

    WIRE_TAG = "ddss"

    def __init__(self, cluster: Cluster,
                 member_nodes: Optional[Sequence[Node]] = None,
                 segment_bytes: int = 1 << 20):
        self.cluster = cluster
        self.env = cluster.env
        self.members = list(member_nodes or cluster.nodes)
        if not self.members:
            raise DDSSError("DDSS needs at least one member node")
        #: the first member holds the unit directory
        self.meta_node = self.members[0]
        self.segment_bytes = segment_bytes
        self._segments: Dict[int, object] = {}
        self._allocators: Dict[int, SegmentAllocator] = {}
        self._directory: Dict[int, UnitMeta] = {}
        self._next_key = itertools.count(1)
        self._rr = itertools.count()  # round-robin placement cursor
        handlers = {"alloc": self._do_alloc,
                    "register": self._do_register,
                    "lookup": self._do_lookup}
        for node in self.members:
            seg = node.memory.register(segment_bytes,
                                       name=f"ddss-seg@{node.name}")
            self._segments[node.id] = seg
            self._allocators[node.id] = SegmentAllocator(segment_bytes)
            self.env.process(rpc.serve(node, self.WIRE_TAG, handlers,
                                       DAEMON_WORK_US),
                             name=f"ddss-daemon@{node.name}")

    # -- public --------------------------------------------------------
    def client(self, node: Node):
        from repro.ddss.client import DDSSClient
        return DDSSClient(self, node)

    def segment(self, node_id: int):
        return self._segments[node_id]

    def pick_home(self, placement: Optional[int]) -> int:
        """Placement policy: explicit node id, else round robin."""
        if placement is not None:
            if placement not in self._segments:
                raise DDSSError(f"node {placement} is not a DDSS member")
            return placement
        idx = next(self._rr) % len(self.members)
        return self.members[idx].id

    # -- directory routing (overridden by repro.shard.ShardedDDSS) -----
    def dir_node(self, key: int) -> int:
        """Node id whose daemon serves directory ops for ``key``."""
        return self.meta_node.id

    def register_target(self) -> Tuple[int, Optional[int]]:
        """``(daemon node id, pre-assigned key)`` for a register.

        The flat directory assigns keys at the metadata daemon, so the
        key is ``None`` here; a sharded directory must pre-assign it to
        know which shard owns the registration.
        """
        return self.meta_node.id, None

    def data_home(self, key: Optional[int],
                  placement: Optional[int]) -> int:
        """Home segment for a new unit (``key`` known when
        pre-assigned)."""
        return self.pick_home(placement)

    def _dir_reject(self, node: Node, op: str,
                    key: Optional[int]) -> Optional[dict]:
        """Reply payload when ``node``'s daemon must not serve this
        directory op, else None."""
        if node is not self.meta_node:
            return {"error": f"{op} sent to non-metadata node"}
        return None

    def replica_homes(self, primary: int, n: int) -> Tuple[int, ...]:
        """``n`` distinct member nodes after ``primary``, in ring order."""
        ids = [m.id for m in self.members]
        if n > len(ids) - 1:
            raise DDSSError(
                f"{n} replicas need {n + 1} members, have {len(ids)}")
        start = ids.index(primary)
        return tuple(ids[(start + 1 + i) % len(ids)] for i in range(n))

    # -- rebalancing ---------------------------------------------------
    def migrate_unit(self, key: int, new_home: int) -> UnitMeta:
        """Move a unit to ``new_home``; tombstone the old location.

        Control-plane operation run by the directory authority (e.g.
        :class:`repro.reconfig.ReconfigManager` evicting a dead home):
        copy header + data to a fresh block, stamp ``TOMBSTONE`` into
        the old version word, and repoint the directory.  The old block
        is never reused (the allocator gives nothing back).  A client
        that cached the old address sees the tombstone on its next CAS
        or snapshot and re-resolves
        (:class:`repro.errors.StaleHomeError`) — it can never install
        at the stale home.

        A unit whose version word carries ``INSTALL_BIT`` is mid-install
        and is *not* moved (``DDSSError``): the installer's publish must
        land at the address where it took the install lock.
        """
        meta = self._directory.get(key)
        if meta is None:
            raise DDSSError(f"unknown key {key}")
        if new_home not in self._segments:
            raise DDSSError(f"node {new_home} is not a DDSS member")
        if meta.replicas:
            raise DDSSError(f"unit {key} is replicated: not rebalanced")
        if new_home == meta.home:
            return meta
        old_seg = self._segments[meta.home]
        old_off = meta.addr - old_seg.addr
        word = int.from_bytes(
            old_seg.read(old_off + VERSION_OFF, 8), "big")
        if word & INSTALL_BIT:
            raise DDSSError(f"unit {key} has an install in flight")
        lock = int.from_bytes(old_seg.read(old_off + LOCK_OFF, 8), "big")
        if lock:
            # moving a held lock would strand the copy locked forever
            # (the holder releases at the address it locked)
            raise DDSSError(f"unit {key} is locked by {lock}")
        nbytes = HEADER_BYTES + meta.size
        blob = old_seg.read(old_off, nbytes)
        new_off = self._allocators[new_home].alloc(nbytes)
        new_seg = self._segments[new_home]
        new_seg.write(new_off, blob)
        old_seg.write(old_off + VERSION_OFF, TOMBSTONE.to_bytes(8, "big"))
        new_meta = replace(meta, home=new_home,
                           addr=new_seg.addr + new_off, rkey=new_seg.rkey)
        self._directory[key] = new_meta
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("ddss.migrate", node=self.meta_node.id,
                           key=key, frm=meta.home, to=new_home)
            obs.metrics.counter("ddss.migrations").inc()
        return new_meta

    def migrate_off(self, node_id: int,
                    avoid: Sequence[int] = ()) -> int:
        """Rebalance every unit homed on ``node_id`` to other members.

        New homes are chosen in ring order, skipping ``node_id`` and
        any node in ``avoid`` (e.g. other dead nodes).  Units with an
        install in flight are skipped (a later call retries them).
        Returns the number of units moved.
        """
        banned = {node_id, *avoid}
        targets = [m.id for m in self.members if m.id not in banned]
        if not targets:
            raise DDSSError("no live member left to rebalance onto")
        moved = 0
        victims = sorted(k for k, m in self._directory.items()
                         if m.home == node_id and not m.replicas)
        for i, key in enumerate(victims):
            try:
                self.migrate_unit(key, targets[i % len(targets)])
            except DDSSError:
                continue  # busy or full target: leave for a retry
            moved += 1
        return moved

    # -- daemon handlers (served by repro.transport.rpc.serve) -------------
    def _do_alloc(self, node: Node, body: dict) -> dict:
        try:
            offset = self._allocators[node.id].alloc(
                HEADER_BYTES + body["size"])
        except DDSSError as exc:
            return {"error": str(exc)}
        seg = self._segments[node.id]
        # zero the header so locks start free and version at 0
        seg.write(offset, b"\x00" * HEADER_BYTES)
        return {"addr": seg.addr + offset, "rkey": seg.rkey}

    def _do_register(self, node: Node, body: dict) -> dict:
        key = body.get("key")
        reject = self._dir_reject(node, "register", key)
        if reject is not None:
            return reject
        meta: UnitMeta = body["meta"]
        meta = replace(meta,
                       key=key if key is not None
                       else next(self._next_key))
        self._directory[meta.key] = meta
        return {"meta": meta}

    def _do_lookup(self, node: Node, body: dict) -> dict:
        reject = self._dir_reject(node, "lookup", body["key"])
        if reject is not None:
            return reject
        meta = self._directory.get(body["key"])
        if meta is None:
            return {"error": f"unknown key {body['key']}"}
        return {"meta": meta}
