"""DDSS client: coherence-aware ``get``/``put`` over one-sided RDMA.

One client per (node, attachment).  Control operations round-trip to the
daemons; the data path touches the home segment with RDMA reads, writes
and atomics only — the home node's CPU is never involved.

All public operations return simulation events whose value is the
operation result; use them from processes::

    key  = yield client.allocate(128, coherence=Coherence.VERSION)
    yield client.put(key, b"abc")
    data = yield client.get(key)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from typing import Dict, Optional, Tuple, Union

from repro.errors import (CoherenceError, DDSSError, FaultError, RdmaError,
                          StaleHomeError, TxnConflict)
from repro.net.node import Node
from repro.sim import Event, settle
from repro.transport import rpc

from repro.ddss.coherence import Coherence
from repro.ddss.substrate import (
    DDSS,
    HEADER_BYTES,
    INSTALL_BIT,
    LOCK_OFF,
    TOMBSTONE,
    UnitMeta,
    VERSION_OFF,
)

__all__ = ["DDSSClient"]

#: lock spin backoff (µs): initial, multiplier, cap
_BACKOFF = (2.0, 2.0, 50.0)

#: snapshot reads retry past a concurrent install this many times
#: before surfacing TxnConflict
_SNAP_SPINS = 16

#: tombstone chases (stale home -> directory re-resolve) before giving up
_MAX_CHASES = 4


KeyOrMeta = Union[int, UnitMeta]

#: payloads up to this many bytes are traced as full hex (enables prefix
#: matching in the offline oracles); larger ones fall back to a digest
_FP_MAX = 64


def _fingerprint(data: bytes) -> str:
    if len(data) <= _FP_MAX:
        return data.hex()
    return "b2:" + hashlib.blake2b(data, digest_size=16).hexdigest()


def _word(result) -> int:
    """The version word in a verb's result: a CAS returns the old word,
    a read that starts at ``VERSION_OFF`` leads with it."""
    if type(result) is int:
        return result
    return int.from_bytes(result[:8], "big")


class _TombstoneRead(Exception):
    """Internal: a snapshot read found the unit's version tombstoned
    (the unit was rebalanced away); the caller re-resolves and retries."""


class DDSSClient:
    """Per-node handle onto the substrate."""

    def __init__(self, ddss: DDSS, node: Node):
        self.ddss = ddss
        self.node = node
        self.env = node.env
        self._meta_cache: Dict[int, UnitMeta] = {}
        #: local copies for DELTA/TEMPORAL: key -> (version, data, at)
        self._data_cache: Dict[int, Tuple[int, bytes, float]] = {}
        #: key -> daemon node id that last served a directory op for it
        #: (goes stale on a shard rebalance; healed by bounce replies)
        self._dir_cache: Dict[int, int] = {}
        #: key -> the last version this client stamped on a READ unit
        self._local_versions: Dict[int, int] = {}
        #: distinct nonzero token so lock ownership is attributable;
        #: drawn from the environment (not a process global) so the
        #: value — which reaches the trace — is per-run deterministic
        self._token = (node.id << 20) | self.env.next_id("ddss-owner")
        # op counters for benches
        self.gets = 0
        self.puts = 0
        self.cache_hits = 0
        self.failovers = 0  # copies skipped as unreachable (get or put)
        self.stale_retries = 0  # tombstone hits re-resolved via directory

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def allocate(self, size: int, coherence: Coherence = Coherence.NULL,
                 placement: Optional[int] = None, delta: int = 2,
                 ttl_us: float = 1000.0, replicas: int = 0) -> Event:
        """Allocate a shared unit; event value is its integer key.

        ``replicas`` additional copies are placed on distinct members
        (ring order after the primary), enabling put/get failover.
        Locked coherence models cannot be replicated: their lock word
        lives on a single home.  ``delta`` must be >= 0 and ``ttl_us``
        finite and >= 0: either bound out of range raises
        :class:`DDSSError` before any message is sent.
        """
        return self._proc(self._allocate(size, coherence, placement,
                                         delta, ttl_us, replicas),
                          "ddss-alloc")

    def _allocate(self, size, coherence, placement, delta, ttl_us,
                  replicas=0):
        if size <= 0:
            raise DDSSError("allocation size must be positive")
        # an unmeetable bound would make a unit that never serves from
        # its cache (``version - cached <= -1``, ``age <= nan``)
        if delta < 0:
            raise DDSSError(f"delta must be >= 0, got {delta}")
        if not 0.0 <= ttl_us < math.inf:
            raise DDSSError(f"ttl_us must be finite and >= 0, got {ttl_us}")
        if replicas < 0:
            raise DDSSError("replica count must be non-negative")
        if replicas and (coherence.locks_writes or coherence.locks_reads):
            raise DDSSError(
                f"{coherence.name} units cannot be replicated: the lock "
                f"word lives on a single home")
        dir_node, new_key = self.ddss.register_target()
        home = self.ddss.data_home(new_key, placement)
        rep_homes = self.ddss.replica_homes(home, replicas)
        reply = yield from self._control(home, {"op": "alloc", "size": size})
        copies = []
        for rep in rep_homes:
            r = yield from self._control(rep, {"op": "alloc", "size": size})
            copies.append((rep, r["addr"], r["rkey"]))
        meta = UnitMeta(key=0, home=home, addr=reply["addr"],
                        rkey=reply["rkey"], size=size, coherence=coherence,
                        delta=delta, ttl_us=ttl_us, replicas=tuple(copies))
        body = {"op": "register", "meta": meta}
        if new_key is not None:
            # sharded directory: the key is pre-assigned so the register
            # can route to its ring owner (and survive a stale map)
            body["key"] = new_key
            reply = yield from self._control_dir(new_key, body)
        else:
            reply = yield from self._control(dir_node, body)
        meta = reply["meta"]
        self._meta_cache[meta.key] = meta
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("ddss.alloc", node=self.node.id, key=meta.key,
                           model=meta.coherence.name, nbytes=meta.size,
                           delta=meta.delta, ttl_us=meta.ttl_us,
                           replicas=len(meta.replicas))
        return meta.key

    def free(self, key: int) -> Event:
        """Release a unit (directory entry + home segment block)."""
        return self._proc(self._free(key), "ddss-free")

    def _free(self, key):
        reply = yield from self._control_dir(
            key, {"op": "unregister", "key": key})
        meta: UnitMeta = reply["meta"]
        yield from self._control(meta.home,
                                 {"op": "free_unit", "addr": meta.addr})
        for rep_home, rep_addr, _rkey in meta.replicas:
            yield from self._control(rep_home,
                                     {"op": "free_unit", "addr": rep_addr})
        self._meta_cache.pop(key, None)
        self._data_cache.pop(key, None)
        self._dir_cache.pop(key, None)
        return None

    def lookup(self, key: int) -> Event:
        """Resolve a key to its UnitMeta (cached after first use)."""
        return self._proc(self._lookup(key), "ddss-lookup")

    def _lookup(self, key):
        meta = self._meta_cache.get(key)
        if meta is None:
            reply = yield from self._control_dir(
                key, {"op": "lookup", "key": key})
            meta = reply["meta"]
            self._meta_cache[key] = meta
        return meta

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def put(self, key: KeyOrMeta, data: bytes) -> Event:
        """Publish ``data`` into the unit under its coherence model."""
        ev = self._proc(self._put(key, data), "ddss-put")
        obs = self.env.obs
        if obs is not None:
            obs.latency(ev, "ddss.put_us", self.node.id)
        return ev

    def _put(self, key, data):
        t0 = self.env.now
        meta = yield from self._meta(key)
        if len(data) > meta.size:
            raise DDSSError(
                f"put of {len(data)} bytes into unit of {meta.size}")
        self.puts += 1
        self._obs_op("ddss.put", meta.key)
        if meta.replicas:
            version = yield from self._put_replicated(meta, data)
        else:
            version = yield from self._put_primary(meta, data)
        self._obs_data_done("ddss.put.done", meta, t0, version, data)
        return None

    def _put_primary(self, meta: UnitMeta, data: bytes):
        """Single-copy put; returns the committed version (None when the
        model carries no version counter).

        The version-carrying models detect a rebalance here: a
        ``TOMBSTONE`` in the version word means the unit moved (live
        ring rebalance, not just dead-home eviction), so the put
        re-resolves through the directory and retries at the new home.
        """
        nic = self.node.nic
        model = meta.coherence
        if model.locks_writes:
            while True:
                yield from self._spin_lock(meta)
                yield nic.rdma_write(meta.home, meta.data_addr,
                                     meta.rkey, data)
                version = yield from self._read_version(meta)
                if version == TOMBSTONE:
                    # moved under us: the write above landed in the
                    # quarantined block (harmless); redo at the new home
                    yield from self._unlock(meta)
                    meta = yield from self._rehome(meta.key)
                    continue
                yield nic.rdma_write(
                    meta.home, meta.addr + VERSION_OFF, meta.rkey,
                    (version + 1).to_bytes(8, "big"))
                yield from self._unlock(meta)
                return version + 1
        if model.versioned:
            while True:
                # fetch-and-add orders this write among concurrent
                # writers and hands us the new version for free
                old = yield nic.faa(meta.home, meta.addr + VERSION_OFF,
                                    meta.rkey, 1)
                if old == TOMBSTONE:
                    # the faa wrapped the tombstone to 0: restore the
                    # marker for other stale clients, then re-resolve
                    yield nic.cas(meta.home, meta.addr + VERSION_OFF,
                                  meta.rkey, 0, TOMBSTONE)
                    meta = yield from self._rehome(meta.key)
                    continue
                yield nic.rdma_write(meta.home, meta.data_addr,
                                     meta.rkey, data)
                if model.cacheable:  # DELTA: our write is the freshest
                    self._data_cache[meta.key] = (old + 1, bytes(data),
                                                  self.env.now)
                return old + 1
        if model is Coherence.READ:
            # single combined (version, data) write = atomic snapshot
            version = self._next_local_version(meta.key)
            blob = version.to_bytes(8, "big") + data
            yield nic.rdma_write(meta.home, meta.addr + VERSION_OFF,
                                 meta.rkey, blob)
            return version
        # NULL, TEMPORAL
        yield nic.rdma_write(meta.home, meta.data_addr, meta.rkey, data)
        if model is Coherence.TEMPORAL:
            self._data_cache[meta.key] = (0, bytes(data), self.env.now)
        return None

    def get(self, key: KeyOrMeta, length: Optional[int] = None) -> Event:
        """Fetch the unit's data (or its first ``length`` bytes)."""
        ev = self._proc(self._get(key, length), "ddss-get")
        obs = self.env.obs
        if obs is not None:
            obs.latency(ev, "ddss.get_us", self.node.id)
        return ev

    def _get(self, key, length):
        t0 = self.env.now
        meta = yield from self._meta(key)
        n = meta.size if length is None else length
        if n > meta.size:
            raise DDSSError(f"get of {n} bytes from unit of {meta.size}")
        self.gets += 1
        self._obs_op("ddss.get", meta.key)
        model = meta.coherence

        if model is Coherence.TEMPORAL:
            cached = self._data_cache.get(meta.key)
            if cached is not None and (self.env.now - cached[2]) <= meta.ttl_us:
                self.cache_hits += 1
                self._obs_op("ddss.cache_hit", meta.key)
                data = cached[1][:n]
                self._obs_data_done("ddss.get.done", meta, t0, None, data,
                                    hit=True, age_us=self.env.now - cached[2])
                return data

        while True:
            last_exc = None
            moved = False
            for view in self._views(meta):
                try:
                    data, version, hit, age_us = \
                        yield from self._get_at(view, n)
                except _TombstoneRead:
                    # live rebalance moved the unit: re-resolve and
                    # restart (replicated units are never migrated, so
                    # there is no other copy worth trying first)
                    meta = yield from self._rehome(meta.key)
                    moved = True
                    break
                except (RdmaError, FaultError) as exc:
                    self.failovers += 1
                    last_exc = exc
                    continue
                self._obs_data_done("ddss.get.done", meta, t0, version,
                                    data, hit=hit, age_us=age_us)
                return data
            if moved:
                continue
            raise DDSSError(
                f"unit {meta.key}: no reachable copy "
                f"({1 + len(meta.replicas)} tried)") from last_exc

    def _get_at(self, meta: UnitMeta, n: int):
        """One read attempt against one copy (``meta`` homes the copy).

        Returns ``(data, version, hit, age_us)``; version is ``None``
        when the model carries no version counter on the read path.
        """
        nic = self.node.nic
        model = meta.coherence

        if model is Coherence.DELTA:
            cached = self._data_cache.get(meta.key)
            if cached is not None:
                version = yield from self._read_version(meta)
                if version - cached[0] <= meta.delta:
                    self.cache_hits += 1
                    self._obs_op("ddss.cache_hit", meta.key)
                    return (cached[1][:n], cached[0], True,
                            self.env.now - cached[2])

        if model.locks_reads:
            yield from self._spin_lock(meta)
            data = yield nic.rdma_read(meta.home, meta.data_addr,
                                       meta.rkey, n)
            yield from self._unlock(meta)
            return data, None, False, None

        if model in (Coherence.READ, Coherence.VERSION, Coherence.DELTA):
            # one read covering (version, data): an atomic snapshot
            blob = yield nic.rdma_read(meta.home, meta.addr + VERSION_OFF,
                                       meta.rkey, 8 + n)
            version = int.from_bytes(blob[:8], "big")
            if version == TOMBSTONE:
                raise _TombstoneRead(meta.key)
            data = blob[8:]
            if model.cacheable:
                self._data_cache[meta.key] = (version, bytes(data),
                                              self.env.now)
            return data, version, False, None

        data = yield nic.rdma_read(meta.home, meta.data_addr, meta.rkey, n)
        if model is Coherence.TEMPORAL:
            self._data_cache[meta.key] = (0, bytes(data), self.env.now)
        return data, None, False, None

    @staticmethod
    def _views(meta: UnitMeta):
        """The unit as seen through each copy, primary first."""
        if not meta.replicas:
            return (meta,)
        return tuple(
            replace(meta, home=h, addr=a, rkey=rk, replicas=())
            for h, a, rk in meta.copies)

    def _put_replicated(self, meta: UnitMeta, data: bytes):
        """Write every reachable copy; at least one must succeed.

        The version is ordered by a fetch-and-add on the first live
        copy, alone; then every copy is written at once (the remaining
        copies take version and data as one snapshot blob).  A put that
        could not reach any copy raises :class:`DDSSError`.  Copies on a
        crashed node are *not* reconciled on restart — callers that
        need that must re-put (documented limitation).
        """
        nic = self.node.nic
        model = meta.coherence
        copies = meta.copies
        version = None
        faa_at = None
        if model.versioned:
            for copy in copies:
                home, addr, rkey = copy
                try:
                    old = yield nic.faa(home, addr + VERSION_OFF, rkey, 1)
                except (RdmaError, FaultError):
                    self.failovers += 1
                    continue
                version = old + 1
                faa_at = copy
                break
            if version is None:
                raise DDSSError(
                    f"unit {meta.key}: no reachable copy to version put")
        elif model is Coherence.READ:
            version = self._next_local_version(meta.key)
        blob = None if version is None else version.to_bytes(8, "big") + data
        # the copy the FAA versioned (and every copy of an unversioned
        # NULL/TEMPORAL unit) takes the bare data, the others one
        # (version, data) snapshot blob
        wrote = yield from self._write_copies(
            [(home, addr + HEADER_BYTES, rkey, data)
             if blob is None or (home, addr, rkey) == faa_at
             else (home, addr + VERSION_OFF, rkey, blob)
             for home, addr, rkey in copies])
        if wrote == 0:
            raise DDSSError(f"unit {meta.key}: put reached no copy")
        if model.cacheable:  # our write is the freshest copy
            self._data_cache[meta.key] = (version or 0, bytes(data),
                                          self.env.now)
        return version

    def _write_copies(self, writes):
        """Post every ``(home, addr, rkey, payload)`` write together and
        wait for all; returns how many landed.  An unreachable copy is
        a failover, not an error."""
        nic = self.node.nic
        wrote = 0
        for ok, exc in (yield from settle(
                [nic.rdma_write(*write) for write in writes])):
            if ok:
                wrote += 1
            elif isinstance(exc, (RdmaError, FaultError)):
                self.failovers += 1
            else:
                raise exc
        return wrote

    def get_version(self, key: KeyOrMeta) -> Event:
        """Read the unit's version counter."""
        return self._proc(self._get_version(key), "ddss-version")

    def _get_version(self, key):
        meta = yield from self._meta(key)
        version = yield from self._read_version(meta)
        return version

    # -- explicit unit locks (DDSS "locking mechanisms" module) ---------
    def acquire(self, key: KeyOrMeta) -> Event:
        """Take the unit's lock (spin with exponential backoff)."""
        return self._proc(self._acquire(key), "ddss-acquire")

    def _acquire(self, key):
        meta = yield from self._meta(key)
        yield from self._spin_lock(meta)
        return None

    def release(self, key: KeyOrMeta) -> Event:
        return self._proc(self._release(key), "ddss-release")

    def _release(self, key):
        meta = yield from self._meta(key)
        yield from self._unlock(meta)
        return None

    # ------------------------------------------------------------------
    # transactional install path (repro.txn)
    # ------------------------------------------------------------------
    # The version word doubles as an install lock: CAS ``v -> v|BUSY``
    # claims the key at snapshot version ``v``; a single combined
    # ``(v+1, data)`` write publishes atomically and releases the busy
    # bit.  A tombstoned word (unit rebalanced away) makes every
    # primitive re-resolve the key through the directory and retry at
    # the new home — an install can never land at a stale location.
    #
    # Every primitive is batch-first: ``*_all`` returns a generator the
    # caller's process runs with ``yield from``.  It posts one verb per
    # key at one instant, waits one round trip for all of them and
    # returns one ``(ok, value_or_exception)`` per key, so the caller
    # knows which keys landed.

    def snapshot_all(self, keys):
        """Atomic ``(version, data)`` reads; each spins past a concurrent
        install (bounded, then :class:`TxnConflict`)."""
        nic = self.node.nic
        return self._round(
            keys, lambda meta, _i: nic.rdma_read(
                meta.home, meta.addr + VERSION_OFF, meta.rkey,
                8 + meta.size),
            lambda _i, word, blob: (word, blob[8:]), spin=True)

    def peek_version_all(self, keys):
        """Raw version words (may carry ``INSTALL_BIT``); tombstones are
        chased to each unit's current home."""
        nic = self.node.nic
        return self._round(
            keys, lambda meta, _i: nic.rdma_read(
                meta.home, meta.addr + VERSION_OFF, meta.rkey, 8),
            lambda _i, word, _blob: word)

    def install_lock_all(self, claims):
        """Claim each key for install at snapshot version ``expected``;
        ``claims`` is ``[(key, expected)]``.  A key fails with
        :class:`TxnConflict` when its version moved (or another install
        holds the word)."""
        return self._cas_all(
            [(key, v, v | INSTALL_BIT) for key, v in claims],
            lambda key, expected, old: TxnConflict(
                f"unit {key}: version {old & ~INSTALL_BIT} != expected "
                f"{expected}"
                + (" (install in flight)" if old & INSTALL_BIT else "")))

    def install_abort_all(self, claims):
        """Unwind claimed installs: restore each ``expected`` into its
        word; ``claims`` is ``[(key, expected)]``."""
        return self._cas_all(
            [(key, v | INSTALL_BIT, v) for key, v in claims],
            lambda key, busy, old: CoherenceError(
                f"unit {key}: install-abort found word {old:#x}, "
                f"expected busy {busy & ~INSTALL_BIT}"))

    def install_publish_all(self, installs):
        """Publish each ``data`` as version ``expected + 1``; the value
        per key is the new version.  ``installs`` is
        ``[(key, expected, data)]``.

        Requires the install lock taken by :meth:`install_lock_all` at
        ``expected``.  One combined ``(version, data)`` write commits
        the bytes and releases the busy bit atomically; the payload is
        zero-padded to the unit size so a snapshot's fingerprint always
        matches the install's.  The substrate never rebalances a busy
        unit, so the write cannot race a tombstone.  An oversize
        payload raises before anything is posted."""
        metas = yield from self._metas([key for key, _v, _d in installs])
        blobs = []
        for meta, (_key, expected, data) in zip(metas, installs):
            if len(data) > meta.size:
                raise DDSSError(
                    f"install of {len(data)} bytes into unit of {meta.size}")
            blobs.append((expected + 1).to_bytes(8, "big") + bytes(data)
                         + b"\x00" * (meta.size - len(data)))
        nic = self.node.nic
        results = yield from settle([
            nic.rdma_write(meta.home, meta.addr + VERSION_OFF, meta.rkey,
                           blob) for meta, blob in zip(metas, blobs)])
        return [(ok, expected + 1 if ok else exc)
                for (_k, expected, _d), (ok, exc) in zip(installs, results)]

    def _cas_all(self, swaps, lost):
        """CAS every key's version word together; ``swaps`` is
        ``[(key, compare, swap)]``.  A key whose word was not
        ``compare`` fails with ``lost(key, compare, old)``."""
        nic = self.node.nic

        def post(meta, i):
            _key, compare, swap = swaps[i]
            return nic.cas(meta.home, meta.addr + VERSION_OFF, meta.rkey,
                           compare, swap)

        def verdict(i, old, _result):
            key, compare, _swap = swaps[i]
            if old != compare:
                raise lost(key, compare, old)

        return self._round([swap[0] for swap in swaps], post, verdict)

    def _round(self, keys, post, value, spin=False):
        """One batched round trip against every key's version word.

        Resolves each key, posts ``post(meta, i)`` for all of them at
        one instant and waits for every completion.  A key the round
        trip could not answer is finished alone by
        :meth:`_resolve_word`; the key's value is then
        ``value(i, word, result)``, which may raise its failure.
        """
        metas = yield from self._metas(keys)
        results = yield from settle(
            [post(meta, i) for i, meta in enumerate(metas)])
        for i, (ok, res) in enumerate(results):
            if not ok:
                continue
            try:
                word = _word(res)
                if word == TOMBSTONE or (spin and word & INSTALL_BIT):
                    word, res = yield from self._resolve_word(
                        metas[i], i, post, spin, res)
                results[i] = (True, value(i, word, res))
            except Exception as exc:
                results[i] = (False, exc)
        return results

    def _resolve_word(self, meta, i, post, spin, res):
        """One key's slow path, entered with its opening result: a
        tombstoned word re-resolves the key and re-posts at the new
        home (bounded by :meth:`_rehome`); with ``spin`` an install in
        flight is re-read after a back-off (bounded, then
        :class:`TxnConflict`)."""
        delay, mult, cap = _BACKOFF
        spins = 0
        while True:
            word = _word(res)
            if word == TOMBSTONE:
                meta = yield from self._rehome(meta.key)
            elif spin and word & INSTALL_BIT:
                spins += 1
                if spins > _SNAP_SPINS:
                    raise TxnConflict(
                        f"unit {meta.key}: install in flight "
                        f"({spins} snapshot retries)")
                yield self.env.timeout(delay)
                delay = min(delay * mult, cap)
            else:
                return word, res
            res = yield post(meta, i)

    def _rehome(self, key: int):
        """Tombstone hit: drop the cached meta and re-resolve, bounded."""
        for _ in range(_MAX_CHASES):
            self.stale_retries += 1
            self._meta_cache.pop(key, None)
            meta = yield from self._lookup(key)
            word = yield from self._read_version(meta)
            if word != TOMBSTONE:
                return meta
        raise StaleHomeError(
            f"unit {key}: still tombstoned after {_MAX_CHASES} "
            f"directory re-resolves")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _proc(self, gen, name):
        return self.env.process(gen, name=f"{name}@{self.node.name}")

    def _meta(self, key: KeyOrMeta):
        if isinstance(key, UnitMeta):
            return key
            yield  # pragma: no cover - makes this a generator
        meta = yield from self._lookup(key)
        return meta

    def _metas(self, keys):
        """Resolve every key; only an uncached one costs a lookup."""
        cache = self._meta_cache
        metas = [cache.get(key) for key in keys]
        if not all(metas):
            for i, key in enumerate(keys):
                if metas[i] is None:
                    metas[i] = yield from self._meta(key)
        return metas

    def _control(self, node_id: int, body: dict):
        """Control request to a member daemon over the one request path
        (:mod:`repro.transport.rpc`: under a fault injector it has a
        deadline, bounded retry and at-most-once execution)."""
        reply = yield rpc.call(self.node.nic, node_id, self.ddss.WIRE_TAG,
                               body)
        if "error" in reply:
            raise DDSSError(reply["error"])
        return reply

    def _control_dir(self, key: int, body: dict):
        """Directory RPC routed by key, chasing shard-map bounces.

        The daemon for a key comes from the last daemon that served it
        (cached) or the substrate's routing function.  A daemon that no
        longer owns the key replies ``{"bounce": epoch, "owner": id}``
        instead of an error, and we chase the owner hint a bounded
        number of times — the same shape as the data plane's tombstone
        chase in :meth:`_rehome`.  On a flat directory nothing ever
        bounces and this is exactly one :meth:`_control` round trip.
        """
        target = self._dir_cache.get(key)
        if target is None:
            target = self.ddss.dir_node(key)
        for _ in range(_MAX_CHASES):
            reply = yield from self._control(target, body)
            if "bounce" not in reply:
                self._dir_cache[key] = target
                return reply
            self.stale_retries += 1
            self._obs_bounce(key, target, reply["owner"], reply["bounce"])
            target = reply["owner"]
        raise StaleHomeError(
            f"directory op for key {key}: still bouncing after "
            f"{_MAX_CHASES} owner chases")

    def _obs_bounce(self, key: int, frm: int, to: int, ep: int) -> None:
        obs = self.env.obs
        if obs is None:
            return
        obs.trace.emit("shard.bounce", node=self.node.id, key=key,
                       frm=frm, to=to, ep=ep)
        obs.metrics.counter("shard.bounces", node=self.node.id).inc()

    def _read_version(self, meta: UnitMeta):
        blob = yield self.node.nic.rdma_read(
            meta.home, meta.addr + VERSION_OFF, meta.rkey, 8)
        return int.from_bytes(blob, "big")

    def _spin_lock(self, meta: UnitMeta):
        delay, mult, cap = _BACKOFF
        while True:
            old = yield self.node.nic.cas(
                meta.home, meta.addr + LOCK_OFF, meta.rkey, 0, self._token)
            if old == 0:
                self._obs_lock("ddss.lock.acquire", meta)
                return
            yield self.env.timeout(delay)
            delay = min(delay * mult, cap)

    def _unlock(self, meta: UnitMeta):
        # Emitted at CAS *issue*, not completion: the claimed hold
        # interval [acquire-completion, release-issue] then sits strictly
        # inside the physical hold, so disjoint holds stay disjoint in
        # the trace even when completion notifications reorder (a
        # cross-rack release ack can arrive after a rack-local
        # acquire ack under uplink contention).
        self._obs_lock("ddss.lock.release", meta)
        old = yield self.node.nic.cas(
            meta.home, meta.addr + LOCK_OFF, meta.rkey, self._token, 0)
        if old != self._token:
            raise CoherenceError(
                f"unlock by non-owner: lock word was {old:#x}, "
                f"expected {self._token:#x}")

    # -- observability ---------------------------------------------------
    def _obs_op(self, etype: str, key: int) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.node.id, key=key)
            obs.metrics.counter(f"{etype}s", node=self.node.id).inc()

    def _obs_data_done(self, etype: str, meta: UnitMeta, t0: float,
                       version: Optional[int], data: bytes,
                       **extra) -> None:
        """Completion event for the offline coherence oracles: the op's
        [t0, now] interval, the committed/observed version, and a
        payload fingerprint."""
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.node.id, key=meta.key,
                           model=meta.coherence.name, t0=t0,
                           version=version, nbytes=len(data),
                           data=_fingerprint(bytes(data)), **extra)

    def _obs_lock(self, etype: str, meta: UnitMeta) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.node.id, home=meta.home,
                           addr=meta.addr + LOCK_OFF, token=self._token)

    def _next_local_version(self, key: int) -> int:
        counters = self._local_versions
        counters[key] = counters.get(key, 0) + 1
        return counters[key]
