"""Multi-key transactions over DDSS: common client machinery.

A :class:`Txn` is a read-modify-write over a set of unit keys: the
client snapshots every key in the read set, runs ``compute`` over the
values, and publishes the returned write set (a subset of the read set)
atomically with respect to other transactions.  Two concurrency-control
variants share this base (the taxonomy of RDMA-enabled protocols —
one-sided OCC vs. lock-based 2PL):

* :class:`repro.txn.OCCTxnClient` — optimistic: snapshot, validate by
  CAS-claiming every write-set version word, re-check read-only
  versions, publish.
* :class:`repro.txn.TwoPLTxnClient` — pessimistic: acquire a per-key
  N-CoSED exclusive lock in canonical order first, then run the same
  claim/publish path (defense in depth: a revoked lease or a concurrent
  rebalance still surfaces as a version conflict, never as a lost
  update).

``TxnClient.run(txn)`` returns a simulation event whose value is a
:class:`TxnResult`; attempts that abort are retried with jittered
exponential backoff up to ``max_attempts``.  Every phase emits
``txn.*`` trace events carrying the transaction id, the attempt number,
and payload fingerprints — the material :class:`repro.verify.TxnOracle`
replays to check serializability offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.ddss.client import DDSSClient, _fingerprint
from repro.ddss.substrate import INSTALL_BIT
from repro.errors import (DDSSError, FaultError, LockError, RdmaError,
                          TimeoutError, TxnConflict, TxnError)
from repro.sim import Event, spawn_child

__all__ = ["Txn", "TxnResult", "TxnClient"]

#: abort-retry backoff (µs): initial, multiplier, cap
_RETRY_BACKOFF = (10.0, 2.0, 400.0)

#: failures that abort an attempt cleanly (unwound, retryable)
_ABORTABLE = (TxnConflict, LockError, DDSSError, FaultError, RdmaError,
              TimeoutError)

#: what posting a publish or a restore can fail with
_VERB_FAILURES = (DDSSError, FaultError, RdmaError)


@dataclass(frozen=True)
class Txn:
    """One read-modify-write transaction.

    ``reads`` names the unit keys to snapshot; ``compute`` maps the
    snapshot values (``key -> bytes``) to the write set (``key -> new
    bytes``, keys ⊆ reads).  ``compute`` must be pure — it may run once
    per attempt.
    """

    reads: Tuple[int, ...]
    compute: Callable[[Dict[int, bytes]], Dict[int, bytes]]
    label: str = "txn"

    def keys(self) -> Tuple[int, ...]:
        """The read set in canonical (sorted, deduplicated) order."""
        return tuple(sorted(set(self.reads)))


@dataclass
class TxnResult:
    """Outcome of one ``TxnClient.run``."""

    tid: int
    label: str
    committed: bool
    attempts: int
    writes: Tuple[int, ...] = ()
    wedged: bool = False
    reason: str = ""


def _raise_unless(results, tolerated=()) -> None:
    """Raise the first failure in a batch's ``(ok, value_or_exception)``
    results that is not one of the ``tolerated`` classes."""
    for ok, exc in results:
        if not ok and not isinstance(exc, tolerated):
            raise exc


class _Wedged(TxnError):
    """Internal: publish interrupted after part of the write set became
    durable — neither committed nor cleanly aborted."""

    def __init__(self, installed: Sequence[int], keys: Sequence[int]):
        super().__init__(
            f"publish wedged: {list(installed)} of {list(keys)} durable")
        self.installed = tuple(installed)
        self.keys = tuple(keys)


class TxnClient:
    """Common run/retry loop; variants implement :meth:`_attempt`."""

    VARIANT = "base"

    def __init__(self, store: DDSSClient, max_attempts: int = 8):
        if max_attempts < 1:
            raise TxnError("max_attempts must be >= 1")
        self.store = store
        self.node = store.node
        self.env = store.env
        self.max_attempts = max_attempts
        # outcome counters for benches and tests
        self.commits = 0
        self.aborts = 0   # transactions that exhausted their retries
        self.retries = 0  # aborted attempts that were retried
        self.wedges = 0

    # -- public API -----------------------------------------------------
    def run(self, txn: Txn) -> Event:
        """Execute ``txn``; the event's value is a :class:`TxnResult`."""
        return self.env.process(
            self._run(txn),
            name=f"txn-{self.VARIANT}@{self.node.name}")

    def init(self, key: int, data: bytes) -> Event:
        """Initialize a unit through the transactional path, so its
        first version carries a matching ``txn.install`` event."""
        return self.run(Txn(reads=(key,),
                            compute=lambda _vals: {key: bytes(data)},
                            label="init"))

    # -- run loop -------------------------------------------------------
    def _run(self, txn: Txn):
        keys = txn.keys()
        if not keys:
            raise TxnError("transaction has an empty read set")
        tid = (self.node.id << 20) | self.env.next_id("txn")
        if self.env.obs is not None:
            self._emit("txn.begin", tid=tid, variant=self.VARIANT,
                       keys=list(keys), label=txn.label)
        delay, mult, cap = _RETRY_BACKOFF
        for attempt in range(1, self.max_attempts + 1):
            try:
                writes = yield from self._attempt(txn, tid, attempt, keys)
            except _Wedged as exc:
                self.wedges += 1
                if self.env.obs is not None:
                    self._emit("txn.wedged", tid=tid, attempt=attempt,
                               installed=list(exc.installed),
                               keys=list(exc.keys))
                return TxnResult(tid=tid, label=txn.label, committed=False,
                                 attempts=attempt, wedged=True,
                                 reason=str(exc))
            except _ABORTABLE as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._emit("txn.abort", tid=tid, attempt=attempt,
                           reason=reason)
                self._count("txn.attempt_aborts")
                if attempt == self.max_attempts:
                    self.aborts += 1
                    self._count("txn.aborts")
                    return TxnResult(tid=tid, label=txn.label,
                                     committed=False, attempts=attempt,
                                     reason=reason)
                self.retries += 1
                yield self.env.timeout(delay * self._jitter(tid, attempt))
                delay = min(delay * mult, cap)
                continue
            self.commits += 1
            if self.env.obs is not None:
                self._count("txn.commits")
                self._emit("txn.commit", tid=tid, attempt=attempt,
                           keys=sorted(writes), attempts=attempt)
            return TxnResult(tid=tid, label=txn.label, committed=True,
                             attempts=attempt, writes=tuple(sorted(writes)))
        raise AssertionError("unreachable")  # pragma: no cover

    def _jitter(self, tid: int, attempt: int) -> float:
        """Back-off multiplier in [0.5, 1.5), a pure function of
        (cluster seed, tid, attempt).  Claims posted together have no
        canonical order to break a tie: two transactions that collide
        would otherwise retry in lockstep for ever (DESIGN.md §13)."""
        z = spawn_child(spawn_child(self.env.rng.seed, tid), attempt)
        return 0.5 + (z >> 11) / (1 << 53)

    def _attempt(self, txn: Txn, tid: int, attempt: int,
                 keys: Tuple[int, ...]):
        """One attempt; returns the write set or raises to abort."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared phases --------------------------------------------------
    # Each phase posts its verbs for every key at once and waits one
    # round trip (DESIGN.md §13); the phases themselves stay in order.
    def _read_phase(self, tid: int, attempt: int, keys: Sequence[int]):
        """Snapshot every key; returns ``key -> (version, bytes)``."""
        snaps: Dict[int, Tuple[int, bytes]] = {}
        results = yield from self.store.snapshot_all(keys)
        _raise_unless(results)
        obs = self.env.obs
        for k, (_ok, (version, data)) in zip(keys, results):
            data = bytes(data)
            snaps[k] = (version, data)
            if obs is not None:
                self._emit("txn.read", tid=tid, attempt=attempt, key=k,
                           version=version, nbytes=len(data),
                           data=_fingerprint(data))
        return snaps

    def _compute(self, txn: Txn,
                 snaps: Dict[int, Tuple[int, bytes]]) -> Dict[int, bytes]:
        writes = dict(txn.compute({k: v[1] for k, v in snaps.items()}))
        outside = sorted(set(writes) - set(snaps))
        if outside:
            raise TxnError(
                f"{txn.label}: write set outside read set: {outside}")
        return writes

    def _claim_and_validate(self, tid: int, attempt: int,
                            snaps: Dict[int, Tuple[int, bytes]],
                            writes: Dict[int, bytes]):
        """CAS-claim the whole write set at the snapshot versions, then
        — strictly after every claim has landed — re-check the
        read-only versions.  On any failure the claims that landed are
        unwound before re-raising."""
        wkeys = sorted(writes)
        claimed: List[int] = []
        try:
            results = yield from self.store.install_lock_all(
                [(k, snaps[k][0]) for k in wkeys])
            claimed = [k for k, (ok, _) in zip(wkeys, results) if ok]
            _raise_unless(results)
            rkeys = [k for k in sorted(snaps) if k not in writes]
            if rkeys:
                results = yield from self.store.peek_version_all(rkeys)
                _raise_unless(results)
                for k, (_ok, word) in zip(rkeys, results):
                    if word != snaps[k][0]:
                        raise TxnConflict(
                            f"read-set key {k}: version "
                            f"{word & ~INSTALL_BIT} != snapshot "
                            f"{snaps[k][0]}")
        except Exception:
            if self.env.obs is not None:
                self._emit("txn.validate", tid=tid, attempt=attempt, ok=False)
            yield from self._unwind(claimed, snaps)
            raise
        if self.env.obs is not None:
            self._emit("txn.validate", tid=tid, attempt=attempt, ok=True)
        return wkeys

    def _unwind(self, claimed: Sequence[int],
                snaps: Dict[int, Tuple[int, bytes]]):
        if not claimed:
            return
        # a restore that failed leaves the word busy: readers conflict
        # instead of seeing torn state — liveness lost, safety kept
        _raise_unless((yield from self.store.install_abort_all(
            [(k, snaps[k][0]) for k in claimed])), _VERB_FAILURES)

    def _publish(self, tid: int, attempt: int,
                 snaps: Dict[int, Tuple[int, bytes]],
                 writes: Dict[int, bytes], wkeys: Sequence[int]):
        """Publish every claimed key, each with one atomic ``(version,
        data)`` write.  A publish that lands is the commit point: when
        none did, the claims unwind to a clean abort; when some did and
        some failed, the failed keys' claims stay in place (wedged —
        readers of the unpublished keys conflict rather than observe a
        torn write set)."""
        try:
            results = yield from self.store.install_publish_all(
                [(k, snaps[k][0], writes[k]) for k in wkeys])
        except _VERB_FAILURES as exc:  # refused before any post
            results = [(False, exc)] * len(wkeys)
        installed: List[int] = []
        failed = None
        obs = self.env.obs
        for k, (ok, newv) in zip(wkeys, results):
            if not ok:
                failed = failed or (k, newv)
                continue
            installed.append(k)
            if obs is not None:
                self._emit("txn.install", tid=tid, attempt=attempt, key=k,
                           version=newv, nbytes=len(writes[k]),
                           data=_fingerprint(bytes(writes[k]) + b"\x00" * (
                               self._pad(k) - len(writes[k]))))
        _raise_unless(results, _VERB_FAILURES)
        if failed is not None:
            k, exc = failed
            if installed:
                raise _Wedged(installed, wkeys) from exc
            yield from self._unwind(wkeys, snaps)
            raise TxnConflict(
                f"publish of key {k} failed with nothing durable: "
                f"{type(exc).__name__}") from exc
        return installed

    def _pad(self, key: int) -> int:
        meta = self.store._meta_cache.get(key)
        return meta.size if meta is not None else 0

    # -- observability --------------------------------------------------
    def _emit(self, etype: str, **fields) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.node.id, **fields)

    def _count(self, name: str) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.metrics.counter(name, node=self.node.id).inc()
