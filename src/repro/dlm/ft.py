"""The lock substrate: one word layout, lease/epoch fencing, recovery.

Every arena design (N-CoSED, RDMA-MCS, ALock) is a set of hooks over
this module; nothing here knows which one it is serving.

Word layout
-----------

Every home-resident word is ``epoch:16 | tail:24 | count:24``
(:func:`pack` / :func:`unpack`; a hot path shifts the fields in place,
which needs no range check because ``_register`` caps tokens at 24
bits).  Every CAS embeds an epoch (guessed
or returned by a lost CAS; no scheme reads a word it is about to CAS),
so an attempt racing a reclaim simply loses the CAS; every FAA
*returns* the epoch at its execution instant, so a requester detects
that its increment landed on (or was wiped with) a stale generation.

Recovery (active when the manager has a ``lease_us``)
-----------------------------------------------------

* A manager-wide **reaper** sweeps, every lease period, the locks with
  business: a holder, an attempt, a suspect flag, or words not yet seen
  empty since the last attempt.  When a lock's tail, a granted holder,
  or a client with an in-flight protocol operation sits on a crashed
  node, when the tail token belongs to nobody with business on the lock
  (residue of an aborted attempt), or when a client flagged the lock
  *suspect*, the words are wiped to ``(epoch+1, 0, 0…)`` at a single
  instant and all current grants are revoked Chubby-style: the ledger
  entries end at the reclaim, and a surviving holder discovers the
  revocation when it releases.  The wipe is home-local, so remote
  atomics land strictly before or after it.
* Waits are bounded by the lease; on expiry the waiter re-reads the
  word and restarts its attempt if the epoch moved.  Protocol messages
  carry the epoch of the tenure they belong to; stale ones are
  discarded.  Peer messages are re-sent a bounded number of times on
  injected drops and de-duplicated by a per-message uid at the
  receiver.
* ``acquire`` retries a bounded number of attempts with backoff and
  raises :class:`~repro.errors.LockError` when the budget is exhausted:
  it completes or fails, it never hangs.  An attempt cut off by a fault
  flags the lock suspect: its tail CAS may have landed at the home
  although its completion was fenced by the home's crash, and the next
  requester would queue behind a ghost that will never hand off (the
  ghost is soon no longer the tail, so the orphan rule never fires).

The epoch doubles as a fencing token: an application that tags its
writes with the grant epoch can have stale holders rejected downstream.

Without a lease the same code runs with the epoch pinned at 0: no
reaper, unbounded waits, plain sends, every epoch compare vacuous.  The
only places that ask which configuration they are in are this module's
leaves (:meth:`EpochFencedClient._wait_msg`, ``_peer_call`` and the
acquire/release wrappers).

Scheme hooks
------------

Managers name their words (``WORDS``, ``WORD_STRIDE``: the base's
word table) and may override:

* ``_ft_tails(lock_id)``   — tail tokens currently named by the lock's
  word(s); an orphaned tail (no holder, no active attempt) is residue.
  Default: the first word's tail.
* ``_ft_extra_reclaim(lock_id)`` — an extra residue predicate (e.g.
  ALock's orphaned tournament flags).

A reclaim wipes every word of the lock to ``pack(new_ep, 0, 0)``
(home-local, zero simulated time), which is every design's empty word.

Clients implement ``_attempt_acquire(lock_id, mode)`` (a generator
returning ``(ep, extra)`` where ``extra`` rides on the grant event) and
``_attempt_release(lock_id, ep)``; the base provides the bounded-retry
wrapper, revocation handling, epoch-checked waits, reliable peer send,
and the local-spin signal used to model one-sided hand-off detection.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import FaultError, LockError, RdmaError
from repro.net.node import Node
from repro.sim import AnyOf

from repro.dlm.base import _F24, LockClient, LockManagerBase, LockMode

__all__ = ["EpochFencedManager", "EpochFencedClient", "pack", "unpack"]

_EP_MASK = 0xFFFF

#: receiver-side dedup window for reliably re-sent protocol messages
_UID_WINDOW = 512
#: acquire attempts before ``acquire`` raises :class:`LockError`
MAX_ATTEMPTS = 12
#: sends of one peer protocol message before the lock is flagged suspect
SEND_ATTEMPTS = 6


def pack(epoch: int, tail: int, count: int) -> int:
    if tail < 0 or tail > _F24 or count < 0 or count > _F24:
        raise LockError(f"word fields out of range: tail={tail} n={count}")
    return ((epoch & _EP_MASK) << 48) | (tail << 24) | count


def unpack(word: int):
    return (word >> 48) & _EP_MASK, (word >> 24) & _F24, word & _F24


class _Stale(Exception):
    """Internal: the attempt raced a reclaim; restart from scratch."""


class EpochFencedManager(LockManagerBase):
    """Home state + reaper shared by the epoch-fenced arena schemes.

    Pass ``lease_us`` for fault-tolerant mode; without it the epoch is
    pinned at 0, waits are unbounded, and the reaper never runs (the
    wire protocol is unchanged — non-FT mode is just FT with a frozen
    epoch).

    Parameters
    ----------
    lease_us:
        Wait bound: every blocking protocol wait re-validates the lock
        word at this period.  The reaper sweeps every lease, an acquire
        backs off half a lease per failed attempt (at most eight
        halves) up to :data:`MAX_ATTEMPTS` attempts, and a dropped peer
        message is re-sent every quarter lease up to
        :data:`SEND_ATTEMPTS` sends.
    detector:
        Failure oracle (a :class:`repro.monitor.PhiAccrualDetector`,
        or a :class:`repro.monitor.QuorumGate` over one); defaults to
        the cluster's installed fault injector's ground truth.
    """

    def __init__(self, cluster, n_locks: int = 64,
                 member_nodes=None, *,
                 lease_us: Optional[float] = None,
                 detector=None):
        if lease_us is not None and not 0 < lease_us < math.inf:
            raise LockError(
                f"lease_us must be positive and finite, got {lease_us!r}")
        self.ft = lease_us is not None
        self.lease_us = lease_us
        self.detector = detector
        #: lock -> current epoch (mirrored in the words' top 16 bits)
        self._epochs: Dict[int, int] = {}
        #: lock -> tokens with an in-flight acquire/release on it; this
        #: models the per-lock lease records clients write next to their
        #: atomics, and is what separates a live waiter from residue
        self._active: Dict[int, Set[int]] = {}
        #: (lock, token) -> grant epoch revoked by a reclaim
        self._revoked: Dict[Tuple[int, int], int] = {}
        #: lock -> tokens whose protocol obligation could not complete
        #: (failed release, undeliverable hand-off): the word or chain
        #: state is suspect and the reaper must reclaim
        self._suspect: Dict[int, Set[int]] = {}
        #: (time, lock, new_epoch) for every reclaim, for tests
        self.reclaims: List[Tuple[float, int, int]] = []
        super().__init__(cluster, n_locks=n_locks,
                         member_nodes=member_nodes)
        if self.ft:
            self.env.process(self._reap_proc(),
                             name=f"{self.SCHEME}-reaper")

    # -- scheme hooks ----------------------------------------------------
    def _ft_tails(self, lock_id: int):
        return ((self.raw_word(lock_id) >> 24) & _F24,)

    def _ft_extra_reclaim(self, lock_id: int) -> bool:
        return False

    # -- epochs, lease records, reaper ------------------------------------
    def lock_epoch(self, lock_id: int) -> int:
        return self._epochs.get(lock_id, 0)

    def _note_active(self, lock_id: int, token: int) -> None:
        self._active.setdefault(lock_id, set()).add(token)

    def _unnote_active(self, lock_id: int, token: int) -> None:
        tokens = self._active.get(lock_id)
        if tokens is not None:
            tokens.discard(token)

    def _consume_revoked(self, lock_id: int, token: int, ep: int) -> bool:
        if self._revoked.get((lock_id, token)) == ep:
            del self._revoked[(lock_id, token)]
            return True
        return False

    def _node_dead(self, node_id: int) -> bool:
        if self.detector is not None:
            return self.detector.is_dead(node_id)
        injector = self.cluster.fabric.injector
        return injector is not None and node_id in injector.down

    def _token_dead(self, token: int) -> bool:
        client = self.clients.get(token)
        return client is not None and self._node_dead(client.node.id)

    def _flag_suspect(self, lock_id: int, token: int) -> None:
        self._suspect.setdefault(lock_id, set()).add(token)

    def _reap_proc(self):
        while True:
            yield self.env.timeout(self.lease_us)
            if not getattr(self.detector, "has_quorum", True):
                # minority-partition view: freezing the reaper here is
                # what keeps a split brain from revoking the majority's
                # grants
                continue
            # A reclaim needs a prior attempt on the lock, and
            # ``_acquire`` / ``_release`` note it in ``_active`` before
            # their first verb.  A lock seen pristine leaves the tables
            # until its next attempt: a late verb of an ended attempt
            # had its completion fenced, which flagged the lock suspect.
            for lock_id in sorted(self._active.keys() | self._suspect.keys()
                                  | self.holders.keys()):
                verdict = self._should_reclaim(lock_id)
                if verdict:
                    self._reclaim(lock_id)
                elif verdict is None:
                    self._active.pop(lock_id, None)
                    self.holders.pop(lock_id, None)

    def _should_reclaim(self, lock_id: int) -> Optional[bool]:
        """True: reclaim now.  False: not now.  None: pristine — no
        holder, no attempt, no residue — so False until the next one."""
        if self._node_dead(self._word_at[lock_id][0]):
            return False  # words unreachable; restart first
        if self._suspect.get(lock_id):
            return True  # a release/hand-off failed: chain state suspect
        holders = self.holders.get(lock_id, ())
        active = self._active.get(lock_id, ())
        if any(self._token_dead(tok) for tok in holders):
            return True
        if any(self._token_dead(tok) for tok in active):
            return True
        for tail in self._ft_tails(lock_id):
            if tail and tail not in active and tail not in holders:
                return True  # orphaned tail: residue of an aborted attempt
        # past the tail test, a nonzero tail is a holder's or an attempt's
        return self._ft_extra_reclaim(lock_id) or (
            False if holders or active else None)

    def _reclaim(self, lock_id: int) -> None:
        """Wipe the lock's words at one instant and revoke every grant.

        Home-local, zero simulated time: any in-flight remote atomic
        lands strictly before or after the wipe and is rejected by its
        epoch guard afterwards.
        """
        old_ep = self._epochs.get(lock_id, 0)
        new_ep = (old_ep + 1) & _EP_MASK
        self._epochs[lock_id] = new_ep
        home, addr, _rkey = self._word_at[lock_id]
        region = self._words[home]
        first = addr - region.addr
        empty = pack(new_ep, 0, 0)
        for off in range(first, first + self.WORD_STRIDE, 8):
            region.write_u64(off, empty)
        obs = self.env.obs
        if obs is not None:
            # emitted before the revokes so the lock oracle advances its
            # authoritative epoch first, then validates each revocation
            obs.trace.emit("lock.reclaim", node=home,
                           mgr=self.obs_name, lock=lock_id,
                           old_ep=old_ep, new_ep=new_ep)
            obs.metrics.counter("dlm.reclaims").inc()
        held = self.holders.get(lock_id)
        for token in list(held or ()):  # grant order
            del held[token]
            if obs is not None:
                self._obs_ledger("lock.revoke", lock_id, token, {})
            self._revoked[(lock_id, token)] = old_ep
        self._suspect.pop(lock_id, None)
        self.reclaims.append((self.env.now, lock_id, new_ep))


class EpochFencedClient(LockClient):
    """Bounded-retry acquire/release wrapper around the scheme hooks."""

    def __init__(self, manager: EpochFencedManager, node: Node):
        super().__init__(manager, node)
        self._held_modes: Dict[int, LockMode] = {}
        self._grant_ep: Dict[int, int] = {}
        self._grant_extra: Dict[int, dict] = {}
        self._seen_uids: "OrderedDict[int, None]" = OrderedDict()

    # -- scheme hooks ----------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        """Generator: one acquire attempt; returns ``(ep, extra)``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _attempt_release(self, lock_id: int, ep: int):
        raise NotImplementedError
        yield  # pragma: no cover

    def _abort_attempt(self, lock_id: int) -> None:
        """Per-scheme cleanup after a failed acquire attempt or a
        revoked grant."""

    def _obs_word(self, lock_id: int, word: int) -> None:
        """Trace hook for a scheme whose word the lock oracle decodes
        (callers test ``env.obs`` first)."""

    # -- acquire/release wrappers ----------------------------------------
    def _acquire(self, lock_id: int, mode: LockMode):
        if lock_id in self._held_modes:
            raise LockError(f"client {self.token} already holds {lock_id}")
        mgr = self.manager
        attempts = 0
        while True:
            if not mgr.ft:
                ep, extra = yield from self._attempt_acquire(lock_id, mode)
                break
            attempts += 1
            mgr._note_active(lock_id, self.token)
            try:
                ep, extra = yield from self._attempt_acquire(lock_id, mode)
                # a fresh grant supersedes any stale revocation marker
                mgr._revoked.pop((lock_id, self.token), None)
                break
            except (_Stale, FaultError, RdmaError) as exc:
                self._abort_attempt(lock_id)
                if not isinstance(exc, _Stale):
                    # the attempt may have left residue: a tail CAS can
                    # land at the home while its completion is fenced by
                    # the home's crash, and the next requester would then
                    # queue behind a ghost that never hands off
                    mgr._flag_suspect(lock_id, self.token)
                if attempts >= MAX_ATTEMPTS:
                    obs = self.env.obs
                    if obs is not None:
                        obs.trace.emit("lock.fail", node=self.node.id,
                                       mgr=mgr.obs_name, lock=lock_id,
                                       token=self.token,
                                       attempts=attempts)
                        obs.metrics.counter("dlm.acquire_failures").inc()
                    raise LockError(
                        f"acquire of lock {lock_id} by client {self.token} "
                        f"failed after {attempts} attempts: {exc}") from exc
            finally:
                mgr._unnote_active(lock_id, self.token)
            yield self.env.timeout(mgr.lease_us / 2 * min(attempts, 8))
        self._held_modes[lock_id] = mode
        self._grant_ep[lock_id] = ep
        self._grant_extra[lock_id] = extra
        mgr._ledger_grant(lock_id, self.token, mode, ep, extra)
        return None

    def _release(self, lock_id: int):
        mode = self._held_modes.pop(lock_id, None)
        if mode is None:
            raise LockError(f"client {self.token} does not hold {lock_id}")
        mgr = self.manager
        ep = self._grant_ep.pop(lock_id, 0)
        if mgr.ft and mgr._consume_revoked(lock_id, self.token, ep):
            # lease revoked by a reclaim: the grant already ended in the
            # ledger and the words were wiped — nothing to undo
            self._grant_extra.pop(lock_id, None)
            self._abort_attempt(lock_id)
            return None
        mgr._ledger_release(lock_id, self.token)
        if not mgr.ft:
            yield from self._attempt_release(lock_id, ep)
            return None
        mgr._note_active(lock_id, self.token)
        try:
            yield from self._attempt_release(lock_id, ep)
        except _Stale:
            pass  # reclaimed mid-release: the fresh epoch owns the words
        except (FaultError, RdmaError):
            # the words (and possibly a waiter's hand-off) are in an
            # unknown state — flag the lock so the reaper reclaims
            mgr._flag_suspect(lock_id, self.token)
        finally:
            mgr._unnote_active(lock_id, self.token)
        return None

    # -- epoch-checked waits ----------------------------------------------
    def _wait_msg(self, lock_id: int, kind: str, ep: int):
        """Wait for a same-epoch message of ``kind``.

        In FT mode the wait is lease-bounded; on expiry the epoch word
        is re-read and a moved epoch raises :class:`_Stale`.
        """
        lease_us = self.manager.lease_us
        q = self._queue(lock_id, kind)
        while True:
            if lease_us is None:
                # not a timeout: an infinite delay is rejected, and a
                # finite one would add an agenda entry to every wait
                body = yield q.get()
            else:
                get = q.get()
                yield AnyOf(self.env, [get, self.env.timeout(lease_us)])
                if not get.triggered:
                    # withdraw the abandoned getter so it cannot steal a
                    # message from a later wait
                    q.cancel_get(get)
                    yield from self._check_epoch(lock_id, ep)
                    continue
                body = get._value
            if body.get("ep") != ep:
                continue  # stale generation
            return body

    def _check_epoch(self, lock_id: int, ep: int):
        """Lease expired while waiting: re-read the word, bail if moved."""
        home, addr, rkey = self.manager._word_at[lock_id]
        raw = yield self.node.nic.rdma_read(home, addr, rkey, 8)
        word = int.from_bytes(raw, "big")
        if self.env.obs is not None:
            self._obs_word(lock_id, word)
        if unpack(word)[0] != ep:
            raise _Stale(f"lock {lock_id} reclaimed while waiting")

    def _drain_msgs(self, lock_id: int, kind: str, ep: int):
        """Non-blocking: pop queued same-epoch messages of ``kind``."""
        q = self._queues.get((lock_id, kind))
        if q is None or not q._items:
            return ()
        out = []
        while True:
            ok, body = q.try_get()
            if not ok:
                return out
            if body.get("ep") == ep:
                out.append(body)

    # -- one-sided hand-off signalling ------------------------------------
    def _signal(self, peer: "EpochFencedClient", lock_id: int,
                kind: str, body: dict) -> None:
        """Local-spin wakeup for a one-sided write just completed.

        The payload travelled through a real ``rdma_write`` into the
        peer's registered memory; the peer detects it by polling its
        own cache-resident queue node, which costs no network traffic
        and (conservatively, at the writer's completion instant rather
        than a poll boundary) no extra simulated time.
        """
        peer._queue(lock_id, kind).try_put(dict(body, t=kind,
                                                lock=lock_id))

    # -- reliable peer messaging -------------------------------------------
    def _accept_msg(self, body: dict) -> bool:
        uid = body.get("uid")
        if uid is None:
            return True
        if uid in self._seen_uids:
            return False  # duplicate delivery of a re-sent message
        self._seen_uids[uid] = None
        while len(self._seen_uids) > _UID_WINDOW:
            self._seen_uids.popitem(last=False)
        return True

    def _peer_call(self, token: int, body: dict) -> None:
        """Peer send: reliable (re-send + dedup) in FT mode."""
        if self.manager.ft:
            self._peer_send_ft(token, body)
        else:
            self._peer_send(token, body)

    def _peer_send_ft(self, token: int, body: dict) -> None:
        peer = self.manager.clients.get(token)
        if peer is None:
            raise LockError(f"unknown peer token {token}")
        msg = dict(body)
        msg["uid"] = self.env.next_id("dlm")
        self.env.process(
            self._send_reliable(peer, msg),
            name=f"{self.manager.SCHEME}-send@{self.node.name}")

    def _send_reliable(self, peer: "EpochFencedClient", body: dict):
        mgr = self.manager
        for _ in range(SEND_ATTEMPTS):
            try:
                yield self.node.nic.send_wait(peer.node.id, payload=body,
                                              size=32, tag=peer._tag)
                return
            except FaultError:
                yield self.env.timeout(mgr.lease_us / 4)
        # Undeliverable protocol message: if its epoch is still current,
        # some peer is (or may be) waiting on it — flag the lock so the
        # reaper reclaims and waiters restart under a fresh epoch.
        lock_id = body.get("lock")
        if (lock_id is not None
                and body.get("ep") == mgr.lock_epoch(lock_id)):
            mgr._flag_suspect(lock_id, self.token)
