"""The lock substrate: one word layout, lease/epoch fencing, recovery.

Every arena design (N-CoSED, RDMA-MCS, ALock) is a set of hooks over
this module; nothing here knows which one it is serving.

Word layout
-----------

Every home-resident word is ``epoch:16 | tail:24 | count:24``
(:func:`pack` / :func:`unpack`).  Every CAS embeds an epoch (guessed
or returned by a lost CAS; no scheme reads a word it is about to CAS),
so an attempt racing a reclaim simply loses the CAS; every FAA
*returns* the epoch at its execution instant, so a requester detects
that its increment landed on (or was wiped with) a stale generation.

Recovery (active when the manager has a ``lease_us``)
-----------------------------------------------------

* A manager-wide **reaper** scans the lock table every lease period.
  When a lock's tail, a granted holder, or a client with an in-flight
  protocol operation sits on a crashed node, when the tail token belongs
  to nobody with business on the lock (residue of an aborted attempt),
  or when a client flagged the lock *suspect*, the words are wiped to
  ``(epoch+1, 0, 0…)`` at a single instant and all current grants are
  revoked Chubby-style: the ledger entries end at the reclaim, and a
  surviving holder discovers the revocation when it releases.  The wipe
  is home-local, so remote atomics land strictly before or after it.
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

Managers implement ``_setup_homes``, ``word(lock_id)`` plus:

* ``_ft_tails(lock_id)``   — tail tokens currently named by the lock's
  word(s); an orphaned tail (no holder, no active attempt) is residue.
* ``_ft_wipe(lock_id, new_ep)`` — rewrite every word of the lock to its
  empty state under ``new_ep`` (home-local, zero simulated time).
* ``_ft_extra_reclaim(lock_id)`` — optional extra residue predicate
  (e.g. ALock's orphaned tournament flags).

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

from repro.dlm.base import LockClient, LockManagerBase, LockMode

__all__ = ["EpochFencedManager", "EpochFencedClient", "pack", "unpack"]

_EP_MASK = 0xFFFF
_F24 = 0xFFFFFF

#: receiver-side dedup window for reliably re-sent protocol messages
_UID_WINDOW = 512


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
        word at this period.  Also the default reaper scan period.
    detector:
        Failure oracle with ``is_dead(node_id)`` (e.g. a
        :class:`repro.monitor.heartbeat.HeartbeatDetector`); defaults
        to the cluster's installed fault injector's ground truth.
    reap_every_us / max_attempts / attempt_backoff_us:
        Reaper period (default: the lease), acquire retry budget, and
        backoff between attempts (default: half the lease).
    send_attempts / resend_us:
        Bounded re-send of peer protocol messages on injected drops
        (default period: a quarter of the lease).
    """

    def __init__(self, cluster, n_locks: int = 64,
                 member_nodes=None, *,
                 lease_us: Optional[float] = None,
                 detector=None,
                 reap_every_us: Optional[float] = None,
                 max_attempts: int = 12,
                 attempt_backoff_us: Optional[float] = None,
                 send_attempts: int = 6,
                 resend_us: Optional[float] = None):
        for name, value in (("lease_us", lease_us),
                            ("reap_every_us", reap_every_us),
                            ("resend_us", resend_us)):
            if value is not None and not 0 < value < math.inf:
                raise LockError(
                    f"{name} must be positive and finite, got {value!r}")
        if (attempt_backoff_us is not None
                and not 0 <= attempt_backoff_us < math.inf):
            raise LockError("attempt_backoff_us must be finite and >= 0, "
                            f"got {attempt_backoff_us!r}")
        for name, value in (("max_attempts", max_attempts),
                            ("send_attempts", send_attempts)):
            if value < 1:
                raise LockError(f"{name} must be >= 1, got {value!r}")
        self.ft = lease_us is not None
        self.lease_us = lease_us
        self.detector = detector
        self.max_attempts = max_attempts
        self.send_attempts = send_attempts
        self.reap_every_us = reap_every_us
        self.attempt_backoff_us = attempt_backoff_us
        self.resend_us = resend_us
        if self.ft:
            if reap_every_us is None:
                self.reap_every_us = lease_us
            if attempt_backoff_us is None:
                self.attempt_backoff_us = lease_us / 2
            if resend_us is None:
                self.resend_us = lease_us / 4
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
        raise NotImplementedError

    def _ft_wipe(self, lock_id: int, new_ep: int) -> None:
        raise NotImplementedError

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
            yield self.env.timeout(self.reap_every_us)
            if not getattr(self.detector, "has_quorum", True):
                # minority-partition view: freezing the reaper here is
                # what keeps a split brain from revoking the majority's
                # grants
                continue
            # Every reclaim condition needs a prior attempt on the lock
            # (a holder, a suspect flag, a tail token or tournament flag
            # left in its words), and ``_acquire`` / ``_release`` note
            # the attempt in ``_active`` — whose keys are never dropped
            # — before their first verb: a lock outside these three
            # tables has pristine words and nothing to reclaim.
            for lock_id in sorted(self._active.keys() | self._suspect.keys()
                                  | self.holders.keys()):
                if self._should_reclaim(lock_id):
                    self._reclaim(lock_id)

    def _should_reclaim(self, lock_id: int) -> bool:
        if self._node_dead(self.home_node(lock_id).id):
            return False  # words unreachable; restart first
        if self._suspect.get(lock_id):
            return True  # a release/hand-off failed: chain state suspect
        holders = self.holders.get(lock_id, ())
        active = self._active.get(lock_id, ())
        if any(self._token_dead(tok) for tok, _mode in holders):
            return True
        if any(self._token_dead(tok) for tok in active):
            return True
        for tail in self._ft_tails(lock_id):
            if tail and tail not in active and not any(
                    tok == tail for tok, _mode in holders):
                return True  # orphaned tail: residue of an aborted attempt
        return self._ft_extra_reclaim(lock_id)

    def _reclaim(self, lock_id: int) -> None:
        """Wipe the lock's words at one instant and revoke every grant.

        Home-local, zero simulated time: any in-flight remote atomic
        lands strictly before or after the wipe and is rejected by its
        epoch guard afterwards.
        """
        old_ep = self._epochs.get(lock_id, 0)
        new_ep = (old_ep + 1) & _EP_MASK
        self._epochs[lock_id] = new_ep
        self._ft_wipe(lock_id, new_ep)
        obs = self.env.obs
        if obs is not None:
            # emitted before the revokes so the sanitizer advances its
            # authoritative epoch first, then validates each revocation
            obs.trace.emit("lock.reclaim", node=self.home_node(lock_id).id,
                           mgr=self.obs_name, lock=lock_id,
                           old_ep=old_ep, new_ep=new_ep)
            obs.metrics.counter("dlm.reclaims").inc()
        for token, _mode in list(self.holders.get(lock_id, ())):
            self._ledger_expunge(lock_id, token)
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
        """Trace hook for a scheme whose word the sanitizers decode."""

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
                if attempts >= mgr.max_attempts:
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
            yield self.env.timeout(
                mgr.attempt_backoff_us * min(attempts, 8))
        self._held_modes[lock_id] = mode
        self._grant_ep[lock_id] = ep
        self._grant_extra[lock_id] = extra
        self._granted(lock_id, mode, ep=ep, **extra)
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
        self._released(lock_id)
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
        home, addr, rkey = self.manager.word(lock_id)
        raw = yield self.node.nic.rdma_read(home, addr, rkey, 8)
        word = int.from_bytes(raw, "big")
        self._obs_word(lock_id, word)
        if unpack(word)[0] != ep:
            raise _Stale(f"lock {lock_id} reclaimed while waiting")

    def _drain_msgs(self, lock_id: int, kind: str, ep: int):
        """Non-blocking: pop queued same-epoch messages of ``kind``."""
        q = self._queue(lock_id, kind)
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
        for _ in range(mgr.send_attempts):
            try:
                yield self.node.nic.send_wait(peer.node.id, payload=body,
                                              size=32, tag=peer._tag)
                return
            except FaultError:
                yield self.env.timeout(mgr.resend_us)
        # Undeliverable protocol message: if its epoch is still current,
        # some peer is (or may be) waiting on it — flag the lock so the
        # reaper reclaims and waiters restart under a fresh epoch.
        lock_id = body.get("lock")
        if (lock_id is not None
                and body.get("ep") == mgr.lock_epoch(lock_id)):
            mgr._flag_suspect(lock_id, self.token)
