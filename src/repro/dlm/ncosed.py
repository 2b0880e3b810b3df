"""N-CoSED — Network-based Combined Shared/Exclusive Distributed locking.

The paper's scheme (§4.2, Fig. 4; details in ref [14]), written as the
third set of hooks over the shared lock substrate (:mod:`repro.dlm.ft`,
which owns the word layout, epochs, the reaper, lease-bounded waits and
reliable sends).  Every lock is one 64-bit word on its home node::

    bits 63..48   epoch (0 for ever unless the manager has a lease)
    bits 47..24   token of the tail of the exclusive-requester queue
                  (0 = no exclusive pending/holding)
    bits 23..0    number of shared requests since the last exclusive
                  enqueue (with no exclusive pending: the count of
                  current shared holders)

* **Exclusive acquire** — CAS the tail to ``me`` and the count to 0.
  Old value ``(0, 0)``: granted outright.  Old ``(t, s)``: we are
  enqueued; notify ``t`` (carrying ``s`` so it knows how many shared
  grants precede us) and wait for its hand-off plus ``s``
  shared-release notifications.  Old ``(0, s)``: no predecessor — just
  wait for ``s`` current shared holders to drain.
* **Shared acquire** — fetch-and-add +1.  If the returned word has no
  exclusive tail the lock is held immediately — *this* is what makes
  shared cascades O(1) instead of O(n).  Otherwise register with the
  tail and wait for its grant.
* **Release** — exclusive: grant all shared requests registered during
  the tenure at once (posted back-to-back), then hand off to the
  exclusive successor; or CAS the word free.  Shared: decrement the
  count with CAS if no exclusive is pending, else notify the pending
  exclusive.

Shared-release notifications that reach an exclusive requester which is
still waiting on a *predecessor* are forwarded up the chain: they belong
to an earlier tenure by construction (a requester is granted only after
every notification it is owed has arrived).

A failed CAS is the read
-----------------------

No word is read before it is CASed.  Every CAS opens on a guess that is
computable locally — a free word under the manager's current epoch for
the exclusive acquire, ``(ep, 0, 1)`` (sole reader) for the shared
release, the word this client wrote itself for the exclusive release —
and a CAS that loses returns the word, which becomes the next guess.  A
hit is one round trip, a miss costs an atomic where a read would have
gone, and a wrong guess cannot write: the epoch is part of every guess,
so a reclaim makes it lose.  Leased or not, an uncontended round is two
atomics and no read (``tests/dlm/test_verb_counts.py``).

Failover
--------

What only N-CoSED has: with a transition-reporting detector, the words
of a dead home move to the next live member — an override of the home
plus an ordinary reclaim, so stragglers talking to the old home are
fenced by the epoch check on their next protocol step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LockError
from repro.net.memory import MemoryRegion
from repro.net.node import Node

from repro.dlm.base import LockMode
from repro.dlm.ft import (EpochFencedClient, EpochFencedManager, _Stale,
                          pack, unpack)

__all__ = ["NCoSEDManager", "NCoSEDClient"]


class NCoSEDManager(EpochFencedManager):
    """N-CoSED home state; pass ``lease_us`` for fault-tolerant mode
    (parameters: :class:`~repro.dlm.ft.EpochFencedManager`)."""

    SCHEME = "ncosed"

    def __init__(self, cluster, n_locks: int = 64, member_nodes=None,
                 **ft_kwargs):
        #: lock -> node id hosting the word after a failover rehome
        self._home_override: Dict[int, int] = {}
        #: (time, lock, old_home, new_home) for every rehome
        self.rehomes: List[Tuple[float, int, int, int]] = []
        super().__init__(cluster, n_locks=n_locks,
                         member_nodes=member_nodes, **ft_kwargs)
        if self.ft and hasattr(self.detector, "subscribe"):
            # a transition-reporting detector drives lock-home
            # failover; a bare oracle only gates the reaper
            self.detector.subscribe(self._on_detector)

    def _setup_homes(self) -> None:
        self._words: Dict[int, MemoryRegion] = {}
        for node in self.members:
            self._words[node.id] = node.memory.register(
                8 * self.n_locks, name=f"ncosed-words@{node.name}")

    def home_node(self, lock_id: int) -> Node:
        override = self._home_override.get(lock_id)
        if override is not None:
            self._check_lock(lock_id)
            return next(n for n in self.members if n.id == override)
        return super().home_node(lock_id)

    def word(self, lock_id: int):
        home = self.home_node(lock_id)
        region = self._words[home.id]
        return home.id, region.addr + 8 * lock_id, region.rkey

    def raw_word(self, lock_id: int) -> int:
        """Direct (zero-time) view of the lock word, for tests."""
        home = self.home_node(lock_id)
        return self._words[home.id].read_u64(8 * lock_id)

    def client(self, node: Node) -> "NCoSEDClient":
        return NCoSEDClient(self, node)

    # -- epoch-fencing hooks ----------------------------------------------
    def _ft_tails(self, lock_id: int):
        return (unpack(self.raw_word(lock_id))[1],)

    def _ft_wipe(self, lock_id: int, new_ep: int) -> None:
        home = self.home_node(lock_id)
        self._words[home.id].write_u64(8 * lock_id, pack(new_ep, 0, 0))

    # -- failover: rehome the words of a dead member ----------------------
    def _on_detector(self, node_id: int, transition: str) -> None:
        """Detector transition: move every lock homed on a dead member
        to the next live member in ring order.

        Every member already hosts a full words region (``_setup_homes``
        registers one per node precisely so failover needs no new
        allocation), so rehoming is an epoch bump plus a fresh word at
        the new home.  Restores are deliberately ignored: a lock stays
        at its failover home until the next failure (moving it back
        would revoke live grants for no safety gain).
        """
        if transition != "dead":
            return
        member_ids = [n.id for n in self.members]
        if node_id not in member_ids:
            return
        # pick targets from the detector's raw reachability view: a
        # quorum gate forwards deaths one at a time, so a peer that
        # died in the same partition may not be "dead" yet — but it is
        # already unreachable and must not become the new home
        avoid = set(getattr(self.detector, "unreachable_ids", ()))
        for lock_id in range(self.n_locks):
            old_home = self.home_node(lock_id)
            if old_home.id != node_id:
                continue
            start = member_ids.index(old_home.id)
            for k in range(1, len(self.members)):
                cand = self.members[(start + k) % len(self.members)]
                if cand.id not in avoid and not self._node_dead(cand.id):
                    self._rehome(lock_id, old_home, cand)
                    break

    def _rehome(self, lock_id: int, old_home: Node,
                new_home: Node) -> None:
        """Reclaim ``lock_id`` onto ``new_home`` (epoch-fenced move)."""
        self._home_override[lock_id] = new_home.id
        self._reclaim(lock_id)  # wipes and reports at the new home
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("lock.rehome", node=new_home.id,
                           mgr=self.obs_name, lock=lock_id,
                           frm=old_home.id, to=new_home.id,
                           ep=self.lock_epoch(lock_id))
            obs.metrics.counter("dlm.rehomes").inc()
        self.rehomes.append((self.env.now, lock_id, old_home.id,
                             new_home.id))


class _Tenure:
    """Exclusive-tenure bookkeeping on one lock."""

    __slots__ = ("registered", "xenq")

    def __init__(self):
        self.registered: List[int] = []   # senq senders (shared waiters)
        self.xenq: Optional[dict] = None  # successor announcement


class NCoSEDClient(EpochFencedClient):
    def __init__(self, manager: NCoSEDManager, node: Node):
        super().__init__(manager, node)
        #: lock -> tenure, from the exclusive enqueue to the release
        self._tenures: Dict[int, _Tenure] = {}

    def _obs_word(self, lock_id: int, word: int) -> None:
        """Trace a protocol step's view of the raw 64-bit lock word."""
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("lock.word", node=self.node.id,
                           mgr=self.manager.obs_name, lock=lock_id,
                           word=word)

    def _send(self, token: int, kind: str, lock_id: int, ep: int,
              **fields) -> None:
        self._peer_call(token, dict(fields, t="nc", kind=kind,
                                    lock=lock_id, ep=ep))

    # ------------------------------------------------------------------
    # acquire
    # ------------------------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        # not a generator: the substrate drives the returned one
        # directly, which keeps the fault-free path one frame shallower
        if mode is LockMode.SHARED:
            return self._acquire_shared(lock_id)
        return self._acquire_exclusive(lock_id)

    def _abort_attempt(self, lock_id: int) -> None:
        self._tenures.pop(lock_id, None)

    def _acquire_shared(self, lock_id: int):
        mgr = self.manager
        home, addr, rkey = mgr.word(lock_id)
        old = yield self.node.nic.faa(home, addr, rkey, 1)
        self._obs_word(lock_id, old)
        ep, tail, _count = unpack(old)
        if mgr.lock_epoch(lock_id) != ep:
            # the word was reclaimed around our increment: the +1 was
            # (or will be) wiped with the old generation
            raise _Stale(f"lock {lock_id} reclaimed around shared FAA")
        self._obs_enqueue(lock_id, LockMode.SHARED, prev=tail, ep=ep)
        if tail == 0:
            return ep, {}  # granted at once, alongside other shareds
        # an exclusive is pending/holding: register with the tail and wait
        self._send(tail, "senq", lock_id, ep, frm=self.token)
        body = yield from self._wait_msg(lock_id, "nc", ep)
        if body["kind"] != "sgrant":
            raise LockError(f"shared waiter got {body['kind']}")
        if mgr.lock_epoch(lock_id) != ep:
            raise _Stale("reclaimed at shared grant instant")
        return ep, {}

    def _acquire_exclusive(self, lock_id: int):
        mgr = self.manager
        home, addr, rkey = mgr.word(lock_id)
        nic = self.node.nic
        tenure = _Tenure()
        # guess a free word; a lost CAS returns the next guess
        ep, tail, count = mgr.lock_epoch(lock_id), 0, 0
        word = pack(ep, 0, 0)
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                pack(ep, self.token, 0))
            self._obs_word(lock_id, old)
            if old == word:
                break
            word = old
            ep, tail, count = unpack(old)
            if tail == self.token:
                # residue of an aborted attempt; the reaper clears it
                raise _Stale(f"own stale tail on lock {lock_id}")
        # enqueued: we are the new tail; shared requests from now on
        # register with us, so open the tenure before waiting
        self._tenures[lock_id] = tenure
        self._obs_enqueue(lock_id, LockMode.EXCLUSIVE, prev=tail, ep=ep)
        if tail:
            self._send(tail, "xenq", lock_id, ep, frm=self.token,
                       scount=count)
        if tail or count:
            yield from self._await_grant(lock_id, tenure, tail, count, ep)
        if mgr.lock_epoch(lock_id) != ep:
            raise _Stale("reclaimed at exclusive grant instant")
        return ep, {}

    def _await_grant(self, lock_id: int, tenure: _Tenure, pred: int,
                     srel_needed: int, ep: int):
        """Wait for hand-off from ``pred`` (0 = none) plus
        ``srel_needed`` drains."""
        need_xgrant = pred != 0
        srel_got = 0
        while need_xgrant or srel_got < srel_needed:
            body = yield from self._wait_msg(lock_id, "nc", ep)
            kind = body["kind"]
            if kind == "xgrant":
                need_xgrant = False
            elif kind != "srel":
                self._classify(tenure, body)
            elif need_xgrant:
                # belongs to an earlier tenure: forward up the chain
                self._peer_call(pred, body)
            else:
                srel_got += 1

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def _attempt_release(self, lock_id: int, ep: int):
        tenure = self._tenures.pop(lock_id, None)
        if tenure is None:
            return self._release_shared(lock_id, ep)
        return self._release_exclusive(lock_id, ep, tenure)

    def _release_shared(self, lock_id: int, ep: int):
        home, addr, rkey = self.manager.word(lock_id)
        nic = self.node.nic
        # guess we are the sole reader; a miss returns the word
        word, count = pack(ep, 0, 1), 1
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                pack(ep, 0, count - 1))
            self._obs_word(lock_id, old)
            if old == word:
                return
            word = old
            wep, tail, count = unpack(old)
            if wep != ep:
                return  # revoked: our count contribution was wiped
            if tail != 0:
                # an exclusive is pending: it (or its chain head) absorbs
                # our drain notification
                self._send(tail, "srel", lock_id, ep, frm=self.token)
                return
            if count == 0:  # pragma: no cover - accounting bug guard
                raise LockError("shared release with zero count")

    def _release_exclusive(self, lock_id: int, ep: int, tenure: _Tenure):
        home, addr, rkey = self.manager.word(lock_id)
        nic = self.node.nic
        for body in self._drain_msgs(lock_id, "nc", ep):
            self._classify(tenure, body)
        if tenure.xenq is None:
            # no successor yet: retire via the word.  Guess it from local
            # bookkeeping — exact unless a shared FAA or exclusive CAS is
            # in flight, and then the failed CAS returns the word
            count = len(tenure.registered)
            word = pack(ep, self.token, count)
            while True:
                old = yield nic.cas(home, addr, rkey, word,
                                    pack(ep, 0, count))
                self._obs_word(lock_id, old)
                if old == word:
                    # lock is no longer exclusively owned: grant every
                    # shared waiter registered during our tenure at once
                    self._grant_shared(lock_id, tenure, ep)
                    return
                word = old
                wep, tail, count = unpack(old)
                if wep != ep:
                    return  # revoked mid-release: fresh epoch owns it
                if tail != self.token:
                    # a successor swapped itself in: await its xenq
                    yield from self._collect_until(lock_id, tenure,
                                                   "xenq", ep)
                    break
                while len(tenure.registered) < count and tenure.xenq is None:
                    yield from self._collect_until(lock_id, tenure,
                                                   None, ep)
                if tenure.xenq is not None:
                    break
        # hand off to the exclusive successor: first grant the shared
        # requests that arrived before the successor enqueued
        s_mine = tenure.xenq["scount"]
        while len(tenure.registered) < s_mine:
            yield from self._collect_until(lock_id, tenure, "senq", ep)
        if len(tenure.registered) != s_mine:  # pragma: no cover - guard
            raise LockError("registered shared waiters exceed snapshot")
        self._grant_shared(lock_id, tenure, ep)
        self._send(tenure.xenq["frm"], "xgrant", lock_id, ep)

    # -- helpers -----------------------------------------------------------
    def _grant_shared(self, lock_id: int, tenure: _Tenure, ep: int) -> None:
        for waiter in tenure.registered:
            self._send(waiter, "sgrant", lock_id, ep)

    def _collect_until(self, lock_id: int, tenure: _Tenure,
                       kind: Optional[str], ep: int):
        """Blocking-consume messages until one of ``kind`` (any if None)."""
        while True:
            body = yield from self._wait_msg(lock_id, "nc", ep)
            self._classify(tenure, body)
            if kind is None or body["kind"] == kind:
                return

    @staticmethod
    def _classify(tenure: _Tenure, body: dict) -> None:
        """File a message that concerns the tenure we hold or wait for.

        Tolerant of re-delivery: with plain sends there are no
        duplicates and both guards are vacuous."""
        kind = body["kind"]
        if kind == "senq":
            if body["frm"] not in tenure.registered:
                tenure.registered.append(body["frm"])
        elif kind == "xenq":
            if tenure.xenq is None:
                tenure.xenq = body
            elif tenure.xenq["frm"] != body["frm"]:  # pragma: no cover
                raise LockError("two exclusive successors announced")
        else:  # pragma: no cover - defensive
            raise LockError(f"unexpected message {kind!r}")
