"""ALock: asymmetric local/remote cohort lock (arena design #5).

After *ALock*: clients are split per lock into two cohorts — *local*
(co-resident with the lock's home node, so their atomics are loopback
cheap) and *remote* (everyone else, paying fabric latency).  Each
cohort runs its own MCS-style tail queue, and the two cohort leaders
settle ownership through a Peterson-style tournament word; once a
cohort wins, the holder hands the lock to its cohort successor with a
cheap pass-off message, up to ``cohort_budget`` consecutive grants,
before the tournament re-runs so the other cohort cannot starve.

Home-resident state per lock (24 bytes):

* ``+0``  local-cohort tail word  (substrate layout, count unused)
* ``+8``  remote-cohort tail word (same layout)
* ``+16`` tournament state word:
  ``(epoch << 48) | (victim << 2) | (remote_flag << 1) | local_flag``
  with victim 0 = none, 1 = local cohort, 2 = remote cohort.

A cohort leader enters the tournament by CASing its flag bit *and*
``victim = my cohort`` in one atomic step, then poll-reads until the
other cohort's flag is down or the victim has moved off it (classic
Peterson: the cohort that set victim last yields).  The flag stays up
across in-budget pass-offs — ownership of the flag travels with the
lock — and is lowered by the tenure-ending holder *before* it closes
its tail or sends the budget-exhausted ``restart``, so a fresh leader
(which needs tail == 0, impossible while our queue lives) or the
restarted successor always raises the flag itself.

No word is read before it is CASed (the rule: :mod:`repro.dlm.ncosed`):
tail swap, flag-raise and flag-lower each CAS a guess — free tail, idle
state word, the state this tenure raised — and a lost CAS returns the
next one.  Lowering the last flag clears ``victim`` (read only while
both flags are up, rewritten by every raise), so the idle word is always
``(epoch, 0, 0, 0)``.  A raise whose *expected* word had the other flag
down skips the poll: Peterson's wait condition was false at that atomic
instant, and a later entrant takes the victim onto itself.

Crash recovery rides the shared epoch-fencing base
(:mod:`repro.dlm.ft`): the reaper additionally treats a raised flag
with no holder and no active client as residue (the tournament word
has no queue entry to orphan-check).

SHARED mode is serialized through the cohort queues like DQNL's.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import LockError
from repro.net.node import Node

from repro.dlm.base import LockMode
from repro.dlm.ft import (_EP_MASK, EpochFencedClient, EpochFencedManager,
                          _Stale, pack, unpack)

__all__ = ["ALockManager", "ALockClient", "COHORT_LOCAL", "COHORT_REMOTE"]

COHORT_LOCAL = "L"
COHORT_REMOTE = "R"

#: per-lock word offsets in the home region
_OFF_LTAIL = 0
_OFF_RTAIL = 8
_OFF_STATE = 16
_STRIDE = 24

_VICTIM = {COHORT_LOCAL: 1, COHORT_REMOTE: 2}
_FLAG = {COHORT_LOCAL: 1, COHORT_REMOTE: 2}
_FLAGS = 3  # both flag bits of the state word
#: first and largest back-off (µs) between Peterson-wait polls
TOURNEY_POLL_US = 2.0
TOURNEY_POLL_MAX_US = 32.0


def _pack_state(ep: int, victim: int, rflag: int, lflag: int) -> int:
    return ((ep & _EP_MASK) << 48) | (victim << 2) | (rflag << 1) | lflag


def _unpack_state(word: int) -> Tuple[int, int, int, int]:
    return (word >> 48) & _EP_MASK, (word >> 2) & 0x3, \
        (word >> 1) & 1, word & 1


class ALockManager(EpochFencedManager):
    """Home state: two cohort tails + a tournament word per lock."""

    SCHEME = "alock"

    def __init__(self, cluster, n_locks: int = 64, *,
                 cohort_budget: int = 4, **ft_kwargs):
        if cohort_budget < 1:
            raise LockError("cohort_budget must be >= 1")
        self.cohort_budget = cohort_budget
        super().__init__(cluster, n_locks=n_locks, **ft_kwargs)

    def _setup_homes(self) -> None:
        self._words: Dict[int, object] = {}
        for node in self.members:
            self._words[node.id] = node.memory.register(
                _STRIDE * self.n_locks, name=f"alock-words@{node.name}")

    def _word_at(self, lock_id: int, off: int):
        home = self.home_node(lock_id)
        region = self._words[home.id]
        return home.id, region.addr + _STRIDE * lock_id + off, region.rkey

    def word(self, lock_id: int):
        """Epoch-bearing word for lease re-reads: the local tail."""
        return self._word_at(lock_id, _OFF_LTAIL)

    def tail_word(self, lock_id: int, cohort: str):
        return self._word_at(lock_id, _OFF_LTAIL if cohort == COHORT_LOCAL
                             else _OFF_RTAIL)

    def state_word(self, lock_id: int):
        return self._word_at(lock_id, _OFF_STATE)

    def raw_words(self, lock_id: int) -> Tuple[int, int, int]:
        """Direct (zero-time) view (ltail, rtail, state), for tests."""
        home = self.home_node(lock_id)
        region = self._words[home.id]
        base = _STRIDE * lock_id
        return (region.read_u64(base + _OFF_LTAIL),
                region.read_u64(base + _OFF_RTAIL),
                region.read_u64(base + _OFF_STATE))

    def client(self, node: Node) -> "ALockClient":
        return ALockClient(self, node)

    def cohort_of(self, client: "ALockClient", lock_id: int) -> str:
        return (COHORT_LOCAL
                if client.node.id == self.home_node(lock_id).id
                else COHORT_REMOTE)

    # -- epoch-fencing hooks ----------------------------------------------
    def _ft_tails(self, lock_id: int):
        ltail, rtail, _state = self.raw_words(lock_id)
        return unpack(ltail)[1], unpack(rtail)[1]

    def _ft_extra_reclaim(self, lock_id: int) -> bool:
        # a raised tournament flag with no holder and no live attempt is
        # residue of a crash between flag-set and grant/clear
        _lt, _rt, state = self.raw_words(lock_id)
        _ep, _victim, rflag, lflag = _unpack_state(state)
        return bool((rflag or lflag)
                    and not self.holders.get(lock_id)
                    and not self._active.get(lock_id))

    def _ft_wipe(self, lock_id: int, new_ep: int) -> None:
        home = self.home_node(lock_id)
        region = self._words[home.id]
        base = _STRIDE * lock_id
        region.write_u64(base + _OFF_LTAIL, pack(new_ep, 0, 0))
        region.write_u64(base + _OFF_RTAIL, pack(new_ep, 0, 0))
        region.write_u64(base + _OFF_STATE, _pack_state(new_ep, 0, 0, 0))


class ALockClient(EpochFencedClient):
    """Client; its cohort per lock is fixed by node placement."""

    # -- acquire ----------------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        mgr = self.manager
        cohort = mgr.cohort_of(self, lock_id)
        home, addr, rkey = mgr.tail_word(lock_id, cohort)
        nic = self.node.nic
        # guess a free cohort tail; a lost CAS returns the next guess
        ep, tail = mgr.lock_epoch(lock_id), 0
        word = pack(ep, 0, 0)
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                pack(ep, self.token, 0))
            if old == word:
                break
            word = old
            ep, tail, _ = unpack(old)
            if tail == self.token:
                raise _Stale(f"own stale tail on lock {lock_id}")
        self._obs_enqueue(lock_id, mode, prev=tail, ep=ep, cohort=cohort)
        extra = {"cohort": cohort, "budget": mgr.cohort_budget}
        if tail != 0:
            # queued behind a cohort predecessor: announce ourselves,
            # then wait for an in-budget pass or a budget-exhausted
            # restart (which sends us into the tournament ourselves)
            self._peer_call(tail, {"t": "asucc", "lock": lock_id,
                                   "frm": self.token, "ep": ep})
            body = yield from self._wait_msg(lock_id, "apass", ep)
            if body["kind"] == "pass":
                if mgr.lock_epoch(lock_id) != ep:
                    raise _Stale("reclaimed at cohort pass-off instant")
                return ep, dict(extra, chain=body["chain"])
            if body["kind"] != "restart":  # pragma: no cover - defensive
                raise LockError(f"unexpected pass kind {body['kind']!r}")
        yield from self._tournament(lock_id, ep, cohort)
        return ep, dict(extra, chain=0)

    def _tournament(self, lock_id: int, ep: int, cohort: str):
        """Peterson round between the two cohort leaders."""
        mgr = self.manager
        home, addr, rkey = mgr.state_word(lock_id)
        nic = self.node.nic
        my_flag = _FLAG[cohort]
        my_victim = _VICTIM[cohort]
        # guess the idle word (both flags down, victim cleared)
        state = _pack_state(ep, 0, 0, 0)
        while True:
            new = _pack_state(ep, my_victim,
                              *divmod((state & _FLAGS) | my_flag, 2))
            old = yield nic.cas(home, addr, rkey, state, new)
            if old == state:
                break  # flag up, victim points at us
            if _unpack_state(old)[0] != ep:
                raise _Stale(f"lock {lock_id} reclaimed at tournament")
            state = old
        other_flag = _FLAGS ^ my_flag
        # Peterson's wait: only if the other flag was up when we landed
        poll = TOURNEY_POLL_US
        while state & other_flag:  # fixed by our CAS; exits by break
            raw = yield nic.rdma_read(home, addr, rkey, 8)
            sep, victim, rflag, lflag = _unpack_state(
                int.from_bytes(raw, "big"))
            if sep != ep:
                raise _Stale(f"lock {lock_id} reclaimed at tournament")
            flags = (rflag << 1) | lflag
            if not (flags & other_flag) or victim != my_victim:
                break  # other cohort left, or it yielded to us
            yield self.env.timeout(poll)
            poll = min(poll * 2, TOURNEY_POLL_MAX_US)
        if mgr.lock_epoch(lock_id) != ep:
            raise _Stale("reclaimed at tournament win instant")

    # -- release ----------------------------------------------------------
    def _attempt_release(self, lock_id: int, ep: int):
        mgr = self.manager
        extra = self._grant_extra.pop(lock_id, {})
        chain = extra.get("chain", 0)
        cohort = extra.get("cohort") or mgr.cohort_of(self, lock_id)
        nic = self.node.nic
        succs = self._drain_msgs(lock_id, "asucc", ep)
        succ = succs[0]["frm"] if succs else None
        if succ is not None and chain + 1 < mgr.cohort_budget:
            # in-budget cohort pass-off: the flag travels with the lock
            self._peer_call(succ, {"t": "apass", "kind": "pass",
                                   "lock": lock_id, "chain": chain + 1,
                                   "ep": ep})
            return
        # tenure ends here: lower our cohort's flag BEFORE closing the
        # tail or restarting the successor, so nobody else's flag-raise
        # can race ours (fresh leaders need tail == 0, impossible while
        # our queue entry lives; a restarted successor raises it itself)
        shome, saddr, srkey = mgr.state_word(lock_id)
        my_flag = _FLAG[cohort]
        # guess the state this tenure raised: our flag alone, victim us
        state = _pack_state(ep, _VICTIM[cohort], *divmod(my_flag, 2))
        while True:
            # the last flag down clears the victim: idle is (ep, 0, 0, 0)
            new = (state & ~my_flag if state & _FLAGS & ~my_flag
                   else _pack_state(ep, 0, 0, 0))
            old = yield nic.cas(shome, saddr, srkey, state, new)
            if old == state:
                break
            if _unpack_state(old)[0] != ep:
                return  # reclaimed: words already wiped
            state = old
        if succ is None:
            # no known successor: try to close our cohort's queue
            thome, taddr, trkey = mgr.tail_word(lock_id, cohort)
            word = pack(ep, self.token, 0)
            old = yield nic.cas(thome, taddr, trkey, word,
                                pack(ep, 0, 0))
            if old == word:
                return  # queue closed
            if unpack(old)[0] != ep:
                return  # reclaimed under us
            # a successor swapped the tail; its announce is in flight
            body = yield from self._wait_msg(lock_id, "asucc", ep)
            succ = body["frm"]
        # budget exhausted (or late-arriving successor): send it through
        # the tournament so the other cohort gets its turn
        self._peer_call(succ, {"t": "apass", "kind": "restart",
                               "lock": lock_id, "ep": ep})
