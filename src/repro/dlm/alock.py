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

from typing import Tuple

from repro.errors import LockError
from repro.net.node import Node

from repro.dlm.base import LockMode
from repro.dlm.ft import (_EP_MASK, EpochFencedClient, EpochFencedManager,
                          _Stale, unpack)

__all__ = ["ALockManager", "ALockClient", "COHORT_LOCAL", "COHORT_REMOTE"]

COHORT_LOCAL = "L"
COHORT_REMOTE = "R"

#: per-lock word offsets in the home region
_OFF_LTAIL = 0
_OFF_RTAIL = 8
_OFF_STATE = 16

_VICTIM = {COHORT_LOCAL: 1, COHORT_REMOTE: 2}
_FLAG = {COHORT_LOCAL: 1, COHORT_REMOTE: 2}
_FLAGS = 3  # both flag bits of the state word
#: first and largest back-off (µs) between Peterson-wait polls
TOURNEY_POLL_US = 2.0
TOURNEY_POLL_MAX_US = 32.0


def _unpack_state(word: int) -> Tuple[int, int, int, int]:
    """``(epoch, victim, remote flag, local flag)`` of a state word."""
    return (word >> 48) & _EP_MASK, (word >> 2) & 0x3, \
        (word >> 1) & 1, word & 1


class ALockManager(EpochFencedManager):
    """Home state: two cohort tails + a tournament word per lock."""

    SCHEME = "alock"
    WORDS = "alock-words"
    WORD_STRIDE = 24

    def __init__(self, cluster, n_locks: int = 64, *,
                 cohort_budget: int = 4, **ft_kwargs):
        if cohort_budget < 1:
            raise LockError("cohort_budget must be >= 1")
        self.cohort_budget = cohort_budget
        super().__init__(cluster, n_locks=n_locks, **ft_kwargs)

    def raw_words(self, lock_id: int) -> Tuple[int, int, int]:
        """Direct (zero-time) view (ltail, rtail, state), for tests."""
        home, addr, _rkey = self._word_at[lock_id]
        region = self._words[home]
        base = addr - region.addr
        return (region.read_u64(base + _OFF_LTAIL),
                region.read_u64(base + _OFF_RTAIL),
                region.read_u64(base + _OFF_STATE))

    def client(self, node: Node) -> "ALockClient":
        return ALockClient(self, node)

    # -- epoch-fencing hooks ----------------------------------------------
    def _ft_tails(self, lock_id: int):
        ltail, rtail, _state = self.raw_words(lock_id)
        return unpack(ltail)[1], unpack(rtail)[1]

    def _ft_extra_reclaim(self, lock_id: int) -> bool:
        # a raised tournament flag with no holder and no live attempt is
        # residue of a crash between flag-set and grant/clear
        _lt, _rt, state = self.raw_words(lock_id)
        return bool(state & _FLAGS
                    and not self.holders.get(lock_id)
                    and not self._active.get(lock_id))


class ALockClient(EpochFencedClient):
    """Client; its cohort per lock is fixed by node placement: local
    on the lock's home node, remote elsewhere."""

    # -- acquire ----------------------------------------------------------
    def _attempt_acquire(self, lock_id: int, mode: LockMode):
        mgr = self.manager
        home, addr, rkey = mgr._word_at[lock_id]
        if home == self.node.id:
            cohort = COHORT_LOCAL
        else:
            cohort, addr = COHORT_REMOTE, addr + _OFF_RTAIL
        nic = self.node.nic
        # guess a free cohort tail; a lost CAS returns the next guess
        ep, tail = mgr._epochs.get(lock_id, 0), 0
        word = ep << 48
        while True:
            old = yield nic.cas(home, addr, rkey, word,
                                (ep << 48) | (self.token << 24))
            if old == word:
                break
            word = old
            ep, tail, _ = unpack(old)
            if tail == self.token:
                raise _Stale(f"own stale tail on lock {lock_id}")
        if self.env.obs is not None:
            self._obs_enqueue(lock_id, mode, prev=tail, ep=ep,
                              cohort=cohort)
        extra = {"cohort": cohort, "budget": mgr.cohort_budget}
        if tail != 0:
            # queued behind a cohort predecessor: announce ourselves,
            # then wait for an in-budget pass or a budget-exhausted
            # restart (which sends us into the tournament ourselves)
            self._peer_call(tail, {"t": "asucc", "lock": lock_id,
                                   "frm": self.token, "ep": ep})
            body = yield from self._wait_msg(lock_id, "apass", ep)
            if body["kind"] == "pass":
                if mgr._epochs.get(lock_id, 0) != ep:
                    raise _Stale("reclaimed at cohort pass-off instant")
                return ep, dict(extra, chain=body["chain"])
            if body["kind"] != "restart":  # pragma: no cover - defensive
                raise LockError(f"unexpected pass kind {body['kind']!r}")
        yield from self._tournament(lock_id, ep, cohort)
        return ep, dict(extra, chain=0)

    def _tournament(self, lock_id: int, ep: int, cohort: str):
        """Peterson round between the two cohort leaders."""
        mgr = self.manager
        home, addr, rkey = mgr._word_at[lock_id]
        addr += _OFF_STATE
        nic = self.node.nic
        my_flag = _FLAG[cohort]
        my_victim = _VICTIM[cohort]
        # guess the idle word (both flags down, victim cleared)
        state = ep << 48
        while True:
            # our flag up and the victim us, the other flag as found
            new = (ep << 48) | (my_victim << 2) | (state & _FLAGS) | my_flag
            old = yield nic.cas(home, addr, rkey, state, new)
            if old == state:
                break  # flag up, victim points at us
            if old >> 48 != ep:
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
        if mgr._epochs.get(lock_id, 0) != ep:
            raise _Stale("reclaimed at tournament win instant")

    # -- release ----------------------------------------------------------
    def _attempt_release(self, lock_id: int, ep: int):
        mgr = self.manager
        chain = self._grant_extra.pop(lock_id, {}).get("chain", 0)
        home, addr, rkey = mgr._word_at[lock_id]
        cohort = COHORT_LOCAL if home == self.node.id else COHORT_REMOTE
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
        my_flag = _FLAG[cohort]
        # guess the state this tenure raised: our flag alone, victim us
        state = (ep << 48) | (_VICTIM[cohort] << 2) | my_flag
        while True:
            # the last flag down clears the victim: idle is (ep, 0, 0, 0)
            new = (state & ~my_flag if state & _FLAGS & ~my_flag
                   else ep << 48)
            old = yield nic.cas(home, addr + _OFF_STATE, rkey, state, new)
            if old == state:
                break
            if old >> 48 != ep:
                return  # reclaimed: words already wiped
            state = old
        if succ is None:
            # no known successor: try to close our cohort's queue
            if cohort == COHORT_REMOTE:
                addr += _OFF_RTAIL
            word = (ep << 48) | (self.token << 24)
            old = yield nic.cas(home, addr, rkey, word, ep << 48)
            if old == word:
                return  # queue closed
            if old >> 48 != ep:
                return  # reclaimed under us
            # a successor swapped the tail; its announce is in flight
            body = yield from self._wait_msg(lock_id, "asucc", ep)
            succ = body["frm"]
        # budget exhausted (or late-arriving successor): send it through
        # the tournament so the other cohort gets its turn
        self._peer_call(succ, {"t": "apass", "kind": "restart",
                               "lock": lock_id, "ep": ep})
