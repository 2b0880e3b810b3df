"""Mutual-exclusion + FIFO/fairness oracle for the five DLM designs.

The reference model is a per-lock automaton over the ledger event
stream (``lock.request`` / ``lock.enqueue`` / ``lock.grant`` /
``lock.release`` / ``lock.revoke`` / ``lock.reclaim`` / ``lock.word``):

* **Mutual exclusion** — an exclusive grant requires an empty holder
  set; a shared grant requires no exclusive holder.
* **FIFO fairness** — for the one-sided schemes (N-CoSED, DQNL) every
  ``lock.enqueue`` carries the predecessor token read *atomically* out
  of the lock word (the old tail), so the emitted chain reflects the
  true landing order at the home even when verb completions reach the
  requesters out of order.  A grant none of whose same-epoch enqueue
  attempts has a granted (or nil) chain predecessor is an overtake —
  "any attempt" because under faults a retrying client re-enqueues and
  may then consume the hand-off its earlier attempt earned.  For SRSL the server emits
  enqueues in decision order and the check is positional: two granted
  requests where either is exclusive must be granted in queue order
  (shared batches may reorder among themselves).
* **Epoch fencing** (FT N-CoSED) — grants carry the epoch they were
  issued under and must match the current epoch established by the
  authoritative ``lock.reclaim`` stream; reclaims advance the epoch by
  exactly one (mod 2^16) and every holder alive at a reclaim must be
  revoked — a surviving zombie is flagged at end of trace.
* **Word well-formedness** — observed lock words must name known
  tokens and never a *future* epoch.

Arena-design invariants (PR 10):

* **MCS queue order equals grant order** — a same-epoch grant must go
  to a token whose enqueue names either an empty queue (``prev == 0``)
  or the *immediately preceding* same-epoch grantee; skipping past the
  queue head is flagged even when the generic FIFO check (which allows
  any granted predecessor) would pass.
* **ALock cohort discipline** — grants carry ``cohort``/``chain``/
  ``budget``: the pass-off chain position must stay below the budget
  and advance by exactly one from the previous same-epoch grant of the
  same cohort; and a cohort may not win two consecutive tournaments
  while a leader of the other cohort was already queued (``prev == 0``)
  comfortably before the previous tenure began — the Peterson victim
  word makes back-to-back wins over a waiting rival impossible.
* **No grant to a fenced epoch** — the generic epoch check applies to
  every design: arena grants always carry ``ep`` (0 outside FT mode),
  so a grant issued under a reclaimed epoch is flagged for ALock/MCS
  exactly as for N-CoSED.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .trace import Oracle, TraceEvent

__all__ = ["LockOracle"]

_EP_MASK = 0xFFFF
_F24 = (1 << 24) - 1

#: slack (µs) for the ALock no-skip check: a rival cohort leader must
#: have been queued at least this long before the previous tenure began
#: for a repeat win to count as a skip (covers the enqueue-to-flag-set
#: window where the rival is queued but not yet in the tournament)
_ALOCK_SKIP_MARGIN_US = 50.0


def _ep_behind(ep: int, cur: int) -> bool:
    """True when ``ep`` is strictly behind ``cur`` (wrap-aware)."""
    return 0 < ((cur - ep) & _EP_MASK) < 0x8000


def _ep_ahead(ep: int, cur: int) -> bool:
    return 0 < ((ep - cur) & _EP_MASK) < 0x8000


class _LockState:
    __slots__ = ("epoch", "requests", "holders", "zombies",
                 "enqueues", "grants", "last_grant", "tenure")

    def __init__(self):
        self.epoch = 0
        #: token -> list of pending request modes (FIFO per token)
        self.requests: Dict[int, List[str]] = {}
        #: token -> (mode, ep, grant index)
        self.holders: Dict[int, Tuple[str, int, int]] = {}
        #: holders caught by a reclaim, awaiting their lock.revoke
        self.zombies: Dict[int, Tuple[str, int, int]] = {}
        #: enqueue records: dicts with token/mode/prev/ep/idx/grant_idx
        self.enqueues: List[dict] = []
        #: (token, ep, index) for every grant, in trace order
        self.grants: List[Tuple[int, int, int]] = []
        #: ALock: meta of the previous grant {token, ep, cohort, chain}
        self.last_grant: Optional[dict] = None
        #: ALock: tournament tenure in progress {cohort, ep, start_t}
        self.tenure: Optional[dict] = None


class LockOracle(Oracle):
    NAME = "locks"
    PREFIXES = ("lock.",)

    def __init__(self):
        super().__init__()
        self._locks: Dict[Tuple[str, int], _LockState] = {}
        #: mgr -> tokens seen requesting (the token registry we trust)
        self._tokens: Dict[str, Set[int]] = {}

    # -- helpers --------------------------------------------------------
    def _state(self, ev: TraceEvent) -> _LockState:
        key = (ev.fields["mgr"], ev.fields["lock"])
        st = self._locks.get(key)
        if st is None:
            st = self._locks[key] = _LockState()
        return st

    @staticmethod
    def _scheme(mgr: str) -> str:
        return mgr.rsplit("-", 1)[0]

    def _scope(self, ev: TraceEvent) -> dict:
        return {"mgr": ev.fields["mgr"], "lock": ev.fields["lock"]}

    # -- replay ---------------------------------------------------------
    def feed(self, idx: int, ev: TraceEvent) -> None:
        handler = getattr(self, "_on_" + ev.etype.split(".", 1)[1], None)
        if handler is not None:
            handler(idx, ev)

    def _on_request(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        self._tokens.setdefault(f["mgr"], set()).add(f["token"])
        st = self._state(ev)
        st.requests.setdefault(f["token"], []).append(f["mode"])

    def _on_enqueue(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        if f["mode"] not in st.requests.get(f["token"], ()):
            self.flag(idx, ev,
                      f"enqueue by token {f['token']} without a pending "
                      f"{f['mode']} request", **self._scope(ev))
        st.enqueues.append({
            "token": f["token"], "mode": f["mode"],
            "prev": f.get("prev", 0), "ep": f.get("ep", 0),
            "cohort": f.get("cohort"), "t": ev.t,
            "idx": idx, "grant_idx": None, "void": False,
        })

    def _on_grant(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        token, mode = f["token"], f["mode"]
        ep = f.get("ep", 0)
        scope = self._scope(ev)

        # epoch fencing: a grant must be issued under the current epoch
        if "ep" in f and ep != st.epoch:
            kind = "stale" if _ep_behind(ep, st.epoch) else "future"
            self.flag(idx, ev,
                      f"grant to token {token} fenced to {kind} epoch "
                      f"{ep} (current {st.epoch})", **scope)

        # a grant consumes a pending request of the same mode
        pending = st.requests.get(token, [])
        if mode in pending:
            pending.remove(mode)
        else:
            self.flag(idx, ev,
                      f"grant to token {token} without a pending "
                      f"{mode} request", **scope)

        # mutual exclusion against live (non-zombie) holders
        if mode == "EXCLUSIVE" and st.holders:
            self.flag(idx, ev,
                      f"exclusive grant to token {token} while held by "
                      f"{sorted(st.holders)}", **scope)
        elif mode == "SHARED" and any(
                m == "EXCLUSIVE" for m, _e, _i in st.holders.values()):
            self.flag(idx, ev,
                      f"shared grant to token {token} while exclusively "
                      f"held", **scope)

        rec = self._check_fairness(idx, ev, st, token, mode, ep, scope)
        scheme = self._scheme(f["mgr"])
        if scheme == "mcs" and rec is not None:
            self._check_mcs(idx, ev, st, token, ep, scope)
        elif scheme == "alock":
            self._check_alock(idx, ev, st, token, ep, scope)
        st.holders[token] = (mode, ep, idx)
        st.grants.append((token, ep, idx))

    def _check_fairness(self, idx, ev, st, token, mode, ep, scope
                        ) -> Optional[dict]:
        scheme = self._scheme(ev.fields["mgr"])
        cands = [c for c in st.enqueues
                 if (c["token"] == token and c["grant_idx"] is None
                     and not c["void"]
                     and (scheme == "srsl" or c["ep"] == ep))]
        if not cands:
            self.flag(idx, ev,
                      f"grant to token {token} with no matching enqueue "
                      f"(epoch {ep})", **scope)
            return None
        if scheme == "srsl":
            # server decision order: pair with the OLDEST open enqueue;
            # the positional check runs in finish()
            cands[0]["grant_idx"] = idx
            return cands[0]
        # consume the newest attempt (a retry supersedes its elders)
        cands[-1]["grant_idx"] = idx
        mgr = ev.fields["mgr"]
        for cand in cands:
            if (cand["prev"] != 0
                    and cand["prev"] not in self._tokens.get(mgr, ())):
                self.flag(idx, ev,
                          f"token {token} enqueued behind unknown token "
                          f"{cand['prev']} (corrupt lock word?)", **scope)
                return cands[-1]
        # FIFO: the grant is a hand-off addressed to ONE of this token's
        # attempts in the current epoch — under faults a retrying client
        # may legally consume a grant earned by an earlier attempt whose
        # predecessor completed, so any open attempt with a satisfied
        # (granted or nil) predecessor justifies the grant.
        if not any(c["prev"] == 0
                   or any(g_tok == c["prev"] and g_ep == ep and g_idx < idx
                          for g_tok, g_ep, g_idx in st.grants)
                   for c in cands):
            prev = cands[-1]["prev"]
            self.flag(idx, ev,
                      f"FIFO violation: token {token} granted before its "
                      f"queue predecessor {prev} (epoch {ep})", **scope)
        return cands[-1]

    def _check_mcs(self, idx, ev, st, token, ep, scope) -> None:
        """MCS: queue order equals grant order.

        The grantee must have entered the queue either on an empty tail
        (``prev == 0``) or directly behind the *immediately preceding*
        same-epoch grantee; the generic FIFO check (any granted
        predecessor) would let a grant skip past the queue head.  Any
        open same-epoch attempt (or the one just consumed) may justify
        the grant, mirroring the retry allowance above.
        """
        prev_grant = next(
            (g_tok for g_tok, g_ep, _i in reversed(st.grants)
             if g_ep == ep), 0)
        cands = [c for c in st.enqueues
                 if (c["token"] == token and c["ep"] == ep
                     and not c["void"]
                     and c["grant_idx"] in (None, idx))]
        if not any(c["prev"] in (0, prev_grant) for c in cands):
            named = sorted({c["prev"] for c in cands})
            self.flag(idx, ev,
                      f"MCS queue-order violation: grant to token {token} "
                      f"whose enqueue names predecessor(s) {named}, but "
                      f"the previous epoch-{ep} grant went to "
                      f"{prev_grant}", **scope)

    def _check_alock(self, idx, ev, st, token, ep, scope) -> None:
        """ALock: budget, chain continuity, and cohort no-skip."""
        f = ev.fields
        cohort = f.get("cohort")
        chain = f.get("chain")
        budget = f.get("budget")
        if cohort is None or chain is None or budget is None:
            self.flag(idx, ev,
                      f"ALock grant to token {token} without "
                      f"cohort/chain/budget fields", **scope)
            return
        if chain >= budget:
            self.flag(idx, ev,
                      f"cohort pass-off chain position {chain} reached "
                      f"the cohort budget {budget}", **scope)
        if chain > 0:
            prev = st.last_grant
            if prev is None or prev["ep"] != ep:
                self.flag(idx, ev,
                          f"chain continuation (chain={chain}) without a "
                          f"same-epoch predecessor grant", **scope)
            elif prev["cohort"] != cohort:
                self.flag(idx, ev,
                          f"in-budget pass-off crossed cohorts "
                          f"({prev['cohort']} -> {cohort})", **scope)
            elif chain != prev["chain"] + 1:
                self.flag(idx, ev,
                          f"pass-off chain jumped from {prev['chain']} "
                          f"to {chain}", **scope)
        else:
            # tournament win: the same cohort winning back to back while
            # a rival-cohort leader was already queued well before the
            # previous tenure began means the victim word was ignored
            ten = st.tenure
            if (ten is not None and ten["cohort"] == cohort
                    and ten["ep"] == ep):
                skipped = [
                    c for c in st.enqueues
                    if (c["cohort"] not in (None, cohort)
                        and c["ep"] == ep and c["prev"] == 0
                        and not c["void"] and c["grant_idx"] is None
                        and c["t"] + _ALOCK_SKIP_MARGIN_US
                        < ten["start_t"])]
                if skipped:
                    rivals = sorted(c["token"] for c in skipped)
                    self.flag(idx, ev,
                              f"cohort {cohort} won consecutive "
                              f"tournaments past waiting rival-cohort "
                              f"leader(s) {rivals}", **scope)
            st.tenure = {"cohort": cohort, "ep": ep, "start_t": ev.t}
        st.last_grant = {"token": token, "ep": ep,
                         "cohort": cohort, "chain": chain}

    def _on_release(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        if st.holders.pop(f["token"], None) is None:
            where = ("revoked holder"
                     if f["token"] in st.zombies else "non-holder")
            self.flag(idx, ev,
                      f"release of lock by {where} token {f['token']}",
                      **self._scope(ev))

    def _on_revoke(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        if st.zombies.pop(f["token"], None) is not None:
            return
        if st.holders.pop(f["token"], None) is not None:
            return
        self.flag(idx, ev,
                  f"revoke of non-holder token {f['token']}",
                  **self._scope(ev))

    def _on_reclaim(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        scope = self._scope(ev)
        if f["new_ep"] != ((f["old_ep"] + 1) & _EP_MASK):
            self.flag(idx, ev,
                      f"reclaim skipped epochs: {f['old_ep']} -> "
                      f"{f['new_ep']}", **scope)
        if f["old_ep"] != st.epoch:
            self.flag(idx, ev,
                      f"reclaim from epoch {f['old_ep']} but current is "
                      f"{st.epoch}", **scope)
        st.epoch = f["new_ep"]
        # every live holder must now be revoked (checked in finish);
        # enqueues of dead epochs can never be legally granted
        st.zombies.update(st.holders)
        st.holders.clear()
        for rec in st.enqueues:
            if rec["grant_idx"] is None and _ep_behind(rec["ep"], st.epoch):
                rec["void"] = True

    def _on_word(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._state(ev)
        scope = self._scope(ev)
        word = f["word"]
        known = self._tokens.get(f["mgr"], set())
        ep = (word >> 48) & _EP_MASK
        tail = (word >> 24) & _F24
        count = word & _F24
        if _ep_ahead(ep, st.epoch):
            self.flag(idx, ev,
                      f"lock word carries future epoch {ep} "
                      f"(current {st.epoch})", **scope)
        if tail and tail not in known:
            self.flag(idx, ev,
                      f"lock word tail {tail} is not a known token",
                      **scope)
        if known and count > len(known):
            self.flag(idx, ev,
                      f"lock word shared count {count} exceeds the "
                      f"{len(known)} registered tokens", **scope)

    # -- end of trace ---------------------------------------------------
    def finish(self) -> None:
        for (mgr, lock), st in sorted(self._locks.items()):
            for token, (mode, ep, gidx) in sorted(st.zombies.items()):
                self.flag(None, None,
                          f"token {token} ({mode}, epoch {ep}) survived a "
                          f"reclaim without a revoke", mgr=mgr, lock=lock)
            if self._scheme(mgr) == "srsl":
                self._finish_srsl(mgr, lock, st)

    def _finish_srsl(self, mgr: str, lock: int, st: _LockState) -> None:
        granted = [r for r in st.enqueues if r["grant_idx"] is not None]
        for i, a in enumerate(granted):
            for b in granted[i + 1:]:
                if a["mode"] == "SHARED" and b["mode"] == "SHARED":
                    continue  # shared batches may grant in any order
                if a["grant_idx"] > b["grant_idx"]:
                    self.flag(b["grant_idx"], None,
                              f"SRSL FIFO violation: token {b['token']} "
                              f"(queued at #{b['idx']}) granted before "
                              f"token {a['token']} (queued at #{a['idx']})",
                              mgr=mgr, lock=lock)
