"""Starvation/fairness instrumentation for the lock arena.

:class:`FairnessTracker` subscribes to the ``lock.`` taxonomy prefix
and derives, per manager:

* per-client grant counts (who actually got the lock, how often);
* wait-time distribution (request → grant) with a max-wait gauge —
  the starvation signal;
* Jain's fairness index over the per-client grant counts
  (``(Σx)² / (n·Σx²)``: 1.0 = perfectly even, → 1/n under starvation);
* hand-off chain lengths — runs of consecutive grants where the
  grantee was already queued when the previous holder released, i.e.
  the lock never went idle.  Long chains are what make ALock fast and
  what its cohort budget caps.

The tracker is scheme-agnostic: it needs only the ledger events every
manager already emits (``lock.request`` / ``lock.grant`` /
``lock.release`` / ``lock.revoke``), so SRSL and the one-sided designs
are measured identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["FairnessTracker", "jain_index"]


def jain_index(counts) -> float:
    """Jain's fairness index of a sequence of non-negative counts."""
    xs = [float(c) for c in counts]
    n = len(xs)
    if n == 0:
        return 1.0
    total = sum(xs)
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0
    return (total * total) / (n * sq)


class _MgrStats:
    __slots__ = ("grants", "waits", "max_wait", "chains", "max_chain")

    def __init__(self):
        self.grants: Dict[int, int] = {}   # token -> grant count
        self.waits: List[float] = []       # request -> grant (µs)
        self.max_wait = 0.0
        self.chains: List[int] = []        # closed hand-off chains
        self.max_chain = 0


class FairnessTracker:
    """Derives fairness/starvation signals from ``lock.`` trace events."""

    PREFIX = "lock."

    def __init__(self):
        self._mgrs: Dict[str, _MgrStats] = {}
        #: (mgr, lock, token) -> pending request instants (FIFO)
        self._pending: Dict[Tuple[str, int, int], List[float]] = {}
        #: (mgr, lock) -> instant of the most recent release/revoke
        self._last_release: Dict[Tuple[str, int], float] = {}
        #: (mgr, lock) -> length of the hand-off chain in progress
        self._chain: Dict[Tuple[str, int], int] = {}
        self._finished = False

    # -- wiring ---------------------------------------------------------
    def attach(self, obs) -> "FairnessTracker":
        """Subscribe to a live observability stack's tracer."""
        obs.trace.subscribe(self._on_event, self.PREFIX)
        return self

    def _mgr(self, name: str) -> _MgrStats:
        st = self._mgrs.get(name)
        if st is None:
            st = self._mgrs[name] = _MgrStats()
        return st

    # -- event handling --------------------------------------------------
    def _on_event(self, ev) -> None:
        f = ev.fields
        mgr = f.get("mgr")
        if mgr is None:
            return
        lock = f.get("lock")
        token = f.get("token")
        if ev.etype == "lock.request":
            self._pending.setdefault((mgr, lock, token), []).append(ev.t)
        elif ev.etype == "lock.grant":
            self._on_grant(ev, mgr, lock, token)
        elif ev.etype in ("lock.release", "lock.revoke"):
            self._last_release[(mgr, lock)] = ev.t
        elif ev.etype == "lock.reclaim":
            # wiped locks start over: close any chain in progress
            self._close_chain(mgr, lock)

    def _on_grant(self, ev, mgr: str, lock: int, token: int) -> None:
        st = self._mgr(mgr)
        st.grants[token] = st.grants.get(token, 0) + 1
        req_t: Optional[float] = None
        pend = self._pending.get((mgr, lock, token))
        if pend:
            req_t = pend.pop(0)
            wait = ev.t - req_t
            st.waits.append(wait)
            if wait > st.max_wait:
                st.max_wait = wait
        # hand-off chain: the grantee was already queued when the
        # previous holder let go — the lock never went idle
        last_rel = self._last_release.get((mgr, lock))
        if (req_t is not None and last_rel is not None
                and req_t <= last_rel):
            self._chain[(mgr, lock)] = self._chain.get((mgr, lock), 0) + 1
        else:
            self._close_chain(mgr, lock)
            self._chain[(mgr, lock)] = 1

    def _close_chain(self, mgr: str, lock: int) -> None:
        length = self._chain.pop((mgr, lock), 0)
        if length > 1:  # a chain of 1 is just an uncontended grant
            st = self._mgr(mgr)
            st.chains.append(length)
            if length > st.max_chain:
                st.max_chain = length

    # -- results ----------------------------------------------------------
    def finish(self) -> Dict[str, dict]:
        """Close open chains and return the summary (idempotent)."""
        if not self._finished:
            for mgr, lock in list(self._chain):
                self._close_chain(mgr, lock)
            self._finished = True
        return self.summary()

    def summary(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for name, st in sorted(self._mgrs.items()):
            waits = sorted(st.waits)
            n = len(waits)
            out[name] = {
                "grants": sum(st.grants.values()),
                "clients": len(st.grants),
                "grants_per_client": dict(sorted(st.grants.items())),
                "jain": jain_index(st.grants.values()),
                "max_wait_us": st.max_wait,
                "mean_wait_us": (sum(waits) / n) if n else 0.0,
                "p99_wait_us": waits[int(0.99 * (n - 1))] if n else 0.0,
                "chains": len(st.chains),
                "max_chain": st.max_chain,
            }
        return out
