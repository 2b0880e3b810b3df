"""Protocol sanitizers: online invariant checks over the trace stream.

A sanitizer subscribes to a prefix of the event taxonomy and maintains a
small shadow model of the protocol it watches.  When an event contradicts
the model it *flags* a violation: in strict mode (the default) that
raises :class:`~repro.errors.SanitizerError` at the emission instant, so
the offending protocol step is at the top of the traceback; in
collecting mode the violation is only appended to ``violations`` and the
run continues (useful for tests that count them).

Sanitizers see events in emission order, which for client-side
observations of remote state can differ from execution order at the home
node (a delayed response resumes its process later).  Each shadow model
is therefore written against what emission order *does* guarantee — see
the per-class notes, in particular :class:`LockWordSanitizer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import SanitizerError
from ..dlm.ft import _EP_MASK, unpack
from .events import TraceEvent

__all__ = [
    "Sanitizer",
    "FlowControlSanitizer",
    "LockWordSanitizer",
    "RpcAtMostOnceSanitizer",
    "SingleOwnerSanitizer",
    "CacheAccountingSanitizer",
    "ALL_SANITIZERS",
]


class Sanitizer:
    """Base class: prefix subscription, violation log, strict/collect."""

    #: taxonomy prefix this sanitizer subscribes to
    PREFIX = ""
    #: short name used in exports and the CLI
    NAME = ""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[dict] = []

    # -- wiring ---------------------------------------------------------
    def attach(self, tracer) -> "Sanitizer":
        tracer.subscribe(self._on_event, self.PREFIX)
        return self

    def detach(self, tracer) -> None:
        tracer.unsubscribe(self._on_event)

    # -- verdicts -------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    def flag(self, ev: TraceEvent, msg: str) -> None:
        self.violations.append(
            {"t": ev.t, "node": ev.node, "etype": ev.etype, "msg": msg})
        if self.strict:
            raise SanitizerError(
                f"[{self.NAME}] t={ev.t:.3f} node={ev.node} "
                f"{ev.etype}: {msg}")

    def to_dict(self) -> dict:
        return {"violations": list(self.violations)}

    # -- to implement ---------------------------------------------------
    def _on_event(self, ev: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError


class FlowControlSanitizer(Sanitizer):
    """Credit and ring-byte conservation for ``transport.flowcontrol``.

    Invariants:
    * credits outstanding per sender stay within ``[0, capacity]`` —
      a take beyond capacity means a message was sent without a credit,
      a return below zero means credits were minted out of thin air;
    * reserved ring bytes per sender stay within ``[0, pool]``.
    """

    PREFIX = "flow."
    NAME = "flowcontrol"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._credits: Dict[int, int] = {}   # sender -> outstanding
        self._ring: Dict[int, int] = {}      # sender -> reserved bytes

    def _on_event(self, ev: TraceEvent) -> None:
        f = ev.fields
        if ev.etype == "flow.credit.take":
            s = f["sender"]
            n = self._credits.get(s, 0) + 1
            self._credits[s] = n
            if n > f["capacity"]:
                self.flag(ev, f"{n} credits outstanding exceeds "
                              f"capacity {f['capacity']}")
        elif ev.etype == "flow.credit.return":
            s = f["sender"]
            n = self._credits.get(s, 0) - f["n"]
            self._credits[s] = n
            if n < 0:
                self.flag(ev, f"credit return of {f['n']} drives "
                              f"outstanding to {n} (< 0)")
        elif ev.etype == "flow.ring.reserve":
            s = f["sender"]
            used = self._ring.get(s, 0) + f["nbytes"]
            self._ring[s] = used
            if used > f["pool"]:
                self.flag(ev, f"{used} ring bytes reserved exceeds "
                              f"pool {f['pool']}")
        elif ev.etype == "flow.ring.free":
            s = f["sender"]
            used = self._ring.get(s, 0) - f["nbytes"]
            self._ring[s] = used
            if used < 0:
                self.flag(ev, f"ring free of {f['nbytes']} drives "
                              f"reserved to {used} (< 0)")


class LockWordSanitizer(Sanitizer):
    """N-CoSED lock-word well-formedness and epoch monotonicity.

    The authoritative epoch stream is ``lock.reclaim`` — emitted at the
    home-local wipe instant, so it is totally ordered and must advance
    by exactly +1 (mod 2**16) per reclaim.  ``lock.word`` observations
    are client-side: a response delayed in the fabric can legitimately
    surface an *older* epoch after a reclaim, so stale epochs are never
    flagged.  What can't happen is a *future* epoch — one the home node
    has not opened yet; seeing it means the word was corrupted.  Future
    is decided by wrap distance: ``0 < (ep - current) % 2**16 < 2**15``.

    Well-formedness: a nonzero tail must be a token that has announced
    itself (every client emits ``lock.request`` before its first atomic
    lands), and the shared count can never exceed the client population
    (each client holds a given lock at most once).
    """

    PREFIX = "lock."
    NAME = "lockword"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._epochs: Dict[Tuple[str, int], int] = {}  # (mgr, lock) -> ep
        self._tokens: Dict[str, Set[int]] = {}         # mgr -> known tokens
        #: (mgr, lock) -> {token: mode} shadow of current grants
        self._holders: Dict[Tuple[str, int], Dict[int, str]] = {}

    def _on_event(self, ev: TraceEvent) -> None:
        f = ev.fields
        if ev.etype == "lock.request":
            self._tokens.setdefault(f["mgr"], set()).add(f["token"])
        elif ev.etype == "lock.reclaim":
            self._check_reclaim(ev, f)
        elif ev.etype == "lock.word":
            self._check_word(ev, f)
        elif ev.etype == "lock.grant":
            self._check_grant(ev, f)
        elif ev.etype in ("lock.release", "lock.revoke"):
            key = (f["mgr"], f["lock"])
            held = self._holders.get(key, {})
            if f["token"] not in held:
                self.flag(ev, f"token {f['token']} ended a grant it "
                              f"never had on lock {f['lock']}")
            else:
                del held[f["token"]]

    def _check_reclaim(self, ev: TraceEvent, f: dict) -> None:
        key = (f["mgr"], f["lock"])
        want = (f["old_ep"] + 1) & _EP_MASK
        if f["new_ep"] != want:
            self.flag(ev, f"reclaim epoch jump {f['old_ep']} -> "
                          f"{f['new_ep']} (want {want})")
        cur = self._epochs.get(key)
        if cur is not None and f["old_ep"] != cur:
            self.flag(ev, f"reclaim from epoch {f['old_ep']} but "
                          f"current is {cur}")
        self._epochs[key] = f["new_ep"]
        # Chubby-style revocation: the reclaim ends every current grant.
        # The matching lock.revoke events follow; clear the shadow here
        # so the revokes (keyed by token) validate against the ledger.

    def _check_word(self, ev: TraceEvent, f: dict) -> None:
        key = (f["mgr"], f["lock"])
        ep, tail, count = unpack(f["word"])
        cur = self._epochs.get(key, 0)
        dist = (ep - cur) & _EP_MASK
        if 0 < dist < 0x8000:
            self.flag(ev, f"word carries future epoch {ep} "
                          f"(home is at {cur})")
        tokens = self._tokens.get(f["mgr"], set())
        if tail and tail not in tokens:
            self.flag(ev, f"tail token {tail} was never announced "
                          f"by any client")
        if tokens and count > len(tokens):
            self.flag(ev, f"shared count {count} exceeds client "
                          f"population {len(tokens)}")

    def _check_grant(self, ev: TraceEvent, f: dict) -> None:
        key = (f["mgr"], f["lock"])
        held = self._holders.setdefault(key, {})
        if f["mode"] == "EXCLUSIVE" and held:
            self.flag(ev, f"exclusive grant to {f['token']} while "
                          f"{sorted(held)} still hold lock {f['lock']}")
        elif f["mode"] == "SHARED" and "EXCLUSIVE" in held.values():
            self.flag(ev, f"shared grant to {f['token']} while an "
                          f"exclusive holder exists on lock {f['lock']}")
        held[f["token"]] = f["mode"]


class RpcAtMostOnceSanitizer(Sanitizer):
    """At-most-once execution for reliable RPC (``transport.rpc``).

    A reliable call may be *attempted* many times (retries on drops) and
    the server may *answer* many times (dedup-cache replays), but the
    handler must run at most once per request id.  ``rpc.execute``
    events with ``rid=None`` are plain best-effort calls and exempt.
    """

    PREFIX = "rpc.execute"
    NAME = "rpc-at-most-once"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._executed: Set[Tuple] = set()   # (server, rid)

    def _on_event(self, ev: TraceEvent) -> None:
        rid = ev.fields.get("rid")
        if rid is None:
            return
        key = (ev.fields.get("server", ev.node), rid)
        if key in self._executed:
            self.flag(ev, f"request {rid} executed more than once "
                          f"on server {key[0]}")
        self._executed.add(key)


class SingleOwnerSanitizer(Sanitizer):
    """Single-owner discipline of the DDSS unit spin-lock.

    The CAS-token lock at the head of every shared-state unit admits one
    owner at a time; coherence models that lock (WRITE/STRICT/...) rely
    on it for their mutual exclusion.  The shadow model tracks ownership
    per ``(home, addr)``: a second acquire before release, or a release
    by a non-owner, is a violation.
    """

    PREFIX = "ddss.lock."
    NAME = "single-owner"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._owner: Dict[Tuple[int, int], int] = {}

    def _on_event(self, ev: TraceEvent) -> None:
        f = ev.fields
        key = (f["home"], f["addr"])
        if ev.etype == "ddss.lock.acquire":
            cur = self._owner.get(key)
            if cur is not None:
                self.flag(ev, f"token {f['token']} acquired unit lock "
                              f"{key} already owned by {cur}")
            self._owner[key] = f["token"]
        elif ev.etype == "ddss.lock.release":
            cur = self._owner.get(key)
            if cur != f["token"]:
                self.flag(ev, f"token {f['token']} released unit lock "
                              f"{key} owned by {cur}")
            self._owner.pop(key, None)


class CacheAccountingSanitizer(Sanitizer):
    """Store accounting for the cooperative cache (``repro.cache``).

    Shadow model: the set of documents (and their sizes) resident in
    each node's store, built from admit/evict events.  Invariants:
    * an eviction names a document the model says is resident;
    * after an admit, the store's reported ``used`` equals the model's
      size sum and never exceeds ``capacity``.

    Emission contract: when an insert evicts victims, the evict events
    are emitted *before* the admit, whose ``used`` is the post-insert
    figure — so the model is synchronized at every admit.
    """

    PREFIX = "cache."
    NAME = "cache-accounting"

    def __init__(self, strict: bool = True):
        super().__init__(strict)
        self._docs: Dict[int, Dict] = {}   # node -> {doc: size}

    def _on_event(self, ev: TraceEvent) -> None:
        f = ev.fields
        if ev.etype == "cache.evict":
            docs = self._docs.setdefault(ev.node, {})
            if f["doc"] not in docs:
                self.flag(ev, f"evicted {f['doc']!r} which the store "
                              f"never admitted")
            else:
                del docs[f["doc"]]
        elif ev.etype == "cache.admit":
            docs = self._docs.setdefault(ev.node, {})
            docs[f["doc"]] = f["size"]
            used = sum(docs.values())
            if used != f["used"]:
                self.flag(ev, f"store reports {f['used']} bytes used "
                              f"but admitted documents total {used}")
            if f["used"] > f["capacity"]:
                self.flag(ev, f"used {f['used']} exceeds capacity "
                              f"{f['capacity']}")


#: every sanitizer class, in the order exports list them
ALL_SANITIZERS = [
    CacheAccountingSanitizer,
    FlowControlSanitizer,
    LockWordSanitizer,
    RpcAtMostOnceSanitizer,
    SingleOwnerSanitizer,
]
