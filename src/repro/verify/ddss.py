"""Per-model DDSS coherence oracles (paper §4.1).

Replays ``ddss.alloc`` / ``ddss.put.done`` / ``ddss.get.done`` events
against a sequential reference of each coherence contract.  Every done
event carries the op's conservative interval ``[t0, t]`` (generator
entry to completion emission), the version involved, and a payload
fingerprint, which is all the reference needs:

* **torn/corrupt read** (all models) — a get's bytes must be a prefix
  of some put's payload (or the unit's zero-initialised state); READ
  additionally requires the (version, data) pair to match one atomic
  snapshot put.
* **staleness** (every direct-home read) — a get may return put ``p``
  only if ``p`` is not *superseded*: no put ``p'`` with
  ``p'.t0 > p.done`` and ``p'.done < g.t0`` (then ``p'`` wholly
  followed ``p`` in memory and was committed before the get started).
  This encodes WRITE's serialized-put and STRICT's exclusion as their
  observable effect, with zero false positives under overlap.
* **VERSION monotonicity** — non-overlapping direct reads never see
  the version counter go backwards.
* **lost update** — counter-carrying models (WRITE/STRICT via the
  locked bump, VERSION/DELTA via FAA) must commit versions exactly
  ``{1..N}`` for N puts; READ's per-client counters are checked
  per node.
* **DELTA bound** — a cache hit's version may trail the newest version
  committed before the get started by at most ``delta``.
* **TEMPORAL bound** — a cache hit's age may not exceed ``ttl_us``.

Replicated keys are skipped (failover tolerates divergent copies by
design) as is NULL (no contract to check).

:class:`SingleOwnerOracle` checks the CAS-token spin lock at the head of
every unit, which the locking models (WRITE/STRICT/...) rely on for
their mutual exclusion: per ``(home, addr)``, a second acquire before
the release, or a release by a non-owner, is a violation.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from .trace import Oracle, TraceEvent

__all__ = ["DDSSOracle", "SingleOwnerOracle"]

#: mirror of repro.ddss.client._FP_MAX — payloads above this are digests
_FP_MAX = 64


def _zeros_fp(nbytes: int) -> str:
    if nbytes <= _FP_MAX:
        return "00" * nbytes
    return ("b2:" + hashlib.blake2b(b"\x00" * nbytes,
                                    digest_size=16).hexdigest())


def _value_matches(g: dict, p: dict) -> bool:
    """Could the get's bytes have come from this put?  Unknown (digest
    vs differing length) counts as a match — conservative, no false
    positives."""
    gd, pd = g["data"], p["data"]
    g_digest = gd.startswith("b2:")
    p_digest = pd.startswith("b2:")
    if not g_digest and not p_digest:
        m = 2 * min(g["nbytes"], p["nbytes"])
        return gd[:m] == pd[:m]
    if g["nbytes"] == p["nbytes"]:
        return gd == pd
    return True  # prefix of a digested payload: cannot refute


_INIT = {"version": 0, "data": None, "init": True}


class _KeyState:
    __slots__ = ("model", "delta", "ttl_us", "replicas", "puts", "gets")

    def __init__(self):
        self.model: Optional[str] = None
        self.delta: Optional[int] = None
        self.ttl_us: Optional[float] = None
        self.replicas = 0
        self.puts: List[dict] = []
        self.gets: List[dict] = []


class DDSSOracle(Oracle):
    NAME = "ddss"
    PREFIXES = ("ddss.alloc", "ddss.put.done", "ddss.get.done")

    def __init__(self):
        super().__init__()
        self._keys: Dict[int, _KeyState] = {}

    # -- collection (checks run at end of trace: an overlapping put's
    # completion may legally appear after the get it justifies) --------
    def _key(self, key: int) -> _KeyState:
        st = self._keys.get(key)
        if st is None:
            st = self._keys[key] = _KeyState()
        return st

    def feed(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        st = self._key(f["key"])
        if ev.etype == "ddss.alloc":
            st.model = f["model"]
            st.delta = f["delta"]
            st.ttl_us = f["ttl_us"]
            st.replicas = f["replicas"]
            return
        if st.model is None:
            st.model = f["model"]
        rec = {"idx": idx, "ev": ev, "t0": f["t0"], "t": ev.t,
               "node": ev.node, "version": f["version"],
               "nbytes": f["nbytes"], "data": f["data"],
               "hit": f.get("hit", False), "age_us": f.get("age_us")}
        (st.puts if ev.etype == "ddss.put.done" else st.gets).append(rec)

    # -- checks ---------------------------------------------------------
    def finish(self) -> None:
        for key in sorted(self._keys):
            st = self._keys[key]
            if st.model in (None, "NULL") or st.replicas:
                continue
            self._check_put_versions(key, st)
            for g in st.gets:
                self._check_get(key, st, g)
            self._check_monotonic(key, st)

    def _check_put_versions(self, key: int, st: _KeyState) -> None:
        if st.model == "READ":
            groups: Dict[int, List[int]] = {}
            for p in st.puts:
                groups.setdefault(p["node"], []).append(p["version"])
        else:
            groups = {-1: [p["version"] for p in st.puts
                           if p["version"] is not None]}
        for node, versions in sorted(groups.items()):
            if not versions:
                continue
            expect = set(range(1, len(versions) + 1))
            if set(versions) != expect:
                where = "" if node == -1 else f" from node {node}"
                last = max((p["idx"] for p in st.puts), default=None)
                self.flag(last, None,
                          f"lost update: {len(versions)} puts{where} "
                          f"committed versions {sorted(set(versions))}, "
                          f"expected {{1..{len(versions)}}}",
                          key=key, model=st.model)

    def _candidates(self, st: _KeyState, g: dict) -> List[dict]:
        out = []
        gv = g["version"]
        for p in st.puts:
            if p["t0"] > g["t"]:
                continue  # started after the get finished
            if not _value_matches(g, p):
                continue
            if st.model == "READ" and p["version"] != gv:
                continue  # snapshot pairs (version, data) atomically
            if (st.model in ("VERSION", "DELTA") and gv is not None
                    and p["version"] is not None and p["version"] > gv):
                continue  # data write lands after its own FAA
            out.append(p)
        if g["data"] == _zeros_fp(g["nbytes"]) and (gv in (None, 0)):
            out.append(dict(_INIT))
        return out

    def _superseded(self, st: _KeyState, cand: dict, g: dict) -> bool:
        if cand.get("init"):
            return any(p["t"] < g["t0"] for p in st.puts)
        return any(p["t0"] > cand["t"] and p["t"] < g["t0"]
                   for p in st.puts)

    def _check_get(self, key: int, st: _KeyState, g: dict) -> None:
        scope = {"key": key, "model": st.model}
        cands = self._candidates(st, g)
        if not cands:
            what = ("version/data snapshot matches no atomic put"
                    if st.model == "READ"
                    else "returned bytes match no committed put")
            self.flag(g["idx"], g["ev"], f"torn read: {what}", **scope)
            return
        if g["hit"]:
            self._check_hit(key, st, g, scope)
            return
        if all(self._superseded(st, c, g) for c in cands):
            newest = max((p["version"] or 0) for p in st.puts)
            self.flag(g["idx"], g["ev"],
                      f"stale read: every value the get could have "
                      f"returned was superseded by a put committed "
                      f"before the get began (newest version {newest})",
                      **scope)

    def _check_hit(self, key: int, st: _KeyState, g: dict,
                   scope: dict) -> None:
        if st.model == "DELTA" and st.delta is not None:
            bound = max((p["version"] for p in st.puts
                         if p["t"] <= g["t0"]
                         and p["version"] is not None), default=0)
            if g["version"] is not None and g["version"] < bound - st.delta:
                self.flag(g["idx"], g["ev"],
                          f"DELTA bound exceeded: hit served version "
                          f"{g['version']} but version {bound} was "
                          f"committed before the get (delta={st.delta})",
                          **scope)
        if st.model == "TEMPORAL" and st.ttl_us is not None:
            if g["age_us"] is not None and g["age_us"] > st.ttl_us:
                self.flag(g["idx"], g["ev"],
                          f"TEMPORAL bound exceeded: hit served a copy "
                          f"aged {g['age_us']:.1f}us "
                          f"(ttl {st.ttl_us:.1f}us)", **scope)

    def _check_monotonic(self, key: int, st: _KeyState) -> None:
        if st.model not in ("VERSION", "DELTA"):
            return
        direct = [g for g in st.gets
                  if not g["hit"] and g["version"] is not None]
        direct.sort(key=lambda g: g["idx"])
        for i, g1 in enumerate(direct):
            for g2 in direct[i + 1:]:
                if g1["t"] <= g2["t0"] and g2["version"] < g1["version"]:
                    self.flag(g2["idx"], g2["ev"],
                              f"version went backwards: read {g2['version']}"
                              f" after a non-overlapping read of "
                              f"{g1['version']}", key=key, model=st.model)


class SingleOwnerOracle(Oracle):
    NAME = "owner"
    PREFIXES = ("ddss.lock.",)

    def __init__(self):
        super().__init__()
        self._owner: Dict[Tuple[int, int], int] = {}  # (home, addr)

    def feed(self, idx: int, ev: TraceEvent) -> None:
        f = ev.fields
        key = (f["home"], f["addr"])
        cur = self._owner.get(key)
        if ev.etype == "ddss.lock.acquire":
            if cur is not None:
                self.flag(idx, ev, f"token {f['token']} acquired unit lock "
                                   f"{key} already owned by {cur}",
                          home=key[0], addr=key[1])
            self._owner[key] = f["token"]
        elif ev.etype == "ddss.lock.release":
            if cur != f["token"]:
                self.flag(idx, ev, f"token {f['token']} released unit lock "
                                   f"{key} owned by {cur}",
                          home=key[0], addr=key[1])
            self._owner.pop(key, None)
