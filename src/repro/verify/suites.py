"""Trace verdicts: every oracle over one trace, reduced to one record.

:func:`judge` is the only place a trace is replayed through
:data:`ALL_ORACLES` and the only place a verdict is decided, so the
rule is the same for a packaged scenario run
(:func:`repro.scenarios.judged_run`), a chaos schedule, and an exported
trace file (:func:`check_trace`):

* ``violation`` — any oracle finding, or a scenario whose stats report
  ``conserved: False``;
* ``vacuous`` — clean, but the scenario's primary oracle consumed zero
  events (a bug in the scenario, not a clean protocol);
* ``ok`` — otherwise.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..obs.tracer import TraceSnapshot, trace_chunks
from .cache import CacheOracle
from .ddss import DDSSOracle, SingleOwnerOracle
from .ha import HAOracle
from .locks import LockOracle
from .shrink import shrink as _shrink
from .trace import TraceView, replay_fresh
from .transport import FlowOracle, RpcOracle
from .txn import TxnOracle

__all__ = ["ALL_ORACLES", "judge", "add_reproducer", "check_trace",
           "canonical_trace_sha"]

#: every oracle; each consumes only the event prefixes it declares, so
#: running all of them over any trace is safe and catches cross-talk.
ALL_ORACLES: Sequence[Callable] = (LockOracle, DDSSOracle, CacheOracle,
                                   HAOracle, TxnOracle, FlowOracle,
                                   RpcOracle, SingleOwnerOracle)


def judge(view: TraceView, stats: Optional[dict] = None,
          primary: Optional[str] = None) -> dict:
    """Replay ``view`` through every oracle; fold in the scenario's own
    ``stats``; decide the verdict."""
    oracles, violations = replay_fresh(view, ALL_ORACLES)
    by_name = {o.NAME: o.to_dict() for o in oracles}
    stats = dict(stats or {})
    msgs = [v["msg"] for v in violations]
    if stats.get("conserved") is False:
        msgs.append("[stats] conservation check failed")
    if msgs:
        verdict = "violation"
    elif primary is not None and by_name[primary]["checked"] == 0:
        verdict = "vacuous"
    else:
        verdict = "ok"
    return {
        "events": len(view),
        "sim_now_us": view.meta.get("sim_now_us"),
        "oracles": by_name,
        "violations": len(msgs),
        "violation_msgs": msgs[:4],
        "stats": stats,
        "verdict": verdict,
    }


def add_reproducer(record: dict, events: Sequence) -> None:
    """On an oracle violation, shrink ``events`` to a small failing
    event list and attach it to ``record`` as ``repro``."""
    if not any(o["violations"] for o in record["oracles"].values()):
        return
    report = _shrink(events, ALL_ORACLES)
    if report is not None:
        record["repro"] = {
            "violation": report["violation"],
            "original_events": report["original_events"],
            "kept_events": report["kept_events"],
            "probes": report["probes"],
            "events": [[ev.t, ev.node, ev.etype, ev.fields]
                       for ev in report["events"]],
        }


def check_trace(path: str, shrink: bool = True) -> dict:
    """Replay an exported ``repro-trace-v1`` file through every oracle."""
    view = TraceView.load(path)
    record = dict(judge(view), trace=path, trace_sha=canonical_trace_sha(
        dict(view.meta, emitted=view.emitted, events=view.events)))
    if shrink:
        add_reproducer(record, view.events)
    return record


_HEAD = itemgetter(0, 1, 2)  # (t, node, etype)


def canonical_trace_sha(doc: dict) -> str:
    """Digest of a trace quotiented by same-instant order.

    The agenda breaks same-time ties by insertion sequence, and the
    event kernel collapses a transfer's multi-event cascade into fewer
    (earlier-inserted) entries than the generator transfer of the
    reference kernel (``tests/sim/reference_kernel.py``) — so two
    causally *independent* chains landing at one simulated instant may
    pop in either order depending on the kernel.  That holds across
    nodes and equally for two chains co-located on one node (a lock
    grant and an unrelated verb completion of two workers, say).  The
    events are therefore compared as a *timed multiset*: sorted by
    ``(t, node, etype, serialised event)``, which keeps every
    timestamp, every field and every count byte-exact and gives up
    exactly one thing — the order of events inside one instant at one
    node.  An order flip with consequences moves a later timestamp or
    field and still changes the digest (``KNOWN_TIES`` in
    ``tests/verify/test_kernel_fold.py`` is the ledger of those).  The hashed
    text is built by :func:`~repro.obs.tracer.trace_chunks`.
    """
    events = doc["events"]
    if not isinstance(events, TraceSnapshot):  # not shared: encode here
        events = TraceSnapshot(events)
    rows = events.json_rows
    order = sorted(range(len(rows)), key=rows.__getitem__)  # minor key first
    order.sort(key=list(map(_HEAD, events)).__getitem__)    # stable
    head = {"sim_now_us": doc["sim_now_us"], "emitted": doc["emitted"]}
    digest = hashlib.sha256()
    for chunk in trace_chunks(head, list(map(rows.__getitem__, order))):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()[:16]
