"""One pass, one encoding: the routed replay, the shared per-event JSON
strings, the digest and the export all agree with their reference forms.

``reference_sha`` is ``canonical_trace_sha`` as it was written when it
``json.dumps``-ed the whole sorted document; ``reference_replay`` is the
replay loop that asked every oracle about every event.  The optimised
forms must reproduce both exactly.
"""

import copy
import hashlib
import json
import random
from operator import itemgetter

import pytest

from repro.obs import ALL_SANITIZERS
from repro.obs.events import TraceEvent
from repro.obs.tracer import TraceSnapshot, trace_chunks
from repro.scenarios import SCENARIOS, judged_run
from repro.verify import (ALL_ORACLES, HAOracle, LockOracle, TraceView,
                          canonical_trace_sha, replay_fresh)

# -- the reference digest (verbatim) ----------------------------------------

_HEAD = itemgetter(0, 1, 2)  # (t, node, etype)


def _encoded(event: list) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def reference_sha(doc: dict) -> str:
    events = sorted(doc["events"], key=_HEAD)
    # the serialised form only has to settle events that agree on
    # (t, node, etype) — a fraction of a percent — so it is computed
    # for those runs alone rather than as a sort key for every event
    heads = list(map(_HEAD, events))
    n, lo = len(events), 0
    for hi in range(1, n + 1):
        if hi == n or heads[hi] != heads[lo]:
            if hi - lo > 1:
                events[lo:hi] = sorted(events[lo:hi], key=_encoded)
            lo = hi
    blob = json.dumps({"sim_now_us": doc["sim_now_us"],
                       "emitted": doc["emitted"], "events": events},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- the reference replay and sanitizer dispatch ----------------------------

def reference_replay(events, factories):
    """Every oracle asked about every event (the per-event prefix loop)."""
    oracles = [f() for f in factories]
    for idx, ev in enumerate(events):
        for oracle in oracles:
            if any(ev.etype.startswith(p) for p in oracle.PREFIXES):
                oracle.checked += 1
                oracle.feed(idx, ev)
    for oracle in oracles:
        oracle.finish()
    return {o.NAME: o.to_dict() for o in oracles}


def reference_sanitize(events):
    """Fresh collect-mode sanitizers fed by the per-event prefix loop."""
    sans = [cls(strict=False) for cls in ALL_SANITIZERS]
    for ev in events:
        for san in sans:
            if ev.etype.startswith(san.PREFIX):
                san._on_event(ev)
    out = [dict(v, sanitizer=s.NAME)
           for s in sorted(sans, key=lambda s: s.NAME) for v in s.violations]
    out.sort(key=lambda v: (v["t"], v["sanitizer"]))
    return out


def as_lists(obs) -> dict:
    """The trace document as the tracer used to hand it out."""
    return {"format": "repro-trace-v1", "sim_now_us": obs.env.now,
            "emitted": obs.trace.emitted,
            "events": [[ev.t, ev.node, ev.etype, ev.fields]
                       for ev in obs.trace]}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- scenario rows -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_row_matches_references(name):
    """Digest, per-oracle counts and findings, and sanitizer findings of
    every table row (fast kernel, seed 0) equal the reference forms."""
    record, obs = judged_run(name)
    events = obs.trace.snapshot()
    assert record["trace_sha"] == reference_sha(as_lists(obs))
    assert record["oracles"] == reference_replay(events, ALL_ORACLES)
    assert record["sanitizers"] == reference_sanitize(events)


@pytest.mark.parametrize("name", ["ncosed", "txn-occ", "shard", "cache-bcc"])
def test_export_and_both_encodings_agree(name):
    record, obs = judged_run(name)
    lists = as_lists(obs)
    text = obs.export_trace_json()
    assert text == dumps(lists)
    want = reference_sha(lists)
    assert canonical_trace_sha(json.loads(text)) == want      # fresh
    assert canonical_trace_sha(obs.trace_dict()) == want      # shared
    assert record["trace_sha"] == want


def test_one_snapshot_per_run():
    _record, obs = judged_run("ncosed")
    snap = obs.trace.snapshot()
    assert obs.trace_dict()["events"] is snap
    assert TraceView.from_obs(obs).events is snap
    assert "json_rows" in vars(snap)  # encoded by the digest, kept
    obs.trace.emit("cache.miss", node=0, doc=1)
    assert obs.trace.snapshot() is not snap
    assert obs.trace.snapshot()[-1].etype == "cache.miss"


# -- seeded synthetic traces -------------------------------------------------

#: awkward JSON values: float sums, ints past 2**53, non-ASCII and
#: escaped text, bools, None, nested lists and dicts
VALUES = [0.1 + 0.2, 1.1 * 3, 2 ** 53 + 1, -(2 ** 64) - 7, 1e-300, 1e308,
          -0.0, "héllo ☃", "日本語", "", 'q"b\\s\n\t', True, False, None,
          [1, [2.5, "x", [None]], []], {"z": [None, 0.30000000000000004],
                                        "a": {"é": True}}]
ETYPES = ["lock.grant", "lock.request", "verb.issue", "ddss.put.done",
          "cache.hit.local"]


def synthetic(seed: int, n: int) -> list:
    """Rows in time order with long same-(t, node, etype) runs, exact
    duplicates, and float instants built by repeated addition."""
    rng = random.Random(seed)
    rows, t = [], 0.0
    while len(rows) < n:
        t += rng.choice([0.0, 0.1, 0.2, 1e-9, 3.0])
        node, etype = rng.choice([0, 1, 2, 2 ** 53 + 1]), rng.choice(ETYPES)
        for _ in range(rng.choice([1, 1, 2, 7, 40])):
            fields = {f"f{j}": copy.deepcopy(rng.choice(VALUES))
                      for j in range(rng.randrange(5))}
            rows.append([t, node, etype, fields])
            if rng.random() < 0.2:
                rows.append(copy.deepcopy(rows[-1]))
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_synthetic_digest_matches_reference(seed):
    rows = synthetic(seed, 600)
    doc = {"sim_now_us": rows[-1][0], "emitted": len(rows), "events": rows}
    want = reference_sha(doc)
    snap = TraceSnapshot(TraceEvent(*row) for row in rows)
    assert canonical_trace_sha(doc) == want
    assert canonical_trace_sha(dict(doc, events=snap)) == want
    shuffled = rows[:]
    random.Random(seed).shuffle(shuffled)
    assert canonical_trace_sha(dict(doc, events=shuffled)) == want


def test_synthetic_export_text_matches_dumps():
    """Long enough to span several chunks of joined rows."""
    rows = synthetic(11, 9000)
    doc = {"format": "repro-trace-v1", "sim_now_us": 1.5,
           "emitted": len(rows)}
    snap = TraceSnapshot(TraceEvent(*row) for row in rows)
    assert "".join(trace_chunks(doc, snap.json_rows)) == dumps(
        dict(doc, events=rows))
    assert "".join(trace_chunks(doc, [])) == dumps(dict(doc, events=[]))


# -- routed replay -----------------------------------------------------------

def _grant(t, token):
    return TraceEvent(t, 1, "lock.grant", {"mgr": "m", "lock": 0,
                                           "token": token,
                                           "mode": "EXCLUSIVE"})


class _Overlapping(HAOracle):
    """HAOracle with a prefix that covers several of its own."""

    NAME = "ha-overlap"
    PREFIXES = HAOracle.PREFIXES + ("lock.",)


def test_oracle_with_overlapping_prefixes_is_fed_once():
    events = [_grant(1.0, 7),
              TraceEvent(2.0, 1, "lock.release",
                         {"mgr": "m", "lock": 0, "token": 7}),
              TraceEvent(3.0, 1, "lock.word", {"mgr": "m", "lock": 0,
                                               "word": 0}),
              TraceEvent(4.0, 1, "verb.issue", {"op": "read"})]
    fed = []

    class Probe(_Overlapping):
        def feed(self, idx, ev):
            fed.append(idx)
            super().feed(idx, ev)

    oracles, _ = replay_fresh(TraceView(events), [Probe, LockOracle,
                                                  HAOracle])
    assert fed == [0, 1, 2]
    assert [o.checked for o in oracles] == [3, 3, 2]
