"""Typed trace events and the event taxonomy.

A :class:`TraceEvent` is a small immutable record: the simulated
timestamp, the node the event is attributed to (``-1`` when no single
node applies), a dotted event type from :data:`TAXONOMY`, and a dict of
type-specific fields.  Dotted types form a hierarchy — oracles and
queries subscribe by *prefix* (``"lock."`` matches ``lock.word`` and
``lock.reclaim``).

The taxonomy is the contract between emission sites and consumers: an
emission site may add fields, but the fields listed here are guaranteed.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple

__all__ = ["TraceEvent", "TAXONOMY"]


class TraceEvent(NamedTuple):
    """One traced occurrence at simulated time ``t`` on node ``node``."""

    t: float
    node: int
    etype: str
    fields: Dict[str, Any]


#: event type -> (guaranteed fields, description)
TAXONOMY: Dict[str, tuple] = {
    # -- one-sided verbs (repro.net.nic) -------------------------------
    "verb.issue": (("op", "dst", "nbytes"),
                   "one-sided verb posted (op: read|write|cas|faa)"),
    "verb.complete": (("op", "dst", "us"),
                      "verb completed; us = issue-to-completion latency"),
    "verb.fail": (("op", "dst"),
                  "verb failed (injected fault or crashed peer)"),
    # -- two-sided messages (repro.net.nic) ----------------------------
    "msg.send": (("dst", "size", "mid"), "send posted"),
    "msg.deliver": (("src", "mid"), "message enqueued at the receiver"),
    "msg.drop": (("src", "mid"), "message dropped by an injected fault"),
    "msg.dup": (("src", "mid"), "message delivered twice (duplicate)"),
    # -- RPC (repro.transport.rpc) -------------------------------------
    # Traced only under a fault injector.
    "rpc.retry": (("rid", "attempt", "dst"),
                  "request re-sent after a deadline"),
    "rpc.timeout": (("rid", "dst"), "retry budget exhausted; call failed"),
    "rpc.execute": (("rid", "server"), "server ran the handler"),
    "rpc.dup_request": (("rid", "server"),
                        "re-sent or duplicated request answered from "
                        "the server's reply window"),
    # -- locks (repro.dlm) ---------------------------------------------
    "lock.request": (("mgr", "lock", "token", "mode"),
                     "client began an acquire"),
    "lock.enqueue": (("mgr", "lock", "token", "mode", "prev", "ep"),
                     "requester landed in the wait queue; prev is the "
                     "queue predecessor read atomically from the lock "
                     "word (0 = none; server decision order for SRSL; "
                     "ALock adds cohort='L'|'R')"),
    "lock.grant": (("mgr", "lock", "token", "mode"),
                   "ledger recorded a grant (ep added under FT; ALock "
                   "adds cohort/chain/budget — chain is the 0-based "
                   "position in the cohort pass-off run)"),
    "lock.release": (("mgr", "lock", "token"),
                     "ledger recorded a voluntary release"),
    "lock.revoke": (("mgr", "lock", "token"),
                    "grant forcibly ended by a lease reclaim"),
    "lock.reclaim": (("mgr", "lock", "old_ep", "new_ep"),
                     "reaper wiped the word and opened a new epoch"),
    "lock.rehome": (("mgr", "lock", "frm", "to", "ep"),
                    "failover moved the lock word to a live home"),
    "lock.fail": (("mgr", "lock", "token", "attempts"),
                  "acquire exhausted its retry budget (LockError)"),
    "lock.word": (("mgr", "lock", "word"),
                  "a protocol step observed the raw 64-bit lock word"),
    # -- flow control (repro.transport.flowcontrol) --------------------
    "flow.credit.take": (("sender", "capacity"),
                         "credit consumed (one preposted buffer)"),
    "flow.credit.return": (("sender", "n"),
                           "n credits returned by the receiver ack"),
    "flow.ring.reserve": (("sender", "nbytes", "pool"),
                          "sender reserved ring space for a message"),
    "flow.ring.free": (("sender", "nbytes"),
                       "receiver ack freed ring space"),
    # -- cooperative cache (repro.cache) -------------------------------
    "cache.hit.local": (("doc", "tok", "t0"),
                        "served from the proxy's own store (tok = content "
                        "fingerprint served; t0 = lookup start)"),
    "cache.hit.remote": (("doc", "tok", "t0", "holder"),
                         "served by one-sided pull from a peer store"),
    "cache.miss": (("doc",), "not cached anywhere reachable"),
    "cache.admit": (("doc", "size", "used", "capacity", "tok"),
                    "document inserted into a store"),
    "cache.evict": (("doc", "size"),
                    "document evicted (capacity or retirement)"),
    # -- DDSS (repro.ddss) ---------------------------------------------
    "ddss.get": (("key",), "data-plane get issued"),
    "ddss.put": (("key",), "data-plane put issued"),
    "ddss.alloc": (("key", "model", "nbytes", "delta", "ttl_us",
                    "replicas"),
                   "key allocated with its coherence contract"),
    "ddss.get.done": (("key", "model", "t0", "version", "nbytes", "data",
                       "hit", "age_us"),
                      "get returned to the caller (t0 = start; version "
                      "None when the model carries none; data = hex "
                      "payload or blake2b digest for large payloads)"),
    "ddss.put.done": (("key", "model", "t0", "version", "nbytes", "data"),
                      "put completed (fields as ddss.get.done)"),
    "ddss.cache_hit": (("key",),
                       "get served from the local DELTA/TEMPORAL copy"),
    "ddss.lock.acquire": (("home", "addr", "token"),
                          "unit spin-lock CAS succeeded"),
    "ddss.lock.release": (("home", "addr", "token"),
                          "unit spin-lock released"),
    "ddss.migrate": (("key", "frm", "to"),
                     "unit rebalanced to a new home; the old block is "
                     "tombstoned and quarantined"),
    # -- multi-key transactions (repro.txn) ----------------------------
    "txn.begin": (("tid", "variant", "keys", "label"),
                  "transaction started (attempt loop follows)"),
    "txn.read": (("tid", "attempt", "key", "version", "nbytes", "data"),
                 "snapshot read in this attempt's read phase (data = "
                 "payload fingerprint as ddss.get.done)"),
    "txn.validate": (("tid", "attempt", "ok"),
                     "validation outcome: write set claimed at snapshot "
                     "versions and read-only versions re-checked"),
    "txn.install": (("tid", "attempt", "key", "version", "nbytes",
                     "data"),
                    "one write-set key published at its new version"),
    "txn.commit": (("tid", "attempt", "keys", "attempts"),
                   "every write-set key published; keys lists the "
                   "write set (attempts = total attempts used)"),
    "txn.abort": (("tid", "attempt", "reason"),
                  "attempt aborted after a clean unwind (bounded "
                  "retry may follow)"),
    "txn.wedged": (("tid", "attempt", "installed", "keys"),
                   "publish phase interrupted mid-write-set: installed "
                   "keys are durable, the rest hold the busy bit "
                   "(outcome indeterminate)"),
    # -- reconfiguration (repro.reconfig) ------------------------------
    "reconfig.migrate": (("mnode", "frm", "to"),
                         "node moved between services by load"),
    "reconfig.evict": (("mnode", "service"),
                       "dead node evicted from a service"),
    "reconfig.backfill": (("mnode", "service"),
                          "donor node backfilled into a starved service"),
    "reconfig.restore": (("mnode", "service"),
                         "restarted node restored to a service"),
    "reconfig.fenced": (("mnode", "service"),
                        "membership change refused: no quorum"),
    # -- failure detection (repro.monitor) -----------------------------
    "detect.suspect": (("watched",),
                       "detector marked a watched node suspect"),
    "detect.clear": (("watched",),
                     "suspect answered before confirmation (flap)"),
    "detect.dead": (("watched",), "detector declared the node dead"),
    "detect.alive": (("watched",), "dead node answered a probe again"),
    "detect.fenced": (("watched",),
                      "death verdict parked: decider lacks quorum"),
    # -- injected faults (repro.faults) --------------------------------
    "fault.crash": ((), "fail-stop crash of the event's node"),
    "fault.restart": ((), "crashed node came back (memory intact)"),
    "fault.partition": (("groups", "oneway", "until"),
                        "partition window opened (node -1 = fabric)"),
    "fault.partition.heal": (("groups", "oneway"),
                             "partition window closed"),
    "fault.slow": (("mnode", "factor", "until"),
                   "gray failure: node's transfers slowed"),
    "fault.slow.end": (("mnode", "factor"), "slow-node window closed"),
    "fault.stall": (("mnode", "until"),
                    "gray failure: node's credit returns wedged"),
    "fault.stall.end": (("mnode",), "credit-stall window closed"),
    # -- HA choreography expectations (repro.chaos) --------------------
    "ha.expect": (("kind", "victims", "after", "by", "start", "until"),
                  "declarative failover should(-not)-happen assertion "
                  "checked post-hoc by the HA oracle"),
    # -- sharded namespaces (repro.shard) ------------------------------
    "shard.rebalance": (("mgr", "kind", "mnode", "ep", "members"),
                        "shard ring membership changed (evict/restore)"),
    "shard.bounce": (("key", "frm", "to", "ep"),
                     "directory op hit a non-owner daemon and was "
                     "redirected to the current ring owner"),
}
