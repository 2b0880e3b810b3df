"""Execute a :class:`FaultPlan` against a live cluster.

The injector owns the failure ground truth (``down`` set) and is the
single place the :mod:`repro.net` layer consults:

* :meth:`transfer_fault` — called by :meth:`Fabric.transfer` before any
  timing; returns an event that fails with :class:`NodeDownError` after
  :data:`DETECT_US` when either end is crashed (modelling an RC
  retry-exceeded completion), or with :class:`PartitionError` when the
  transfer crosses an active partition cut, else ``None``.
* :meth:`link_factor` — multiplier applied to serialization and wire
  latency of transfers touching a ``slow_node`` (a gray failure).
* :meth:`message_fate` — per delivered two-sided message: ``0`` drop,
  ``1`` deliver, ``2`` deliver twice.  Messages crossing a partition at
  delivery time are dropped.
* :meth:`verb_fault` — raises :class:`RdmaError` for one-sided verbs
  that fall into a failure window.
* :meth:`credit_stall_until` — end of the active ``stall_credits``
  window for a node (the flow-control layer defers its credit returns
  until then), or ``None``.
* :meth:`fenced` — the completion fence: given the value of
  :attr:`crashes` read when a transfer was injected, the error its
  completion must fail with if either endpoint crashed while it was in
  flight.  This is what keeps a restarted node from consuming a *zombie
  completion* posted by its previous incarnation.  Crashes come only
  from the plan, so a transfer that arrives before :attr:`calm_until`
  cannot be fenced; only one that a planned crash can reach calls it at
  the arrival instant.

Every hook reads the clock or the ``down`` set at the instant it is
called, so the net layer consults each one at the instant the generator
transfer would (DESIGN.md §7, §9).

Every node a plan names must exist in the cluster: the injector checks
the plan against the fabric's node ids before it schedules anything.

Crash/restart listeners let services react to membership ground truth;
the :class:`repro.monitor.PhiAccrualDetector` instead *discovers*
failures through probing, like a real deployment would.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.errors import (ConfigError, NodeDownError, PartitionError,
                          RdmaError)
from repro.sim import Event

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.cluster import Cluster

__all__ = ["FaultInjector"]

#: delay before a transfer involving a crashed node fails (µs) — models
#: the initiator NIC exhausting its RC retry budget.
DETECT_US = 20.0


def _check_nodes(plan: FaultPlan, known: Set[int]) -> None:
    """Raise :class:`ConfigError` for a fault naming an unknown node."""
    named = [("crash", c.node) for c in plan.crashes]
    named += [("partition", n) for p in plan.partitions
              for group in p.groups for n in group]
    named += [("slow_node", r.node) for r in plan.slow_nodes]
    named += [("stall_credits", r.node) for r in plan.credit_stalls]
    named += [("fail_verbs", n) for r in plan.verb_faults
              for n in (r.src, r.dst)]
    for kind, node in named:
        if node is not None and node not in known:
            raise ConfigError(f"{kind}: node {node} is not in the "
                              f"cluster ({len(known)} nodes)")


class FaultInjector:
    """Installs fault hooks on a cluster's fabric and runs the plan."""

    def __init__(self, cluster: "Cluster", plan: Optional[FaultPlan] = None):
        self.env = cluster.env
        self.fabric = cluster.fabric
        if self.fabric.injector is not None:
            raise ConfigError("cluster already has a fault injector")
        self.plan = plan or FaultPlan()
        _check_nodes(self.plan, set(self.fabric.node_ids))
        self.rng = cluster.rng.get("faults")
        self.down: Set[int] = set()
        #: node id -> communication-context incarnation; bumped on every
        #: crash so in-flight completions can be fenced against restarts
        self.incarnations: Dict[int, int] = {}
        #: crashes so far, cluster-wide.  A transfer keeps the value it
        #: read at injection; an equal value at arrival means nothing
        #: crashed in between (the common case, one compare), anything
        #: else is settled by :meth:`fenced`.
        self.crashes = 0
        #: when the plan's crash timers fire (as they compute it),
        #: latest first; :meth:`_crash` pops each, and ``calm_until`` is
        #: the next one (``inf`` after the last)
        now = self.env.now
        self._calm = sorted((now + (c.at - now) if c.at > now else now
                             for c in self.plan.crashes), reverse=True)
        self.calm_until = self._calm[-1] if self._calm else math.inf
        #: node id -> value of ``crashes`` just after its latest crash
        self._crash_stamp: Dict[int, int] = {}
        #: (time, "crash"|"restart", node_id) — the injected ground truth
        self.log: List[tuple] = []
        self._listeners: List[Callable[[int, str], None]] = []
        # fault counters, exposed for tests/diagnostics
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.verbs_failed = 0
        self.transfers_refused = 0
        self.transfers_partitioned = 0
        self.completions_fenced = 0
        self.fabric.injector = self
        for crash in self.plan.crashes:
            self.env.process(self._crash_proc(crash),
                             name=f"fault-crash@{crash.node}")
        # window markers: pure trace bookkeeping (scheduled whether or
        # not obs is installed, so the agenda is identical either way)
        for i, part in enumerate(self.plan.partitions):
            self.env.process(
                self._window_proc(
                    "fault.partition", "fault.partition.heal", part,
                    groups=[list(g) for g in part.groups],
                    oneway=part.oneway),
                name=f"fault-partition-{i}")
        for i, slow in enumerate(self.plan.slow_nodes):
            self.env.process(
                self._window_proc("fault.slow", "fault.slow.end", slow,
                                  mnode=slow.node, factor=slow.factor),
                name=f"fault-slow-{i}")
        for i, stall in enumerate(self.plan.credit_stalls):
            self.env.process(
                self._window_proc("fault.stall", "fault.stall.end", stall,
                                  mnode=stall.node),
                name=f"fault-stall-{i}")

    # ------------------------------------------------------------------
    # ground truth + control
    # ------------------------------------------------------------------
    def subscribe(self, fn: Callable[[int, str], None]) -> None:
        """Register ``fn(node_id, event)`` for "crash"/"restart" events."""
        self._listeners.append(fn)

    def _crash(self, node_id: int) -> None:
        """Fail-stop ``node_id`` now: a planned crash's timer fired."""
        calm = self._calm
        calm.pop()
        self.calm_until = calm[-1] if calm else math.inf
        if node_id in self.down:
            return
        self.down.add(node_id)
        self.incarnations[node_id] = self.incarnations.get(node_id, 0) + 1
        self.crashes += 1
        self._crash_stamp[node_id] = self.crashes
        self.log.append((self.env.now, "crash", node_id))
        self._obs_fault("fault.crash", node_id)
        for fn in self._listeners:
            fn(node_id, "crash")

    def _restart(self, node_id: int) -> None:
        """Bring ``node_id`` back (memory intact, see :class:`Crash`)."""
        if node_id not in self.down:
            return
        self.down.discard(node_id)
        self.log.append((self.env.now, "restart", node_id))
        self._obs_fault("fault.restart", node_id)
        for fn in self._listeners:
            fn(node_id, "restart")

    def _obs_fault(self, etype: str, node_id: int) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=node_id)
            obs.metrics.counter(f"{etype}s").inc()

    def _crash_proc(self, crash):
        if crash.at > self.env.now:
            yield self.env.timeout(crash.at - self.env.now)
        self._crash(crash.node)
        if crash.restart_at is not None:
            yield self.env.timeout(crash.restart_at - self.env.now)
            self._restart(crash.node)

    def _window_proc(self, open_etype: str, close_etype: str, fault,
                     **fields):
        """Emit trace markers at a windowed fault's boundaries."""
        if fault.start > self.env.now:
            yield self.env.timeout(fault.start - self.env.now)
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(open_etype, node=-1, until=fault.until,
                           **fields)
        if math.isinf(fault.until):
            return
        yield self.env.timeout(fault.until - self.env.now)
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(close_etype, node=-1, **fields)

    # ------------------------------------------------------------------
    # hooks consulted by the net layer
    # ------------------------------------------------------------------
    def partition_cut(self, src_id: int, dst_id: int) -> bool:
        """True when a ``src -> dst`` transfer crosses an active cut."""
        now = self.env.now
        return any(p.cuts(now, src_id, dst_id)
                   for p in self.plan.partitions)

    def transfer_fault(self, src_id: int, dst_id: int) -> Optional[Event]:
        """A failing event if either end is down or the route is cut."""
        if src_id in self.down or dst_id in self.down:
            self.transfers_refused += 1
            culprit = src_id if src_id in self.down else dst_id
            exc = NodeDownError(
                f"node {culprit} is down (transfer {src_id}->{dst_id})")
            return self._refuse(exc)
        if self.plan.partitions and self.partition_cut(src_id, dst_id):
            self.transfers_partitioned += 1
            exc = PartitionError(
                f"partition cuts transfer {src_id}->{dst_id}")
            return self._refuse(exc)
        return None

    def _refuse(self, exc: Exception) -> Event:
        """Fail after :data:`DETECT_US` — the RC retry-exhaustion model."""
        ev = self.env.event()
        self.env.timeout(DETECT_US).add_callback(
            lambda _t: ev.fail(exc))
        return ev

    def link_factor(self, src_id: int, dst_id: int) -> float:
        factor = 1.0
        now = self.env.now
        for rule in self.plan.slow_nodes:
            if rule.matches(now, src_id, dst_id):
                factor *= rule.factor
        return factor

    def message_fate(self, src_id: int, dst_id: int) -> int:
        """0 = drop, 1 = deliver once, 2 = deliver twice (duplicate)."""
        if src_id in self.down or dst_id in self.down:
            self.messages_dropped += 1
            return 0
        now = self.env.now
        if self.plan.partitions and self.partition_cut(src_id, dst_id):
            # arrived at the cut *after* launch: silently lost in-network
            self.messages_dropped += 1
            return 0
        fate = 1
        for rule in self.plan.message_faults:
            if not rule.matches(now):
                continue
            if float(self.rng.random()) < rule.rate:
                if rule.kind == "drop":
                    self.messages_dropped += 1
                    return 0
                fate = 2
        if fate == 2:
            self.messages_duplicated += 1
        return fate

    def verb_fault(self, src_id: int, dst_id: int) -> None:
        """Raise RdmaError if a verb-failure window applies."""
        now = self.env.now
        for rule in self.plan.verb_faults:
            if (rule.matches(now, src_id, dst_id)
                    and float(self.rng.random()) < rule.rate):
                self.verbs_failed += 1
                raise RdmaError(
                    f"injected verb fault on {src_id}->{dst_id}")

    def credit_stall_until(self, node_id: int) -> Optional[float]:
        """End of the active credit-stall window covering ``node_id``
        (the latest, when windows overlap), or ``None``."""
        now = self.env.now
        until = None
        for rule in self.plan.credit_stalls:
            if rule.matches(now, node_id):
                if until is None or rule.until > until:
                    until = rule.until
        return until

    # ------------------------------------------------------------------
    # completion fencing (zombie-completion prevention)
    # ------------------------------------------------------------------
    def fenced(self, since: int, src_id: int,
               dst_id: int) -> Optional[NodeDownError]:
        """The error a completion must fail with, or ``None``.

        ``since`` is :attr:`crashes` as read when the transfer was
        injected.  A crash bumps the node's incarnation; if either
        endpoint crashed after ``since``, the completion belongs to a
        dead communication context and must not be delivered — even if
        the node has since restarted.
        """
        stamp = self._crash_stamp
        if stamp.get(src_id, 0) > since or stamp.get(dst_id, 0) > since:
            self.completions_fenced += 1
            return NodeDownError(
                f"stale completion fenced: endpoint of "
                f"{src_id}->{dst_id} crashed mid-transfer")
        return None
