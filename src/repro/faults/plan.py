"""Declarative fault schedules.

A :class:`FaultPlan` is pure data: what goes wrong, where, and when.
Executing it is the :class:`repro.faults.injector.FaultInjector`'s job,
so plans can be built once and replayed against many seeds/clusters.
All times are simulation microseconds; ``src``/``dst``/``node`` of
``None`` means "any node".

Fault classes
-------------

* :class:`Crash` — fail-stop crash (optionally followed by a restart).
* :class:`MessageFault` / :class:`VerbFault` — probabilistic
  drop/duplicate/fail windows on the wire.
* :class:`Partition` — a network partition: traffic between nodes in
  *different* groups is cut for the window.  ``oneway=True`` models an
  asymmetric cut (only ``groups[0] -> groups[1]`` traffic fails), the
  gray-failure shape where acks flow one way but requests do not.
* :class:`SlowNode` — a gray failure: every transfer touching the node
  is slowed by ``factor`` (degraded NIC / overloaded processing).
* :class:`CreditStall` — a gray failure: the node stays up but stops
  returning flow-control credits / ring space until the window closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["FaultPlan", "Crash", "MessageFault", "VerbFault",
           "Partition", "SlowNode", "CreditStall"]


@dataclass(frozen=True)
class Crash:
    """Fail-stop crash of one node, optionally followed by a restart.

    Registered memory survives the crash (battery-backed NVRAM model);
    what a crash removes is the node's ability to communicate: every
    transfer to or from it fails until ``restart_at``.
    """

    node: int
    at: float
    restart_at: Optional[float] = None


@dataclass(frozen=True)
class MessageFault:
    """Drop or duplicate two-sided messages within a time window."""

    kind: str                 # "drop" | "duplicate"
    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    until: float = math.inf

    def matches(self, now: float, src: int, dst: int) -> bool:
        return (self.start <= now < self.until
                and (self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class VerbFault:
    """Fail one-sided verbs (read/write/CAS/FAA) within a time window."""

    rate: float
    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    until: float = math.inf

    def matches(self, now: float, src: int, dst: int) -> bool:
        return (self.start <= now < self.until
                and (self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class Partition:
    """Cut traffic between node groups for ``[start, until)``.

    ``groups`` are disjoint node-id tuples.  A node absent from every
    group is unaffected (it reaches both sides).  Symmetric partitions
    cut traffic between any two *different* groups in both directions;
    a one-way partition cuts only ``groups[0] -> groups[1]`` while the
    reverse direction keeps flowing — the asymmetric-reachability gray
    failure.
    """

    groups: Tuple[Tuple[int, ...], ...]
    start: float
    until: float
    oneway: bool = False

    def _group_of(self, node_id: int) -> Optional[int]:
        for i, group in enumerate(self.groups):
            if node_id in group:
                return i
        return None

    def cuts(self, now: float, src: int, dst: int) -> bool:
        """True when a ``src -> dst`` transfer crosses the cut now."""
        if not self.start <= now < self.until:
            return False
        if self.oneway:
            return src in self.groups[0] and dst in self.groups[1]
        gs, gd = self._group_of(src), self._group_of(dst)
        return gs is not None and gd is not None and gs != gd


@dataclass(frozen=True)
class SlowNode:
    """Gray failure: transfers touching ``node`` run ``factor`` slower."""

    node: int
    factor: float
    start: float
    until: float

    def matches(self, now: float, src: int, dst: int) -> bool:
        return (self.start <= now < self.until
                and (src == self.node or dst == self.node))


@dataclass(frozen=True)
class CreditStall:
    """Gray failure: ``node`` stops returning flow-control credits."""

    node: int
    start: float
    until: float

    def matches(self, now: float, node_id: int) -> bool:
        return node_id == self.node and self.start <= now < self.until


def _check_rate(rate: float, kind: str) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(
            f"{kind}: fault rate must be in [0, 1], got {rate}")
    return float(rate)


def _check_window(start: float, until: float, kind: str) -> None:
    # the chained compare is false for a NaN on either side and for an
    # infinite start; ``until=inf`` (never closes) stays legal
    if not 0 <= start < until:
        raise ConfigError(
            f"{kind}: bad fault window [{start}, {until}) — start must "
            f"be finite and >= 0 and until must exceed start")


def _check_factor(factor: float, kind: str) -> float:
    # a non-finite factor would park a booked link at inf/nan for the
    # rest of the run (the generator dies in Environment.timeout)
    if not 1.0 <= factor < math.inf:
        raise ConfigError(
            f"{kind}: factor must be finite and >= 1.0, got {factor}")
    return float(factor)


class FaultPlan:
    """Builder for a fault schedule (methods chain)."""

    def __init__(self):
        self.crashes: List[Crash] = []
        self.message_faults: List[MessageFault] = []
        # no builder: no product plan fails verbs, so a plan's owner
        # appends these rules directly
        self.verb_faults: List[VerbFault] = []
        self.partitions: List[Partition] = []
        self.slow_nodes: List[SlowNode] = []
        self.credit_stalls: List[CreditStall] = []

    # -- builders -------------------------------------------------------
    def crash(self, node: int, at: float,
              restart_at: Optional[float] = None) -> "FaultPlan":
        if not 0 <= at < math.inf:
            raise ConfigError(
                f"crash: time must be finite and non-negative, got {at}")
        if restart_at is not None and not at < restart_at < math.inf:
            raise ConfigError(
                f"crash: restart_at ({restart_at}) must be finite and "
                f"come after the crash ({at})")
        self.crashes.append(Crash(node=node, at=at, restart_at=restart_at))
        return self

    def drop_messages(self, rate: float, src: Optional[int] = None,
                      dst: Optional[int] = None, start: float = 0.0,
                      until: float = math.inf) -> "FaultPlan":
        _check_window(start, until, "drop_messages")
        self.message_faults.append(MessageFault(
            kind="drop", rate=_check_rate(rate, "drop_messages"),
            src=src, dst=dst, start=start, until=until))
        return self

    def duplicate_messages(self, rate: float, src: Optional[int] = None,
                           dst: Optional[int] = None, start: float = 0.0,
                           until: float = math.inf) -> "FaultPlan":
        _check_window(start, until, "duplicate_messages")
        self.message_faults.append(MessageFault(
            kind="duplicate", rate=_check_rate(rate, "duplicate_messages"),
            src=src, dst=dst, start=start, until=until))
        return self

    def partition(self, groups, start: float = 0.0,
                  until: float = math.inf,
                  oneway: bool = False) -> "FaultPlan":
        """Cut traffic between the ``groups`` for ``[start, until)``."""
        _check_window(start, until, "partition")
        norm = tuple(tuple(int(n) for n in group) for group in groups)
        if len(norm) < 2:
            raise ConfigError(
                f"partition: need at least two groups, got {len(norm)}")
        if oneway and len(norm) != 2:
            raise ConfigError(
                f"partition: a one-way partition needs exactly two "
                f"groups (src, dst), got {len(norm)}")
        seen = set()
        for group in norm:
            if not group:
                raise ConfigError("partition: groups must be non-empty")
            for node in group:
                if node in seen:
                    raise ConfigError(
                        f"partition: node {node} appears in more than "
                        f"one group")
                seen.add(node)
        self.partitions.append(Partition(
            groups=norm, start=start, until=until, oneway=oneway))
        return self

    def slow_node(self, node: int, factor: float, start: float = 0.0,
                  until: float = math.inf) -> "FaultPlan":
        """Gray failure: slow every transfer touching ``node``."""
        _check_window(start, until, "slow_node")
        self.slow_nodes.append(SlowNode(
            node=int(node), factor=_check_factor(factor, "slow_node"),
            start=start, until=until))
        return self

    def stall_credits(self, node: int, start: float = 0.0,
                      until: float = math.inf) -> "FaultPlan":
        """Gray failure: wedge ``node``'s flow-control credit returns."""
        _check_window(start, until, "stall_credits")
        self.credit_stalls.append(CreditStall(
            node=int(node), start=start, until=until))
        return self

