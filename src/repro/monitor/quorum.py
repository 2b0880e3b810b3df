"""Quorum fencing for failure detectors (split-brain prevention).

A failure detector inside a minority partition will, correctly from its
own vantage point, declare the unreachable majority dead — and a
reconfiguration manager that believes it would evict the majority's
lock homes and DDSS owners, forking the cluster's state.  The classic
fix: reconfiguration decisions are only valid while the decider can
still talk to a **quorum** (majority) of the membership.

:class:`QuorumGate` wraps a
:class:`~repro.monitor.phi.PhiAccrualDetector` and re-exports its
``subscribe``/``is_dead``/``unreachable_ids`` interface with two changes:

* **Hold window** — an inner "dead" verdict is sat on for one probe
  period (:data:`~repro.monitor.phi.PERIOD_US`) before being
  forwarded, so a burst of deaths (the partition closing) is counted
  *together*: by the time the first verdict's hold expires,
  the detector has seen the rest of the far side disappear and quorum
  arithmetic reflects the whole cut, not its first casualty.
* **Quorum check** — at hold expiry the verdict is forwarded only if
  the local side still holds a strict majority of the membership: the
  detector's targets plus the watcher itself.  Otherwise the verdict is
  *fenced*: logged, trace-marked, and parked until quorum returns (e.g.
  the partition heals), at which point still-dead nodes are
  re-forwarded.

Every forwarded transition bumps ``config_epoch``; consumers stamp the
epoch into their own fencing tokens so decisions made under a stale
view are rejectable after the fact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.errors import ConfigError
from repro.monitor.phi import PERIOD_US, PhiAccrualDetector

__all__ = ["QuorumGate"]


class QuorumGate:
    """Majority-fenced view over an inner failure detector.

    The hold is one probe period; ``hold_us`` is accepted only at that
    value, for callers that spell it out (``benchmarks/perf`` does).
    """

    def __init__(self, detector: PhiAccrualDetector, *,
                 hold_us: float = PERIOD_US):
        if hold_us != PERIOD_US:
            raise ConfigError(
                f"hold_us is fixed at {PERIOD_US}, got {hold_us!r}")
        self.inner = detector
        self.env = detector.env
        #: the watched nodes plus the watcher itself
        self.n_members = len(detector.targets) + 1
        self.quorum = self.n_members // 2 + 1
        self._dead: Set[int] = set()       # forwarded (quorate) verdicts
        self._pending: Set[int] = set()    # fenced, awaiting quorum
        self._gen: Dict[int, int] = {}     # cancels stale hold timers
        self._listeners: List[Callable[[int, str], None]] = []
        #: (time, node_id, "dead"|"alive") — forwarded transitions only
        self.transitions: List[tuple] = []
        #: (time, node_id) — verdicts refused for lack of quorum
        self.fenced: List[tuple] = []
        #: bumped on every forwarded transition; consumers stamp it
        self.config_epoch = 0
        detector.subscribe(self._on_inner)

    # -- detector interface (what consumers see) -----------------------
    def is_dead(self, node_id: int) -> bool:
        return node_id in self._dead

    @property
    def unreachable_ids(self) -> Set[int]:
        """The *raw* reachability view, ungated: verdicts the gate is
        still holding or fencing name nodes that are unreachable all
        the same, so placement decisions (where to rehome) must avoid
        them even while eviction decisions stay fenced."""
        return self.inner.unreachable_ids | self._dead | self._pending

    @property
    def has_quorum(self) -> bool:
        """Can this side still justify reconfiguration decisions?

        Counts the *inner* detector's raw unreachable view — suspects
        included, because an adaptive detector confirms a partition's
        deaths staggered over seconds, and a node we cannot reach is
        not a supporter of our side whether or not its phi has crossed
        the confirmation threshold yet — plus the watcher itself.
        """
        alive = self.n_members - len(self.inner.unreachable_ids)
        return alive >= self.quorum

    def subscribe(self, fn: Callable[[int, str], None]) -> None:
        self._listeners.append(fn)

    # -- inner transitions ---------------------------------------------
    def _on_inner(self, node_id: int, transition: str) -> None:
        gen = self._gen[node_id] = self._gen.get(node_id, 0) + 1
        if transition == "dead":
            self.env.process(self._hold_proc(node_id, gen),
                             name=f"quorum-hold@{node_id}")
        else:
            self._pending.discard(node_id)
            if node_id in self._dead:
                self._forward(node_id, "alive")
            # a returning node may restore quorum: release the parked
            # verdicts that were fenced while we were in the minority —
            # but only after a hold, so the rest of a healing
            # partition's probe hits can land first (otherwise the
            # first returnee would flush its still-"dead" peers)
            if self._pending:
                self.env.process(self._flush_proc(),
                                 name="quorum-flush")

    def _flush_proc(self):
        yield self.env.timeout(PERIOD_US)
        self._flush_pending()

    def _hold_proc(self, node_id: int, gen: int):
        yield self.env.timeout(PERIOD_US)
        if self._gen.get(node_id) != gen:
            return  # node came back (or re-died) while we held
        if self.inner.is_dead(node_id) and node_id not in self._dead:
            if self.has_quorum:
                self._forward(node_id, "dead")
            else:
                self._pending.add(node_id)
                self.fenced.append((self.env.now, node_id))
                self._obs("detect.fenced", node_id,
                          alive=self.n_members - len(self.inner.dead_ids),
                          quorum=self.quorum)
                # quorum can return without any inner "alive" event
                # (e.g. a mere *suspicion* elsewhere clears), so a
                # parked verdict re-checks on its own clock too
                self.env.process(self._retry_proc(node_id, gen),
                                 name=f"quorum-retry@{node_id}")

    def _retry_proc(self, node_id: int, gen: int):
        while (self._gen.get(node_id) == gen
               and node_id in self._pending):
            yield self.env.timeout(PERIOD_US)
            if self._gen.get(node_id) != gen \
                    or node_id not in self._pending:
                return
            if not self.inner.is_dead(node_id):
                self._pending.discard(node_id)
                return
            if self.has_quorum:
                self._pending.discard(node_id)
                self._forward(node_id, "dead")
                return

    def _flush_pending(self) -> None:
        if not self.has_quorum:
            return
        for node_id in sorted(self._pending):
            if self.inner.is_dead(node_id) and node_id not in self._dead:
                self._forward(node_id, "dead")
        self._pending.clear()

    def _forward(self, node_id: int, transition: str) -> None:
        if transition == "dead":
            self._dead.add(node_id)
        else:
            self._dead.discard(node_id)
        self.config_epoch += 1
        self.transitions.append((self.env.now, node_id, transition))
        self._obs(f"detect.{transition}", node_id, ep=self.config_epoch,
                  gated=True)
        for fn in self._listeners:
            fn(node_id, transition)

    def _obs(self, etype: str, node_id: int, **fields) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.inner.front.id,
                           watched=node_id, **fields)
