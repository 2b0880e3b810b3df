"""Phi-accrual failure detection (Hayashibara et al., SRDS'04).

A front-end node probes a tiny *liveness word* on every watched node
with a one-sided RDMA read: zero CPU on the watched node (the RDMA
monitoring schemes' argument), and exactly the operation a crashed node
can no longer answer.  Instead of counting missed probes the detector
outputs a continuous *suspicion level*

    phi(node) = -log10( P(heartbeat still arrives | history) )

from a normal fit of the last :data:`WINDOW` inter-arrival gaps of
answered probes (std floored at a quarter period, so a perfectly regular
simulated network does not collapse the fit to a spike; Cassandra does
the same).  A node whose probes land like clockwork is suspected
quickly; one behind a slow link (gray failure) earns a wide tolerance
band instead of flapping.  At :data:`SUSPECT_PHI` a node is suspect; a
suspect that answers before :data:`DEAD_PHI` is cleared quietly (a flap
absorbed), past it the node is dead, and one answered probe makes it
alive again.  Listeners get ``(node_id, "dead"|"alive")`` transitions.

Unlike :class:`repro.faults.FaultInjector` ground truth, the detector
*discovers* failures, so detection lags a crash by up to
:meth:`PhiAccrualDetector.detect_bound_us`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Sequence, Set

from repro.errors import ConfigError, FaultError, RdmaError
from repro.net.node import Node
from repro.sim import AnyOf

__all__ = ["PhiAccrualDetector", "PERIOD_US", "TIMEOUT_US"]

#: probe period (µs)
PERIOD_US = 500.0
#: a probe unanswered after this long (µs) counts as silence
TIMEOUT_US = 120.0
#: floor on the fitted std (a quarter period)
_STD_FLOOR = PERIOD_US / 4.0
#: suspicion level that marks a node suspect
SUSPECT_PHI = 1.0
#: suspicion level that confirms a node dead
DEAD_PHI = 8.0
#: inter-arrival gaps remembered per watched node
WINDOW = 64
#: floor on the phi argument's tail probability (keeps phi finite)
_MIN_P = 1e-300


class PhiAccrualDetector:
    """Probe ``targets`` from ``front`` every :data:`PERIOD_US`; a probe
    unanswered after :data:`TIMEOUT_US` counts as silence.

    ``period_us``/``timeout_us`` are accepted only at those values, for
    callers that spell them out (``benchmarks/perf`` does); any other
    value is refused rather than silently ignored.
    """

    def __init__(self, front: Node, targets: Sequence[Node], *,
                 period_us: float = PERIOD_US,
                 timeout_us: float = TIMEOUT_US):
        for name, value, fixed in (("period_us", period_us, PERIOD_US),
                                   ("timeout_us", timeout_us, TIMEOUT_US)):
            if value != fixed:
                raise ConfigError(f"{name} is fixed at {fixed}, "
                                  f"got {value!r}")
        self.front = front
        self.env = front.env
        self.targets = list(targets)
        self._suspect: Set[int] = set()
        self._dead: Set[int] = set()
        self._listeners: List[Callable[[int, str], None]] = []
        #: (time, node_id, "dead"|"alive") transition log
        self.transitions: List[tuple] = []
        self.probes = 0
        self.flaps_absorbed = 0  # suspects cleared before confirmation
        self._last: Dict[int, float] = {}
        self._intervals: Dict[int, Deque[float]] = {}
        for node in self.targets:
            if node.id == front.id:
                raise ConfigError("front-end cannot watch itself")
            region = node.memory.register(8, name=f"hb-word@{node.name}")
            self._last[node.id] = self.env.now
            self._intervals[node.id] = deque([PERIOD_US], maxlen=WINDOW)
            self.env.process(self._probe_loop(node.id, region.remote_key()),
                             name=f"heartbeat@{node.name}")

    # -- oracle interface ----------------------------------------------
    def is_dead(self, node_id: int) -> bool:
        return node_id in self._dead

    @property
    def dead_ids(self) -> Set[int]:
        return set(self._dead)

    @property
    def unreachable_ids(self) -> Set[int]:
        """Dead or suspect nodes — unfit as *targets* of a placement
        decision (e.g. a failover rehome) even before confirmation."""
        return self._dead | self._suspect

    def subscribe(self, fn: Callable[[int, str], None]) -> None:
        """Register ``fn(node_id, transition)`` for "dead"/"alive"."""
        self._listeners.append(fn)

    # -- suspicion level -----------------------------------------------
    def phi(self, node_id: int) -> float:
        """Current suspicion level for ``node_id`` (0 = just heard)."""
        silence = self.env.now - self._last[node_id]
        if silence <= 0:
            return 0.0
        win = self._intervals[node_id]
        mean = sum(win) / len(win)
        var = sum((x - mean) ** 2 for x in win) / len(win)
        std = max(math.sqrt(var), _STD_FLOOR)
        # one-sided normal tail: P(gap >= silence)
        p = 0.5 * math.erfc((silence - mean) / (std * math.sqrt(2.0)))
        return -math.log10(max(p, _MIN_P))

    def detect_bound_us(self) -> float:
        """Worst-case crash → "dead" latency with a calm history.

        Solves the normal tail for the silence Δ* at which phi reaches
        :data:`DEAD_PHI` assuming mean ≈ period and std at the floor,
        then adds one period for the probe in flight at the crash and
        rounds Δ* up to probe granularity (phi is only evaluated at
        probe outcomes).
        """
        target = 10.0 ** (-DEAD_PHI)
        lo, hi = 0.0, 64.0
        while hi - lo > 1e-9:  # bisect z: 0.5*erfc(z/sqrt(2)) = target
            mid = (lo + hi) / 2.0
            if 0.5 * math.erfc(mid / math.sqrt(2.0)) > target:
                lo = mid
            else:
                hi = mid
        silence = PERIOD_US + _STD_FLOOR * hi
        probes = math.ceil(silence / PERIOD_US)
        return PERIOD_US * (probes + 1) + TIMEOUT_US

    # -- probing -------------------------------------------------------
    def _probe_loop(self, node_id: int, key):
        while True:
            yield self.env.timeout(PERIOD_US)
            self.probes += 1
            probe = self.front.nic.read_key(key, length=8)
            try:
                yield AnyOf(self.env, [probe,
                                       self.env.timeout(TIMEOUT_US)])
            except (FaultError, RdmaError):
                self._evaluate(node_id)
                continue
            if probe.triggered:
                self._hit(node_id)
            else:
                self._evaluate(node_id)  # overdue: silence so far

    def _hit(self, node_id: int) -> None:
        now = self.env.now
        gap = now - self._last[node_id]
        self._last[node_id] = now
        if gap > 0:
            self._intervals[node_id].append(gap)
        if node_id in self._suspect:
            # flap absorbed: the suspect answered before confirmation,
            # so listeners never hear about it
            self._suspect.discard(node_id)
            self.flaps_absorbed += 1
            self._obs_detect("detect.clear", node_id,
                             phi=round(self.phi(node_id), 3))
        if node_id in self._dead:
            self._dead.discard(node_id)
            self._obs_detect("detect.alive", node_id)
            self._notify(node_id, "alive")

    def _evaluate(self, node_id: int) -> None:
        if node_id in self._dead:
            return
        level = self.phi(node_id)
        if level >= DEAD_PHI:
            self._suspect.discard(node_id)
            self._dead.add(node_id)
            self._obs_detect("detect.dead", node_id, phi=round(level, 3))
            self._notify(node_id, "dead")
        elif level >= SUSPECT_PHI and node_id not in self._suspect:
            self._suspect.add(node_id)
            self._obs_detect("detect.suspect", node_id,
                             phi=round(level, 3))

    def _notify(self, node_id: int, transition: str) -> None:
        self.transitions.append((self.env.now, node_id, transition))
        for fn in self._listeners:
            fn(node_id, transition)

    def _obs_detect(self, etype: str, node_id: int, **fields) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.front.id, watched=node_id,
                           **fields)
