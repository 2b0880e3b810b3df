"""Least-loaded dispatch driven by a monitoring scheme (Fig. 8b).

For every incoming request the balancer consults the monitor: *sync*
schemes refresh all back-end views first (paying the scheme's full query
cost on the request path — microseconds for RDMA, far more for sockets
on loaded nodes), *async* schemes answer from their push/poll cache
immediately.  The least-loaded back-end by the scheme's ``load_index``
wins.  Decision quality therefore tracks the accuracy experiments of
Fig. 8a, and throughput follows.
"""

from __future__ import annotations

from repro.errors import MonitorError
from repro.sim import Event

from repro.monitor.schemes import MonitorBase

__all__ = ["MonitoredLoadBalancer"]

#: how much one not-yet-completed dispatch counts against a node.
#: Request costs are highly divergent (RUBiS), so a connection count is
#: a weak signal compared to measured load; weight < 1.
OUTSTANDING_WEIGHT = 0.5


class MonitoredLoadBalancer:
    """Pick the back-end with the smallest reported load index."""

    def __init__(self, monitor: MonitorBase):
        self.monitor = monitor
        self.env = monitor.env
        # sync (not periodic) schemes refresh on the dispatch path by
        # definition; the fan-out is tuned to the probe cost: a daemonless
        # RDMA probe is ~10 µs of pure network so all back-ends are
        # refreshed in parallel, while a daemon's socket probe steals CPU
        # from the probed node, so only one node per dispatch is
        # refreshed (round robin)
        self.refresh_on_dispatch = not monitor.PERIODIC
        self._probe_all = not monitor.NEEDS_DAEMON
        self._rr = 0
        self.dispatches = 0
        # least-connections bookkeeping the front-end gets for free: it
        # knows what it has dispatched and not yet seen complete.  Every
        # real balancer does this; the monitor's value is seeing load the
        # front-end did NOT cause (other services, other front-ends).
        self.outstanding = {bid: 0 for bid in monitor.back_ids}
        if not monitor.back_ids:
            raise MonitorError("no back-ends to balance over")

    def pick(self) -> Event:
        """Choose a back-end node id; the event's value is the id."""
        self.dispatches += 1
        return self.env.process(self._pick(), name="lb-pick")

    def _index(self, bid: int) -> float:
        return (self.monitor.load_index(bid)
                + OUTSTANDING_WEIGHT * self.outstanding[bid])

    def _pick(self):
        monitor = self.monitor
        if self.refresh_on_dispatch:
            if self._probe_all:
                # refresh all views in parallel, proceed when all answered
                yield self.env.all_of([monitor.query(bid)
                                       for bid in monitor.back_ids])
            else:
                ids = monitor.back_ids
                bid = ids[self._rr % len(ids)]
                self._rr += 1
                yield monitor.query(bid)
        best = min(monitor.back_ids, key=self._index)
        self.outstanding[best] += 1
        return best

    def done(self, back_id: int) -> None:
        """Caller signals that a dispatched request completed."""
        if self.outstanding[back_id] <= 0:
            raise MonitorError("done() without a matching pick()")
        self.outstanding[back_id] -= 1
