"""Burst-recovery experiment (paper §6: fine-grained reconfiguration).

Two services share a node pool.  Service A receives a sudden burst;
the reconfiguration manager must notice and migrate capacity.  We
measure the time from the burst until A's backlog drains back under a
threshold — with coarse-grained (socket-based, long-period) monitoring
versus fine-grained (RDMA, millisecond) monitoring the paper reports an
order-of-magnitude difference in responsiveness.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.net.cluster import Cluster
from repro.net.params import NetworkParams

from repro.monitor.kernel import KernelStats
from repro.monitor.schemes import MONITOR_SCHEMES
from repro.reconfig.manager import ReconfigManager, Service

__all__ = ["burst_recovery_time"]

#: the pool the two services share, and the cluster's seed
N_NODES = 6
SEED = 0
#: the burst on service A: requests, and the CPU work of each (µs)
BURST_REQUESTS = 600
REQ_US = 400.0


def burst_recovery_time(monitor_scheme: str = "rdma-sync",
                        check_every_us: float = 1_000.0
                        ) -> Dict[str, object]:
    """Run one burst; returns recovery time and migration trace."""
    if monitor_scheme not in MONITOR_SCHEMES:
        raise ConfigError(f"unknown scheme {monitor_scheme!r}")
    names = ["front"] + [f"srv{i}" for i in range(N_NODES)]
    cluster = Cluster(names=names, params=NetworkParams.infiniband(),
                      seed=SEED)
    env = cluster.env
    front = cluster.nodes[0]
    pool = cluster.nodes[1:]
    half = N_NODES // 2
    svc_a = Service("A", pool[:half], priority=2)
    svc_b = Service("B", pool[half:], priority=1)
    stats = {n.id: KernelStats(n) for n in pool}
    monitor_cls = MONITOR_SCHEMES[monitor_scheme]
    # async schemes push/poll at the manager's check granularity: that is
    # what "coarse-grained" vs "fine-grained" monitoring means here
    kw = {"period_us": check_every_us} if monitor_cls.PERIODIC else {}
    monitor = monitor_cls(front, stats, **kw)
    manager = ReconfigManager(front, [svc_a, svc_b], monitor=monitor,
                              check_every_us=check_every_us)
    manager.start()

    result: Dict[str, object] = {}

    def steady_load(env, svc, period_us):
        while True:
            svc.submit(200.0)
            yield env.timeout(period_us)

    def burst(env):
        yield env.timeout(50_000.0)
        t_burst = env.now
        for _ in range(BURST_REQUESTS):
            svc_a.submit(REQ_US)
        # wait until the backlog drains
        while svc_a.backlog > 5:
            yield env.timeout(200.0)
        result["recovery_us"] = env.now - t_burst
        result["migrations"] = list(manager.migrations)
        # responsiveness: how long until extra capacity actually arrived
        after = [t for t, *_rest in manager.migrations if t >= t_burst]
        result["detection_us"] = (min(after) - t_burst) if after else None
        result["nodes_a"] = len(svc_a.nodes)

    env.process(steady_load(env, svc_a, 2_000.0))
    env.process(steady_load(env, svc_b, 2_000.0))
    done = env.process(burst(env))
    env.run_until_event(done, limit=5e7)
    return result
