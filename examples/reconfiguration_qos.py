#!/usr/bin/env python
"""Dynamic reconfiguration with QoS: three services share a node pool;
a flash crowd hits the high-priority service and the manager migrates
capacity — stealing from the low-priority donor first — at a speed set
by the monitoring granularity (the paper's §6 scenario).

Run:  python examples/reconfiguration_qos.py
"""

from repro.bench import BenchTable
from repro.net import Cluster
from repro.monitor import KernelStats, RdmaSyncMonitor
from repro.reconfig import ReconfigManager, Service, burst_recovery_time


def flash_crowd_demo():
    names = ["front"] + [f"srv{i}" for i in range(6)]
    cluster = Cluster(names=names, seed=21)
    env = cluster.env
    pool = cluster.nodes[1:]
    premium = Service("premium", pool[:2], priority=3)
    standard = Service("standard", pool[2:4], priority=2)
    batch = Service("batch", pool[4:], priority=1)
    stats = {n.id: KernelStats(n) for n in pool}
    monitor = RdmaSyncMonitor(cluster.nodes[0], stats)
    manager = ReconfigManager(cluster.nodes[0],
                              [premium, standard, batch],
                              monitor=monitor, check_every_us=1_000.0)
    manager.start()

    def background(env, svc):
        while True:
            svc.submit(300.0)
            yield env.timeout(2_500.0)

    for svc in (premium, standard, batch):
        env.process(background(env, svc))

    def crowd(env):
        yield env.timeout(30_000.0)
        print(f"t={env.now / 1000:.1f}ms  flash crowd hits 'premium'")
        for _ in range(400):
            premium.submit(600.0)

    env.process(crowd(env))
    env.run(until=200_000.0)

    print(f"migrations ({len(manager.migrations)}):")
    for t, node_id, frm, to in manager.migrations:
        print(f"  t={t / 1000:7.1f}ms  node {node_id}: {frm} -> {to}")
    print(f"final pool: premium={len(premium.nodes)} "
          f"standard={len(standard.nodes)} batch={len(batch.nodes)}")
    donors = [frm for _t, _n, frm, _to in manager.migrations]
    if donors:
        print(f"first donor: {donors[0]!r} (lowest priority raided first)")
    print()


def granularity_comparison():
    table = BenchTable(
        "Burst responsiveness by monitoring granularity",
        ["configuration", "detection_us", "recovery_us"],
        paper_ref="paper SS6: order-of-magnitude gain")
    for name, scheme, period in (
            ("coarse socket, 25ms", "socket-async", 25_000.0),
            ("fine RDMA, 1ms", "rdma-sync", 1_000.0)):
        r = burst_recovery_time(monitor_scheme=scheme,
                                check_every_us=period)
        detect = r["detection_us"]
        table.add(name, "missed" if detect is None else round(detect),
                  round(r["recovery_us"]))
    table.show()


if __name__ == "__main__":
    flash_crowd_demo()
    granularity_comparison()
