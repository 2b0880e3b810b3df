"""The analytic FIFO egress link against the generator transfer process.

Open-loop differential tests (DESIGN.md §9): a seeded schedule of
injections is replayed under the fast kernel, where a busy link books
the next slot analytically, and under ``REPRO_SLOW_KERNEL=1``, where
every transfer holds the link as a generator — and every completion
instant must be the same float.  The schedules are built so that no
same-instant *tie* can interfere (each instant belongs to one sending
node and one driver, which posts in list order under both kernels), so
any difference here is the booking arithmetic, not agenda order.
"""

import random

import pytest

from repro.net import Cluster
from repro.sim import KERNELS, pin_kernel
from repro.topo import TopoCluster

SIZES = (0, 8, 64, 4096, 32768, 900_000)
BURST = 20  # one instant, one node: >= 16 must queue on its link


def _schedule(seed, n_nodes, kinds, n_bursts=70):
    """``[(gap, src, [(kind, dst, nbytes), ...]), ...]``: each burst is
    one node injecting several times at one instant.  Gaps are short
    against a 900 kB serialization (1 ms), so links are busy when the
    next burst lands; one burst is ``BURST`` deep behind a 900 kB head.
    """
    rng = random.Random(seed)
    bursts = []
    deep = rng.randrange(n_bursts // 2)
    for b in range(n_bursts):
        src = rng.randrange(n_nodes)
        ops = []
        for k in range(BURST if b == deep else rng.randint(1, 5)):
            dst = rng.choice([d for d in range(n_nodes) if d != src])
            kind, nbytes = rng.choice(kinds), rng.choice(SIZES)
            if b == deep and k == 0:
                # a plain transfer reaches the link first (verbs spend
                # post_us on the way), so the rest of the burst queues
                kind, nbytes = "transfer", SIZES[-1]
            ops.append((kind, dst, nbytes))
        bursts.append((rng.choice([0.25, 3.0, 40.0, rng.uniform(0.0, 900.0)]),
                       src, ops))
    return bursts, deep


def _replay(cluster, bursts, deep):
    """Drive ``bursts`` open-loop; returns ``({op index: completion
    instant}, final now, egress queue length just after the deep
    burst)``."""
    env, fabric = cluster.env, cluster.fabric
    keys = [node.memory.register(64, name="w").remote_key()
            for node in cluster.nodes]
    done_at = {}
    peak = []

    def inject(i, kind, src, dst, nbytes):
        nic = cluster.nodes[src].nic
        wire = max(nbytes, 8)
        if kind == "transfer":
            ev = fabric.transfer(src, dst, nbytes)
        elif kind == "multicast":
            others = [d for d in range(len(cluster.nodes))
                      if d not in (src, dst)]
            ev = fabric.multicast(src, [dst] + others[:2], nbytes)
        elif kind == "read":
            ev = nic.read_key(keys[dst], 0, 8, wire_bytes=wire)
        elif kind == "write":
            ev = nic.write_key(keys[dst], b"y" * 8, 8, wire_bytes=wire)
        else:
            ev = nic.cas_key(keys[dst], 16, 0, i)
        ev.add_callback(lambda _e: done_at.__setitem__(i, env.now))

    def driver(env):
        i = 0
        for b, (gap, src, ops) in enumerate(bursts):
            yield env.timeout(gap)
            for kind, dst, nbytes in ops:
                inject(i, kind, src, dst, nbytes)
                i += 1
            if b == deep:
                # past post_us + nic_tx every member of the burst has
                # reached the link, and the 900 kB head still holds it
                yield env.timeout(5.0)
                peak.append(fabric._egress[src].queue_len)

    env.process(driver(env))
    env.run()
    return done_at, env.now, peak[0]


def _both_kernels(make_cluster, bursts, deep):
    """``[fast run, slow run]`` (the order of ``KERNELS``)."""
    runs = []
    for kernel in KERNELS:
        with pin_kernel(kernel):
            cluster = make_cluster()
        runs.append(_replay(cluster, bursts, deep))
    return runs


@pytest.mark.parametrize("seed", range(20))
def test_flat_fabric_arrivals_equal_generator(seed):
    """transfer / multicast / read / write / CAS over 8 nodes."""
    bursts, deep = _schedule(
        seed, 8, ("transfer", "multicast", "read", "write", "cas"))
    n_ops = sum(len(ops) for _g, _s, ops in bursts)
    assert n_ops >= 200
    (fast, fast_now, fast_q), (slow, slow_now, slow_q) = _both_kernels(
        lambda: Cluster(n_nodes=8, seed=seed), bursts, deep)
    assert len(fast) == len(slow) == n_ops
    assert fast == slow              # every completion instant, as floats
    assert fast_now == slow_now
    # the generator really queued; the analytic link never does
    assert slow_q >= 16 and fast_q == 0


@pytest.mark.parametrize("seed", range(20))
def test_two_rack_arrivals_equal_generator(seed):
    """Intra-rack transfers (booked) and cross-rack ones (generators on
    the same egress ``Resource``, then the ToR uplink) interleave from
    every node: a generator that queues behind a chain of bookings, and
    bookings refused while it waits or holds, must land where the
    all-generator run lands them."""
    bursts, deep = _schedule(seed, 8, ("transfer", "read", "write", "cas"))
    xrack = sum((src < 4) != (dst < 4)
                for _g, src, ops in bursts for _k, dst, _n in ops)
    assert xrack >= 50
    (fast, fast_now, _), (slow, slow_now, slow_q) = _both_kernels(
        lambda: TopoCluster(racks=2, hosts_per_rack=4, oversub=2.0,
                            seed=seed),
        bursts, deep)
    assert fast == slow and len(fast) >= 200
    assert fast_now == slow_now
    assert slow_q >= 16


def test_posted_burst_costs_four_agenda_entries_a_verb():
    """64 verbs posted at one instant from one NIC: each is *posted*,
    *served* and *completed* — three entries — however deep the queue
    on its egress link.  (Before the link became an analytic FIFO, 63 of
    them fell back to a generator transfer at ~15 entries each.)"""
    with pin_kernel("fast"):
        cluster = Cluster(n_nodes=2, seed=0)
    env = cluster.env
    key = cluster.nodes[1].memory.register(64, name="w").remote_key()
    nic = cluster.nodes[0].nic
    seq = env._seq
    done = [nic.read_key(key, 0, 8) if i % 2 else nic.cas_key(key, 8, 0, i)
            for i in range(64)]
    env.run()
    assert all(ev.triggered for ev in done)
    assert (env._seq - seq) / 64 <= 4.0
