"""The analytic FIFO stages against the generator transfer process.

Open-loop differential tests (DESIGN.md §9): a seeded schedule of
injections is replayed under the fast kernel, where every transfer books
its FIFO stages analytically and every one-sided verb is the callback
chain, and under ``REPRO_SLOW_KERNEL=1``, where every transfer holds the
links as a generator — and every completion instant must be the same
float.  The schedules are built so that no same-instant *tie* can
interfere (each instant belongs to one sending node and one driver,
which posts in list order under both kernels), so any difference here
is the booking arithmetic or a fault hook consulted at the wrong
instant, not agenda order.

The faulted schedules add what no packaged scenario reaches: crashes
landing on payloads in flight, degraded and slowed links, partitions,
failing verbs and lossy messages, on one rack, two and four.
"""

import random

import pytest

from repro.faults import FaultPlan
from repro.net import Cluster
from repro.sim import KERNELS, Process, pin_kernel
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


def _replay(cluster, bursts, deep, plan=None):
    """Drive ``bursts`` open-loop, under ``plan`` if there is one;
    returns everything the two kernels must agree on, and the deepest
    link queue seen after the deep burst."""
    env, fabric = cluster.env, cluster.fabric
    injector = cluster.install_faults(plan) if plan is not None else None
    keys = [node.memory.register(64, name="w").remote_key()
            for node in cluster.nodes]
    outcome = {}
    depth = [0]

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
            ev = nic.read_key(keys[dst], 8, 8, wire_bytes=wire)
        elif kind == "write":
            ev = nic.write_key(keys[dst], i.to_bytes(8, "big"), 8,
                               wire_bytes=wire)
        elif kind == "cas":
            ev = nic.cas_key(keys[dst], 16, 0, i)
        else:
            ev = nic.send_wait(dst, payload=i, size=nbytes, tag="m")

        def completed(ev):
            # (instant, ok, exception type | CAS old word | bytes read)
            value = ev._value
            if not ev.ok:
                value = type(value).__name__
            elif kind == "send_wait":
                value = value.mid
            outcome[i] = (env.now, ev.ok, value)

        ev.add_callback(completed)

    def driver(env):
        i = 0
        for b, (gap, src, ops) in enumerate(bursts):
            yield env.timeout(gap)
            for kind, dst, nbytes in ops:
                inject(i, kind, src, dst, nbytes)
                i += 1
            if b == deep:
                env.process(sampler(env))

    def sampler(env):
        # the head of the deep burst holds the egress link for 222 us
        # or more (and a 4:1 uplink for twice that); the rest of the
        # burst is behind it
        links = [*fabric._egress.values(),
                 *getattr(fabric, "_uplink", {}).values()]
        for _ in range(30):
            yield env.timeout(10.0)
            depth[0] = max(depth[0], *(link.queue_len for link in links))

    env.process(driver(env))
    env.run()
    result = {"outcome": outcome, "now": env.now,
              "pending": [node.nic.pending("m") for node in cluster.nodes],
              "moved": (fabric.transfers, fabric.bytes_moved)}
    if injector is not None:
        result["counters"] = (
            injector.messages_dropped, injector.messages_duplicated,
            injector.verbs_failed, injector.transfers_refused,
            injector.transfers_partitioned, injector.completions_fenced)
    return result, depth[0]


def _both_kernels(make_cluster, bursts, deep, plan=None):
    """``[fast run, slow run]`` (the order of ``KERNELS``)."""
    runs = []
    for kernel in KERNELS:
        with pin_kernel(kernel):
            cluster = make_cluster()
        runs.append(_replay(cluster, bursts, deep, plan))
    return runs


@pytest.mark.parametrize("seed", range(20))
def test_flat_fabric_arrivals_equal_generator(seed):
    """transfer / multicast / read / write / CAS over 8 nodes."""
    bursts, deep = _schedule(
        seed, 8, ("transfer", "multicast", "read", "write", "cas"))
    n_ops = sum(len(ops) for _g, _s, ops in bursts)
    assert n_ops >= 200
    (fast, fast_q), (slow, slow_q) = _both_kernels(
        lambda: Cluster(n_nodes=8, seed=seed), bursts, deep)
    assert len(slow["outcome"]) == n_ops
    assert fast == slow              # every completion instant, as floats
    # the generator really queued; the analytic link never does
    assert slow_q >= 16 and fast_q == 0


@pytest.mark.parametrize("seed", range(20))
def test_two_rack_arrivals_equal_generator(seed):
    """Intra-rack transfers (one booked stage) and cross-rack ones (the
    same egress link, then the ToR uplink booked at the egress release
    instant) interleave from every node and must land where the
    all-generator run lands them."""
    bursts, deep = _schedule(seed, 8, ("transfer", "read", "write", "cas"))
    xrack = sum((src < 4) != (dst < 4)
                for _g, src, ops in bursts for _k, dst, _n in ops)
    assert xrack >= 50
    (fast, fast_q), (slow, slow_q) = _both_kernels(
        lambda: TopoCluster(racks=2, hosts_per_rack=4, oversub=2.0,
                            seed=seed),
        bursts, deep)
    assert fast == slow and len(slow["outcome"]) >= 200
    assert slow_q >= 16 and fast_q == 0


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


# ---------------------------------------------------------------------------
# the same, under faults
# ---------------------------------------------------------------------------

FAULT_SIZES = (0, 8, 64, 4096, 32768, 200_000)
FAULT_KINDS = ("transfer", "multicast", "read", "write", "cas", "send_wait")

#: topology -> (cluster factory, the nodes a deep burst from ``src``
#: targets: every one behind the same ToR uplink, or any on one rack)
TOPOLOGIES = {
    "flat": (lambda seed: Cluster(n_nodes=8, seed=seed),
             lambda src: [d for d in range(8) if d != src]),
    "two-rack": (lambda seed: TopoCluster(racks=2, hosts_per_rack=4,
                                          oversub=2.0, seed=seed),
                 lambda src: [d for d in range(8) if d // 4 != src // 4]),
    "four-rack": (lambda seed: TopoCluster(racks=4, hosts_per_rack=2,
                                           oversub=4.0, seed=seed),
                  lambda src: [d for d in range(8) if d // 2 != src // 2]),
}


def _faulted_schedule(seed, far, n_nodes=8, n_bursts=60):
    """Bursts as in :func:`_schedule`, plus the fault plan they meet.

    Gaps are continuous draws, so no burst shares its instant with an
    arrival, a crash or a window edge.  One burst is ``BURST`` deep: a
    200 kB head, then small payloads that clear the egress link at twice
    (or more) the uplink's rate and pile up behind the head — on the
    egress link itself on one rack, on the ToR uplink otherwise.
    """
    rng = random.Random(seed)
    bursts = []
    deep = rng.randrange(n_bursts // 2)
    for b in range(n_bursts):
        src = rng.randrange(n_nodes)
        ops = []
        for k in range(BURST if b == deep else rng.randint(1, 5)):
            dst = rng.choice([d for d in range(n_nodes) if d != src])
            kind, nbytes = rng.choice(FAULT_KINDS), rng.choice(FAULT_SIZES)
            if b == deep:
                kind, dst = "transfer", rng.choice(far(src))
                nbytes = FAULT_SIZES[-1] if k == 0 else rng.choice((8, 64))
            ops.append((kind, dst, nbytes))
        bursts.append((rng.uniform(0.0, rng.choice([1.0, 10.0, 120.0])),
                       src, ops))
    span = sum(gap for gap, _s, _o in bursts)
    a, b = rng.sample(range(n_nodes), 2)
    t1, t2 = sorted(rng.uniform(0.1, 0.9) * span for _ in range(2))
    plan = (FaultPlan()
            .crash(a, at=t1, restart_at=t1 + rng.uniform(30.0, 300.0))
            .crash(b, at=t2, restart_at=t2 + rng.uniform(30.0, 300.0))
            .degrade_link(rng.uniform(1.5, 4.0), src=rng.randrange(n_nodes),
                          start=rng.uniform(0.0, span / 2), until=span)
            .slow_node(rng.randrange(n_nodes), rng.uniform(1.2, 3.0),
                       start=rng.uniform(0.0, span / 2), until=0.9 * span)
            .fail_verbs(0.15).drop_messages(0.1).duplicate_messages(0.1))
    nodes = rng.sample(range(n_nodes), 5)
    cut = rng.uniform(0.0, 0.7 * span)
    plan.partition((nodes[:2], nodes[2:]), start=cut,
                   until=cut + rng.uniform(20.0, 200.0),
                   oneway=rng.random() < 0.5)
    return bursts, deep, plan


def _faulted_both_kernels(topology, seed):
    make, far = TOPOLOGIES[topology]
    bursts, deep, plan = _faulted_schedule(seed, far)
    return _both_kernels(lambda: make(seed), bursts, deep, plan)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_faulted_completions_equal_generator(topology, seed):
    """Per operation ``(completion instant, ok, exception type or
    value)``, the injector's six counters, every node's undelivered
    messages and the fabric's totals: equal under both kernels."""
    (fast, fast_q), (slow, slow_q) = _faulted_both_kernels(topology, seed)
    assert len(slow["outcome"]) >= 150
    failed = [v for _t, ok, v in slow["outcome"].values() if not ok]
    assert len(set(failed)) >= 2        # the plan really bites
    assert slow["counters"][2] > 0 and slow["counters"][5] > 0
    for what in slow:
        assert fast[what] == slow[what], what
    # the generators really queued; an analytic stage never does
    assert slow_q >= 16 and fast_q == 0


def test_faulted_two_rack_run_creates_no_transfer_or_verb_process(
        monkeypatch):
    """``env.fastpath`` is the only fast/slow decision: with an injector
    attached and two racks, the fast kernel still creates no generator
    transfer and no generator verb."""
    names = []
    init = Process.__init__

    def logged_init(self, env, gen, name=""):
        init(self, env, gen, name=name)
        names.append(self.name)

    monkeypatch.setattr(Process, "__init__", logged_init)
    make, far = TOPOLOGIES["two-rack"]
    bursts, deep, plan = _faulted_schedule(0, far)
    for kernel, expected in (("fast", False), ("slow", True)):
        del names[:]
        with pin_kernel(kernel):
            cluster = make(0)
        _replay(cluster, bursts, deep, plan)
        spawned = [n for n in names
                   if n.startswith(("xfer-", "mcast-", "rdma-", "cas@",
                                    "faa@"))]
        assert bool(spawned) is expected, (kernel, spawned[:5])


def _entries(make_cluster, op, injector):
    """Agenda entries one ``op`` from node 1 to the last node costs."""
    with pin_kernel("fast"):
        cluster = make_cluster()
    if injector:
        # one whose only fault never happens
        cluster.install_faults(FaultPlan().crash(0, at=1e9))
    env = cluster.env
    env.run(until=1.0)      # the injector's own processes have started
    key = cluster.nodes[-1].memory.register(64, name="w").remote_key()
    nic = cluster.nodes[1].nic
    seq = env._seq
    if op == "read":
        ev = nic.read_key(key, 0, 8)
    elif op == "cas":
        ev = nic.cas_key(key, 8, 0, 1)
    elif op == "write":
        ev = nic.write_key(key, b"x" * 8, 0)
    else:
        ev = nic.send_wait(key.node, size=8)
    env.run(until=1000.0)
    assert ev.ok
    return env._seq - seq


def test_agenda_entries_per_operation():
    """The entry table of DESIGN.md §9.  A fault-free verb on one rack
    is posted, served and completed; an injector adds the two arrival
    instants (a fenced leg must fail *there*); a ToR uplink adds one
    booking call a leg.  The generators cost 16 to 22."""
    def flat():
        return Cluster(n_nodes=4, seed=0)

    def racks():
        return TopoCluster(racks=2, hosts_per_rack=2, oversub=2.0, seed=0)

    for op in ("read", "cas"):
        assert _entries(flat, op, injector=False) == 3
        assert _entries(flat, op, injector=True) <= 5
        assert _entries(racks, op, injector=False) <= 7
        assert _entries(racks, op, injector=True) <= 7
    assert _entries(flat, "write", injector=False) == 3
    assert _entries(racks, "write", injector=True) <= 6
    assert _entries(flat, "send_wait", injector=True) <= 3
    assert _entries(racks, "send_wait", injector=True) <= 4
