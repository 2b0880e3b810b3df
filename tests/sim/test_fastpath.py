"""Kernel fast paths vs the naive heap-only kernel.

The contract (DESIGN.md §9): with the same seed, a run with the fast
paths enabled and a run under ``REPRO_SLOW_KERNEL=1`` must fire every
externally visible event at the same simulated instant and in the same
relative order — checked here three ways: a property test on raw
same-timestamp scheduling, timeline equivalence of contended fabric
transfers, and byte-identical observability exports of the packaged
scenarios.
"""

import random

import pytest

from repro.sim import Environment, Timeout, slow_kernel_requested
from repro.sim.core import SimulationError


def _make_env(monkeypatch, slow: bool) -> Environment:
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
    env = Environment()
    assert env.fastpath is (not slow)
    return env


# ---------------------------------------------------------------------------
# kernel ordering
# ---------------------------------------------------------------------------

def _random_workload(env, seed, log):
    """Schedule a random mix of timeouts, immediate events and processes,
    recording the firing order of every labelled occurrence."""
    rng = random.Random(seed)

    def note(label):
        return lambda ev: log.append((env.now, label))

    def proc(env, ident, depth):
        for i in range(rng.randint(1, 3)):
            delay = rng.choice([0.0, 0.0, 1.0, 2.5, rng.random()])
            yield env.timeout(delay)
            log.append((env.now, f"p{ident}.{i}"))
            if depth and rng.random() < 0.4:
                child = env.process(proc(env, f"{ident}c", depth - 1))
                if rng.random() < 0.5:
                    yield child

    for n in range(8):
        env.process(proc(env, n, 2))
        ev = env.event()
        ev.add_callback(note(f"e{n}"))
        if rng.random() < 0.5:
            ev.succeed(n)
        else:
            env.timeout(rng.choice([0.0, 1.0]), value=n) \
               .add_callback(lambda e, n=n: log.append((env.now, f"t{n}")))
            ev.succeed()
    env.run()


@pytest.mark.parametrize("seed", range(12))
def test_same_timestamp_order_matches_heap_only_kernel(monkeypatch, seed):
    logs = []
    for slow in (False, True):
        env = _make_env(monkeypatch, slow)
        log = []
        _random_workload(env, seed, log)
        logs.append((log, env.now))
    (fast_log, fast_now), (slow_log, slow_now) = logs
    assert fast_now == slow_now
    assert fast_log == slow_log


def test_slow_kernel_env_flag(monkeypatch):
    monkeypatch.delenv("REPRO_SLOW_KERNEL", raising=False)
    assert not slow_kernel_requested()
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
    assert not slow_kernel_requested()
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1")
    assert slow_kernel_requested()
    assert Environment().fastpath is False


# ---------------------------------------------------------------------------
# chained stage bookings (Fabric._route, TopoFabric._reach_uplink)
# ---------------------------------------------------------------------------
# Each test drives a few transfers by hand, checks every arrival against
# the float a queue of generator holders would produce, written out, and
# then against the generators themselves (the slow kernel).

def _arrivals(monkeypatch, slow, make_cluster, injections):
    """``injections`` = ``[(at, src, dst, nbytes), ...]``; returns the
    arrival instant of each and the agenda entries the run took."""
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
    cluster = make_cluster()
    env, fabric = cluster.env, cluster.fabric
    arrived = {}

    def inject(i, src, dst, nbytes):
        fabric.transfer(src, dst, nbytes).add_callback(
            lambda _e: arrived.__setitem__(i, env.now))

    seq = env._seq
    for i, (at, src, dst, nbytes) in enumerate(injections):
        env.run(until=at)
        inject(i, src, dst, nbytes)
    env.run()
    return [arrived[i] for i in range(len(injections))], env._seq - seq


def _flat():
    from repro.net import Cluster
    return Cluster(n_nodes=3, seed=0)


def _two_racks():
    from repro.topo import TopoCluster
    return TopoCluster(racks=2, hosts_per_rack=2, oversub=2.0, seed=0)


def _both(monkeypatch, make_cluster, injections):
    fast, entries = _arrivals(monkeypatch, False, make_cluster, injections)
    slow, _ = _arrivals(monkeypatch, True, make_cluster, injections)
    assert fast == slow
    return fast, entries


def test_reservation_occupies_then_lapses(monkeypatch):
    p = _flat().params
    tx, tail = p.nic_tx_us, p.wire_latency_us + p.nic_rx_us
    hold = 4500 / p.bandwidth_bpus                  # 5 us
    got, entries = _both(monkeypatch, _flat, [
        (0.0, 0, 1, 4500),      # window [tx, tx + hold]
        (2.0, 0, 1, 0),         # ready inside it: starts at its end
        (5.0, 0, 2, 0),         # ready *at* its end: still behind it
        (6.0, 0, 1, 0),         # lapsed: starts when ready
    ])
    end = (0.0 + tx) + hold
    assert 5.0 + tx == end
    assert got == [end + tail, (end + 0.0) + tail, (end + 0.0) + tail,
                   ((6.0 + tx) + 0.0) + tail]
    assert entries == 4         # the lapse itself took no agenda entry


def test_back_to_back_bookings_chain(monkeypatch):
    p = _flat().params
    tx, tail, bw = (p.nic_tx_us, p.wire_latency_us + p.nic_rx_us,
                    p.bandwidth_bpus)
    # each booking starts where the previous one ends, in the float
    # association order a queue of Timeout(hold)s would produce
    got, entries = _both(monkeypatch, _flat, [
        (0.1, 0, 1, 700), (0.1, 0, 2, 200), (0.3, 0, 1, 400)])
    first = (0.1 + tx) + 700 / bw
    assert got == [first + tail, (first + 200 / bw) + tail,
                   ((first + 200 / bw) + 400 / bw) + tail]
    assert entries == 3         # three bookings, one entry each


def test_ready_past_chain_end_starts_at_ready(monkeypatch):
    p = _flat().params
    tx, tail, bw = (p.nic_tx_us, p.wire_latency_us + p.nic_rx_us,
                    p.bandwidth_bpus)
    got, _ = _both(monkeypatch, _flat, [
        (1.0, 0, 1, 1800),      # [1 + tx, 3 + tx]
        (7.0, 0, 1, 1800),      # idle gap, then [7 + tx, 9 + tx]
        (9.0, 0, 2, 450),       # ready == chain end
        (9.5, 0, 1, 0),         # zero-length hold at the new end
    ])
    second = (7.0 + tx) + 1800 / bw
    assert 9.0 + tx == second
    assert got == [((1.0 + tx) + 1800 / bw) + tail, second + tail,
                   (second + 450 / bw) + tail,
                   ((second + 450 / bw) + 0.0) + tail]


def test_waiter_behind_reservation_granted_at_deadline(monkeypatch):
    """A cross-rack payload queued behind an intra-rack booking on its
    host's egress link reaches the ToR uplink when its own window ends,
    and a second one reaches a busy uplink: both FIFO stages chain."""
    fabric = _two_racks().fabric
    p = fabric.params
    tx, bw, up = p.nic_tx_us, p.bandwidth_bpus, fabric.uplink_bpus
    xtail = fabric._xwire_us + p.nic_rx_us
    got, _ = _both(monkeypatch, _two_racks, [
        (0.0, 0, 1, 3600),      # intra-rack: egress [tx, tx + 4]
        (0.0, 0, 2, 1800),      # egress from there for 2, then uplink
        (0.0, 0, 3, 900),       # egress 1 more; the uplink is still busy
    ])
    released = ((0.0 + tx) + 3600 / bw) + 1800 / bw
    assert up == bw             # 2 hosts at 2:1: a 1800 B hold outlasts
    assert got[1] == (released + 1800 / up) + xtail
    assert got[2] == ((released + 1800 / up) + 900 / up) + xtail
    assert released + 900 / bw < released + 1800 / up


def test_waiter_behind_three_deep_chain_granted_once_at_its_end(monkeypatch):
    """Three bookings deep, then a cross-rack payload: one bare agenda
    call, at the egress release instant, books its uplink."""
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
    cluster = _two_racks()
    env, fabric = cluster.env, cluster.fabric
    p = fabric.params
    seq = env._seq
    for nbytes in (900, 1800, 1350):
        fabric.transfer(0, 1, nbytes)
    assert env._seq - seq == 3              # an arrival each
    done = fabric.transfer(0, 2, 450)
    assert env._seq - seq == 4              # one call, nothing else yet
    chain_end = (((0.0 + p.nic_tx_us) + 900 / p.bandwidth_bpus)
                 + 1800 / p.bandwidth_bpus) + 1350 / p.bandwidth_bpus
    released = chain_end + 450 / p.bandwidth_bpus
    env.run(until=released - 0.01)
    assert fabric._uplink_end[(0, 0)] == 0.0      # not booked before then
    env.run(until=released)
    assert fabric._uplink_end[(0, 0)] == released + 450 / fabric.uplink_bpus
    env.run()
    assert done.ok
    assert env._seq - seq == 6      # + the arrival call and the event


def test_reservation_respects_fifo_queue(monkeypatch):
    """The uplink serves payloads in the order they *reach* it, not the
    order they were injected: host 1 injects later but its small payload
    clears its egress link first — which is why the uplink is booked at
    the egress release instant and not at injection."""
    fabric = _two_racks().fabric
    p = fabric.params
    tx, bw, up = p.nic_tx_us, p.bandwidth_bpus, fabric.uplink_bpus
    xtail = fabric._xwire_us + p.nic_rx_us
    got, _ = _both(monkeypatch, _two_racks, [
        (0.0, 0, 2, 9000),      # reaches the uplink at tx + 10
        (1.0, 1, 3, 7200),      # reaches it at 1 + tx + 8, and holds it 8
    ])
    first = (1.0 + tx) + 7200 / bw
    second = (0.0 + tx) + 9000 / bw
    assert first < second < first + 7200 / up
    assert got[1] == (first + 7200 / up) + xtail
    assert got[0] == ((first + 7200 / up) + 9000 / up) + xtail


# ---------------------------------------------------------------------------
# fabric: contended transfers keep slow-path timing
# ---------------------------------------------------------------------------

def _burst_timeline(monkeypatch, slow):
    from repro.net import Cluster

    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
    cluster = Cluster(n_nodes=3, seed=0)
    env = cluster.env
    fabric = cluster.fabric
    arrivals = []

    def sender(env, delay, nbytes, label):
        yield env.timeout(delay)
        yield fabric.transfer(0, 1, nbytes)
        arrivals.append((label, env.now))

    # overlapping windows: 2nd/3rd transfers start while the 1st still
    # holds node 0's egress link, exercising the reservation hand-off
    env.process(sender(env, 0.0, 65536, "a"))
    env.process(sender(env, 0.1, 4096, "b"))
    env.process(sender(env, 0.1, 64, "c"))
    env.process(sender(env, 500.0, 64, "late"))
    env.run()
    return arrivals, env.now


def test_contended_transfer_timeline_matches_slow(monkeypatch):
    fast, fast_now = _burst_timeline(monkeypatch, slow=False)
    slow, slow_now = _burst_timeline(monkeypatch, slow=True)
    assert fast == slow
    assert fast_now == slow_now


def test_verb_storm_matches_slow(monkeypatch):
    """Many clients hammering one target: mixed contended/uncontended
    verb legs must complete at identical instants in both modes."""
    from repro.net import Cluster

    def run(slow):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
        cluster = Cluster(n_nodes=4, seed=0)
        region = cluster.nodes[0].memory.register(256, name="word")
        key = region.remote_key()
        env = cluster.env
        log = []

        def client(env, nic, ident):
            for i in range(20):
                old = yield nic.faa_key(key, 8 * ident, 1)
                log.append((env.now, ident, old))
                yield nic.write_key(key, b"x" * 8, 8 * ident)
                data = yield nic.read_key(key, 8 * ident, 8)
                log.append((env.now, ident, data))

        for n in range(1, 4):
            env.process(client(env, cluster.nodes[n].nic, n - 1))
        env.run()
        return log, env.now

    fast, slow = run(False), run(True)
    assert fast == slow


# ---------------------------------------------------------------------------
# verb failure semantics on the fast path
# ---------------------------------------------------------------------------

def test_fast_verb_protection_error_delivered_to_waiter(monkeypatch):
    from repro.errors import ProtectionError
    from repro.net import Cluster

    def run(slow):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
        cluster = Cluster(n_nodes=2, seed=0)
        region = cluster.nodes[1].memory.register(64, name="m")
        key = region.remote_key()
        env = cluster.env
        seen = []

        def client(env):
            nic = cluster.nodes[0].nic
            try:
                yield nic.cas(key.node, key.addr, key.rkey ^ 1, 0, 1)
            except ProtectionError:
                seen.append(env.now)

        env.process(client(env))
        env.run()
        return seen

    assert run(False) == run(True) != []


def test_fast_verb_unknown_node_fails_like_slow(monkeypatch):
    from repro.errors import ConfigError
    from repro.net import Cluster

    def run(slow):
        monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if slow else "0")
        cluster = Cluster(n_nodes=2, seed=0)
        env = cluster.env
        caught = []

        def client(env):
            try:
                yield cluster.nodes[0].nic.faa(7, 0x10000, 1, 1)
            except ConfigError:
                caught.append(env.now)

        env.process(client(env))
        env.run()
        return caught

    assert run(False) == run(True) != []


def test_unwatched_fast_verb_crash_surfaces(monkeypatch):
    """An unobserved failing verb must raise, same as a crashed process."""
    from repro.errors import ProtectionError
    from repro.net import Cluster

    monkeypatch.setenv("REPRO_SLOW_KERNEL", "0")
    cluster = Cluster(n_nodes=2, seed=0)
    cluster.nodes[0].nic.rdma_write(1, 0xDEAD, 1, b"oops")
    with pytest.raises(ProtectionError):
        cluster.env.run()


# ---------------------------------------------------------------------------
# NIC polling stays allocation-free
# ---------------------------------------------------------------------------

def test_pending_and_try_recv_do_not_create_queues():
    from repro.net import Cluster

    cluster = Cluster(n_nodes=2, seed=0)
    nic = cluster.nodes[0].nic
    assert nic.pending(tag="never-used") == 0
    assert nic.try_recv(tag="never-used") == (False, None)
    assert nic._recv_queues == {}


# ---------------------------------------------------------------------------
# scenario fingerprints: byte-identical exports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ncosed", "ddss", "flow",
                                  "ncosed-chaos"])
def test_scenario_export_identical_fast_vs_slow(name):
    from repro.scenarios import judged_run

    exports = [judged_run(name, kernel=kernel)[1].export_json()
               for kernel in ("fast", "slow")]
    assert exports[0] == exports[1]


def test_negative_timeout_still_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


@pytest.mark.parametrize("slow", [False, True], ids=["fast", "slow"])
@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(monkeypatch, slow, delay):
    """A NaN ``when`` compares false against everything and would
    silently corrupt the heap order; an infinite one would drag the
    clock to ``inf``.  Both are refused at the door, nothing is
    scheduled, and the clock stays put."""
    env = _make_env(monkeypatch, slow)
    with pytest.raises(SimulationError, match="non-finite timeout delay"):
        env.timeout(delay)
    with pytest.raises(SimulationError, match="non-finite timeout delay"):
        Timeout(env, delay, value="x")
    assert env.peek() == float("inf")
    assert env.run() == 0.0
