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

from repro.sim import Environment, Resource, Timeout, slow_kernel_requested
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
# chained link bookings (Resource.try_reserve)
# ---------------------------------------------------------------------------

def test_reservation_occupies_then_lapses():
    env = Environment()
    link = Resource(env, capacity=1)
    assert link.try_reserve(0.0, 5.0) == 5.0
    assert not link.try_acquire()      # booked slot counts as occupied
    env.run(until=5.0)                 # inclusive: still held *at* 5.0
    assert not link.try_acquire()
    env._now = 5.5
    assert link.try_acquire()          # lapsed without any agenda entry
    link.release()


def test_back_to_back_bookings_chain():
    env = Environment()
    link = Resource(env, capacity=1)
    # each booking starts where the previous one ends, in the float
    # association order a queue of Timeout(hold)s would produce
    assert link.try_reserve(0.1, 0.7) == 0.1 + 0.7
    assert link.try_reserve(0.1, 0.2) == (0.1 + 0.7) + 0.2
    assert link.try_reserve(0.3, 0.4) == ((0.1 + 0.7) + 0.2) + 0.4
    assert env.peek() == float("inf")  # three bookings, no agenda entry


def test_ready_past_chain_end_starts_at_ready():
    env = Environment()
    link = Resource(env, capacity=1)
    assert link.try_reserve(1.0, 2.0) == 3.0
    assert link.try_reserve(7.0, 2.0) == 9.0    # idle gap 3.0 .. 7.0
    assert link.try_reserve(9.0, 0.5) == 9.5    # ready == chain end
    assert link.try_reserve(9.5, 0.0) == 9.5    # zero-length hold


def test_waiter_behind_reservation_granted_at_deadline():
    env = Environment()
    link = Resource(env, capacity=1)
    granted = []
    assert link.try_reserve(0.0, 4.0) == 4.0

    def waiter(env):
        yield link.acquire()
        granted.append(env.now)
        link.release()

    env.process(waiter(env))
    env.process(waiter(env))
    env.run()
    # FIFO: first waiter gets the slot exactly at the deadline, second
    # immediately after the first's release (same instant here).
    assert granted == [4.0, 4.0]
    assert link.in_use == 0 and link.queue_len == 0


def test_waiter_behind_three_deep_chain_granted_once_at_its_end():
    env = Environment()
    link = Resource(env, capacity=1)
    granted = []
    for hold in (1.0, 2.0, 1.5):
        assert link.try_reserve(0.0, hold) >= 0.0

    def waiter(env):
        yield link.acquire()
        granted.append(env.now)

    env.process(waiter(env))
    env.run(until=0.0)
    # once a waiter queues, the chain stops growing
    assert link.try_reserve(0.0, 1.0) == -1.0
    assert env.peek() == 4.5           # one expiry entry, at the chain's end
    env.run()
    assert granted == [4.5]
    assert link.try_reserve(4.5, 1.0) == -1.0      # the waiter holds it now
    link.release()
    assert link.try_reserve(4.5, 1.0) == 5.5       # idle again: books


def test_reservation_respects_fifo_queue():
    env = Environment()
    link = Resource(env, capacity=1)
    assert link.try_acquire()
    assert link.try_reserve(0.0, 1.0) == -1.0   # a real holder

    def holder_release(env):
        yield env.timeout(3.0)
        link.release()

    got = []

    def waiter(env):
        yield link.acquire()
        got.append(env.now)

    env.process(holder_release(env))
    env.process(waiter(env))
    env.run(until=1.0)
    # a queued waiter blocks new bookings (no queue jumping)
    assert link.try_reserve(1.0, 10.0) == -1.0
    env.run()
    assert got == [3.0]


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
