"""The DDSS control plane (``allocate``, ``lookup``) over the
one request path, :mod:`repro.transport.rpc`: a deadline, bounded retry
and at-most-once execution under a fault injector, and nothing added
without one."""

import gc
import sys

import pytest

from repro.ddss import DDSS, Coherence
from repro.errors import DDSSError, TimeoutError
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.transport import rpc

from tests.sim.reference_kernel import KERNELS, pin_kernel

#: simulated µs a call may take before it must have failed: every
#: attempt's deadline, plus slack for the last request's own trip
BUDGET_US = rpc.DEADLINE_US * (2 ** rpc.ATTEMPTS - 1) + 100.0


def build(kernel, plan=None):
    """3 nodes; node 1 allocates a WRITE unit homed on node 0."""
    with pin_kernel(kernel):
        cluster = Cluster(n_nodes=3, seed=7)
    obs = cluster.observe(strict=False)
    if plan is not None:
        cluster.install_faults(plan)
    ddss = DDSS(cluster)
    return cluster, obs, ddss, ddss.client(cluster.nodes[1])


def run(cluster, gen, limit=1e6):
    p = cluster.env.process(gen)
    return cluster.env.run_until_event(p, limit=limit)


#: the home-segment bytes one ``allocate`` takes: header + 128 B
BLOCK = 144


def allocate(client):
    key = yield client.allocate(128, Coherence.WRITE, placement=0)
    return key


def used(ddss):
    """Bytes node 0's segment has handed out."""
    home = ddss._allocators[0]
    return home.capacity - home.free_bytes


def rows(obs, etype):
    return obs.trace.select(etype)


@pytest.mark.parametrize("kernel", KERNELS)
class TestFaults:
    def test_short_drop_window_is_retried(self, kernel):
        """Every message in t = 0-50 µs is lost: the first attempt's
        request dies and the re-send after the deadline gets through
        (a bare send with no deadline would wait for good)."""
        cluster, obs, _ddss, client = build(
            kernel, FaultPlan().drop_messages(1.0, start=0.0, until=50.0))
        assert run(cluster, allocate(client)) == 1
        assert rows(obs, "rpc.retry")
        assert cluster.env.now < rpc.DEADLINE_US + 50.0
        assert not obs.violations()

    def test_all_calls_complete_under_heavy_drop(self, kernel):
        """40% loss each way for 3.5 ms, the span a call's doubling
        deadlines ride out: every allocate still completes, and despite
        the re-sends each request runs its handler exactly once, so the
        home hands out exactly one block per key."""
        cluster, obs, ddss, client = build(
            kernel, FaultPlan().drop_messages(0.4, start=50.0,
                                              until=3_500.0))

        def app():
            keys = []
            for _ in range(30):
                keys.append((yield from allocate(client)))
            return keys

        keys = run(cluster, app(), limit=1e9)
        assert len(set(keys)) == 30
        assert used(ddss) == 30 * BLOCK
        executed = [row.fields["rid"] for row in rows(obs, "rpc.execute")]
        assert len(executed) == len(set(executed))
        assert rows(obs, "rpc.retry")  # the drops actually bit
        assert not obs.violations()

    def test_permanent_drop_raises_the_named_timeout(self, kernel):
        cluster, obs, _ddss, client = build(
            kernel, FaultPlan().drop_messages(1.0))
        with pytest.raises(TimeoutError) as err:
            run(cluster, allocate(client), limit=BUDGET_US)
        assert str(err.value) == (
            f"alloc to node 0: no reply after {rpc.ATTEMPTS} attempts")
        assert len(rows(obs, "rpc.retry")) == rpc.ATTEMPTS - 1
        assert len(rows(obs, "rpc.timeout")) == 1

    def test_duplicates_execute_once_and_leave_nothing(self, kernel):
        """Every message is delivered twice: each request runs its
        handler once, so one allocate takes one block (running the
        duplicate alloc would take a second 144 B for good), and the
        duplicate replies leave no queue behind on the caller's NIC."""
        cluster, obs, ddss, client = build(
            kernel, FaultPlan().duplicate_messages(1.0))
        run(cluster, allocate(client))
        assert used(ddss) == BLOCK
        queues = cluster.nodes[1].nic._recv_queues
        # every receive queue is drained and no call still awaits a reply
        assert {tag: q for tag, q in queues.items()
                if (q.waiting if tag == rpc.REPLY_TAG else q._items)} == {}
        assert rows(obs, "rpc.dup_request")
        assert not obs.violations()

    def test_directory_crash_mid_request_fails_the_caller(self, kernel):
        """The directory (node 0) goes down after the register request
        reached it (t = 11.3 µs) and before its reply left (13.3 µs):
        the caller fails, it does not hang."""
        cluster, obs, _ddss, client = build(
            kernel, FaultPlan().crash(0, at=12.0))

        def app():
            yield client.allocate(64, placement=2)

        with pytest.raises((TimeoutError, DDSSError)):
            run(cluster, app(), limit=BUDGET_US + 100.0)
        # the register had arrived: node 0 ran it, and no reply came back
        assert rows(obs, "rpc.execute")[-1].node == 0
        assert rows(obs, "rpc.timeout")

    def test_late_reply_completes_the_call_once(self, kernel):
        """Node 0's links are 400x slower for 2 ms: the first reply lands
        after its deadline, the re-sent request is answered from the
        server's window, the first reply to arrive completes the call
        and the other is discarded."""
        plan = FaultPlan().slow_node(0, 400.0, until=2_000.0)
        cluster, obs, ddss, client = build(kernel, plan)
        assert run(cluster, allocate(client), limit=1e5) == 1
        assert rows(obs, "rpc.retry") and rows(obs, "rpc.dup_request")
        assert used(ddss) == BLOCK
        cluster.env.run()
        box = cluster.nodes[1].nic._recv_queues[rpc.REPLY_TAG]
        assert box.late >= 1 and not box.waiting
        assert not obs.violations()


def _cost(kernel, n):
    """``(frames, agenda entries)`` of ``n`` fault-free allocations."""
    with pin_kernel(kernel):
        cluster = Cluster(n_nodes=3, seed=7)
    ddss = DDSS(cluster)
    client = ddss.client(cluster.nodes[1])
    env = cluster.env

    def body():
        for _ in range(n):
            yield client.allocate(64, placement=2)

    env.process(body())
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        env.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, env._seq


#: kernel -> (frames, agenda entries) of one allocate: two control round
#: trips (alloc at node 2, register at node 0) with no injector, so no
#: deadline timer is armed, no reply window is kept and nothing is
#: traced.  Each reply is routed by the NIC's own ``try_put`` call, with
#: no receive queue built, read and dropped per request.  Every message
#: is an unsignaled post, so no send completion is booked; on the product
#: kernel each is routed like a verb leg, one bare arrival call.  (The
#: reference kernel's frames include one ``append`` of its stand-in
#: deque per entry at the current instant, 20 of its 34.)
COST = {"fast": (99, 14), "slow": (237, 34)}


@pytest.mark.parametrize("kernel", KERNELS)
def test_fault_free_control_op_cost(kernel):
    counts = [_cost(kernel, n) for n in (2, 3, 4)]
    per_op = {(b[0] - a[0], b[1] - a[1])
              for a, b in zip(counts, counts[1:])}
    assert per_op == {COST[kernel]}


class TestCoherenceBounds:
    """A bound no read can meet makes a unit that silently never serves
    from its cache; it is refused before any message is sent."""

    @pytest.mark.parametrize("kw", [
        {"coherence": Coherence.DELTA, "delta": -1},
        {"coherence": Coherence.TEMPORAL, "ttl_us": float("nan")},
        {"coherence": Coherence.TEMPORAL, "ttl_us": -1.0},
        {"coherence": Coherence.TEMPORAL, "ttl_us": float("inf")},
    ], ids=["delta-negative", "ttl-nan", "ttl-negative", "ttl-inf"])
    def test_refused_before_any_send(self, kw):
        cluster = Cluster(n_nodes=2, seed=0)
        client = DDSS(cluster).client(cluster.nodes[1])

        def app():
            yield client.allocate(64, **kw)

        with pytest.raises(DDSSError):
            run(cluster, app())
        assert cluster.nodes[1].nic.sends == 0
