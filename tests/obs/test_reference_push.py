"""Pulled counters and :class:`~repro.obs.Probe` against the push twin.

``tests/obs/reference_push.py`` records the way the library did before
fabric and NIC counters were pulled at export and latency probes became one
``functools.partial`` type.  Both must export the same bytes: the
metrics document and the full trace, on every scenario row (``lab``,
the slowest, is left to the topology rig below, which covers its
``topo.*`` counters) and on rigs for the counters no row records.
"""

import json

import pytest

from repro.ddss import DDSS
from repro.errors import FaultError, TimeoutError
from repro.faults import FaultPlan
from repro.net import Cluster
from repro.scenarios import SCENARIOS, judged_run
from repro.topo import TopoCluster

from tests.obs.live import observe_live
from tests.obs.reference_push import patch_reference
from tests.sim.reference_kernel import KERNELS, pin_kernel


def _exports(obs):
    return json.dumps(obs.metrics.to_dict(), sort_keys=True), obs.export_trace_json()


def _twin(run, monkeypatch):
    product = _exports(run())
    patch_reference(monkeypatch)
    reference = _exports(run())
    assert product == reference
    return product


@pytest.mark.parametrize("row", sorted(set(SCENARIOS) - {"lab"}))
def test_scenario_row_exports_match_the_push_twin(row, monkeypatch):
    _twin(lambda: judged_run(row, seed=3)[1], monkeypatch)


def _topo_rig(kernel):
    with pin_kernel(kernel):
        cl = TopoCluster(racks=3, hosts_per_rack=2, oversub=2.0, seed=1)
    cl.install_faults(FaultPlan().crash(3, at=15.0))
    obs = cl.observe(strict=False)
    env = cl.env
    seg = cl.nodes[2].memory.register(4096, name="seg")

    def sender(src, dst, n):
        for i in range(n):
            try:
                yield cl.fabric.transfer(src, dst, 512 * i)
                yield cl.nodes[src].nic.rdma_read(2, seg.addr, seg.rkey, 64)
            except FaultError:  # node 3 crashes mid-run
                pass

    for src, dst in ((0, 2), (0, 1), (3, 1), (2, 3), (1, 5)):
        env.process(sender(src, dst, 6), name=f"s{src}")
    env.run(until=2_000.0)
    return obs


@pytest.mark.parametrize("kernel", KERNELS)
def test_topology_rig_matches_the_push_twin(kernel, monkeypatch):
    metrics, _ = _twin(lambda: _topo_rig(kernel), monkeypatch)
    # rack 2 only receives: no uplink key for it
    for key in ('"topo.xrack.transfers"', '"topo.uplink.bytes@n0"',
                '"topo.uplink.bytes@n1"', '"fabric.bytes"',
                '"nic.verb_fails@n3"'):
        assert key in metrics
    assert '"topo.uplink.bytes@n2"' not in metrics


def _rpc_rig(kernel):
    """DDSS control requests through 30% message loss: retries, replays
    and timeouts, so both NICs send under faults."""
    with pin_kernel(kernel):
        cluster = Cluster(n_nodes=3, seed=0)
    obs = observe_live(cluster)
    cluster.install_faults(FaultPlan().drop_messages(0.3, start=50.0))
    client = DDSS(cluster).client(cluster.nodes[1])

    def app(env):
        for _ in range(20):
            try:
                yield client.allocate(64, placement=0)
            except TimeoutError:  # the drops exhausted every attempt
                pass

    p = cluster.env.process(app(cluster.env))
    cluster.env.run_until_event(p, limit=1e9)
    return obs


@pytest.mark.parametrize("kernel", KERNELS)
def test_rpc_rig_matches_the_push_twin(kernel, monkeypatch):
    metrics, _ = _twin(lambda: _rpc_rig(kernel), monkeypatch)
    for key in ('"rpc.retries@n1"', '"rpc.timeouts@n1"',
                '"rpc.dup_requests@n0"', '"nic.sends@n0"',
                '"nic.sends@n1"'):
        assert key in metrics
