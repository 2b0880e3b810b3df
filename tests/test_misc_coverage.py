"""Cross-cutting tests: params presets, determinism, kernel edge cases."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.net import Cluster, NetworkParams
from repro.dlm import LockMode, NCoSEDManager, cascade_latency


class TestNetworkParams:
    def test_presets_have_sane_relations(self):
        ib = NetworkParams.infiniband()
        # the socket CPU tax prices host-based protocols over the SAN
        assert ib.sock_cpu_us(1024) > ib.sock_cpu_us(0) > 0

    def test_with_override(self):
        ib = NetworkParams.infiniband()
        fat = replace(ib, bandwidth_bpus=2000.0, name="ib-qdr")
        assert fat.bandwidth_bpus == 2000.0
        assert fat.name == "ib-qdr"
        assert fat.wire_latency_us == ib.wire_latency_us
        assert ib.bandwidth_bpus == 900.0  # original untouched

    def test_validation(self):
        with pytest.raises(ConfigError):
            replace(NetworkParams.infiniband(), bandwidth_bpus=0.0)
        with pytest.raises(ConfigError):
            replace(NetworkParams.infiniband(), wire_latency_us=-1.0)

    def test_serialization_scales_linearly(self):
        """A payload holds its sender's egress link ``nbytes`` over the
        bandwidth: ten times the bytes, ten times the hold."""
        holds = []
        for nbytes in (900, 9000):
            c = Cluster(n_nodes=2, params=NetworkParams.infiniband())
            c.fabric.transfer(0, 1, nbytes)
            holds.append(c.fabric._egress_end[0] - c.params.nic_tx_us)
        assert holds[0] > 0 and holds[1] == pytest.approx(10 * holds[0])


class TestDeterminism:
    """Seeded simulations must replay bit-identically — the property
    every calibration claim in EXPERIMENTS.md relies on."""

    def test_cascade_experiment_replays_identically(self):
        a = cascade_latency(NCoSEDManager, 6, LockMode.SHARED)
        b = cascade_latency(NCoSEDManager, 6, LockMode.SHARED)
        assert a["cascade_us"] == b["cascade_us"]
        assert a["grant_times"] == b["grant_times"]

    def test_monitor_trace_replays_identically(self):
        from repro.monitor.experiments import accuracy_trace
        a = accuracy_trace("socket-async", duration_us=50_000, seed=5)
        b = accuracy_trace("socket-async", duration_us=50_000, seed=5)
        assert a.samples == b.samples

    def test_different_seeds_differ(self):
        from repro.monitor.experiments import accuracy_trace
        a = accuracy_trace("socket-async", duration_us=50_000, seed=5)
        b = accuracy_trace("socket-async", duration_us=50_000, seed=6)
        assert a.samples != b.samples


class TestEnvironmentEdges:
    def test_any_of_propagates_child_failure(self):
        from repro.sim import AnyOf, Environment
        env = Environment()

        def proc(env):
            bad = env.event()
            good = env.timeout(100.0)
            bad.fail(RuntimeError("child died"))
            try:
                yield AnyOf(env, [good, bad])
            except RuntimeError as exc:
                return str(exc)

        p = env.process(proc(env))
        env.run()
        assert p.value == "child died"
