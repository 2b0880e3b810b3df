"""Cross-cutting tests: params presets, determinism, kernel edge cases."""

import pytest

from repro.errors import ConfigError
from repro.net import NetworkParams
from repro.dlm import LockMode, NCoSEDManager, cascade_latency


class TestNetworkParams:
    def test_presets_have_sane_relations(self):
        ib = NetworkParams.infiniband()
        gige = NetworkParams.tcp_gige()
        tengige = NetworkParams.tcp_10gige()
        assert ib.has_rdma and not gige.has_rdma and not tengige.has_rdma
        assert ib.wire_latency_us < tengige.wire_latency_us \
            < gige.wire_latency_us
        assert gige.bandwidth_bpus < ib.bandwidth_bpus
        # socket CPU tax exists on every preset
        for p in (ib, gige, tengige):
            assert p.sock_cpu_us(1024) > p.sock_cpu_us(0) > 0

    def test_with_override(self):
        ib = NetworkParams.infiniband()
        fat = ib.with_(bandwidth_bpus=2000.0, name="ib-qdr")
        assert fat.bandwidth_bpus == 2000.0
        assert fat.name == "ib-qdr"
        assert fat.wire_latency_us == ib.wire_latency_us
        assert ib.bandwidth_bpus == 900.0  # original untouched

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkParams.infiniband().with_(bandwidth_bpus=0.0)
        with pytest.raises(ConfigError):
            NetworkParams.infiniband().with_(wire_latency_us=-1.0)

    def test_serialization_scales_linearly(self):
        ib = NetworkParams.infiniband()
        assert ib.serialization_us(9000) == pytest.approx(
            10 * ib.serialization_us(900))


class TestDeterminism:
    """Seeded simulations must replay bit-identically — the property
    every calibration claim in EXPERIMENTS.md relies on."""

    def test_cascade_experiment_replays_identically(self):
        a = cascade_latency(NCoSEDManager, 6, LockMode.SHARED, seed=3)
        b = cascade_latency(NCoSEDManager, 6, LockMode.SHARED, seed=3)
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
    def test_run_max_events_stops_early(self):
        from repro.sim import Environment
        env = Environment()
        fired = []

        def ticker(env):
            while True:
                yield env.timeout(1.0)
                fired.append(env.now)

        env.process(ticker(env))
        env.run(max_events=10)
        assert 0 < len(fired) < 10

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
