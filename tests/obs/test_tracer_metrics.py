"""Unit tests: tracer ring/subscriptions and the metrics registry."""

import math
import random

import pytest

from repro.sim import Environment
from repro.sim.trace import Tally, rank_of
from tests.obs.reference_hist import percentile
from repro.obs import LatencyHistogram, MetricsRegistry, Tracer
from repro.obs.events import TAXONOMY
from repro.obs.metrics import Counter


class TestTracer:
    def test_emit_records_time_node_fields(self):
        env = Environment()
        tr = Tracer(env)
        env.timeout(12.5)
        env.run()
        ev = tr.emit("verb.issue", node=3, op="read", dst=1, nbytes=64)
        assert ev.t == 12.5
        assert ev.node == 3
        assert ev.fields == {"op": "read", "dst": 1, "nbytes": 64}
        assert list(tr.ring) == [ev] and tr.emitted == 1

    def test_ring_drops_oldest_but_counts_all(self):
        tr = Tracer(Environment(), capacity=4)
        for i in range(10):
            tr.emit("msg.send", node=0, i=i)
        assert tr.emitted == 10
        assert len(tr.ring) == 4
        assert [ev.fields["i"] for ev in tr.ring] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(Environment(), capacity=0)

    def test_prefix_subscription(self):
        tr = Tracer(Environment())
        seen = []
        tr.subscribe(seen.append, prefix="lock.")
        tr.emit("lock.grant", node=0)
        tr.emit("msg.send", node=0)
        tr.emit("lock.word", node=1)
        assert [ev.etype for ev in seen] == ["lock.grant", "lock.word"]

    def test_empty_prefix_sees_everything(self):
        tr = Tracer(Environment())
        seen = []
        tr.subscribe(seen.append)
        for etype in ("verb.issue", "cache.miss", "fault.crash"):
            tr.emit(etype, node=0)
        assert len(seen) == 3

    def test_subscription_change_after_routing_applies_next_emit(self):
        """A route is cached per etype on its first emit; a later
        subscribe must still reach that etype."""
        tr = Tracer(Environment())
        early, late = [], []
        tr.subscribe(early.append, prefix="lock.")
        tr.emit("lock.grant", node=0)           # routes lock.grant
        tr.subscribe(late.append, prefix="lock.gr")
        tr.emit("lock.grant", node=1)
        assert [ev.node for ev in early] == [0, 1]
        assert [ev.node for ev in late] == [1]

    def test_subscriber_added_in_callback_sees_next_emit(self):
        tr = Tracer(Environment())
        seen = []

        def first(ev):
            if not seen:
                tr.subscribe(seen.append, prefix="lock.")

        tr.subscribe(first, prefix="lock.")
        tr.emit("lock.grant", node=0)
        assert seen == []                      # not the event in delivery
        tr.emit("lock.grant", node=1)
        assert [ev.node for ev in seen] == [1]

    def test_select_filters_by_prefix_and_node(self):
        tr = Tracer(Environment())
        tr.emit("cache.hit.local", node=1, doc=7)
        tr.emit("cache.hit.remote", node=2, doc=7)
        tr.emit("cache.miss", node=1, doc=8)
        assert len(tr.select("cache.hit.")) == 2
        assert len(tr.select("cache.", node=1)) == 2
        assert tr.select("cache.miss")[0].fields["doc"] == 8


class TestTaxonomy:
    def test_every_type_documents_its_fields(self):
        for etype, (fields, desc) in TAXONOMY.items():
            assert isinstance(fields, tuple)
            assert desc

    def test_prefixes_are_hierarchical(self):
        # every dotted type's first segment groups a subsystem
        roots = {e.split(".")[0] for e in TAXONOMY}
        assert roots == {"verb", "msg", "rpc", "lock", "flow", "cache",
                         "ddss", "reconfig", "fault", "detect", "ha",
                         "txn", "shard"}


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)


class TestLatencyHistogram:
    def test_rejects_negative_and_nan(self):
        h = LatencyHistogram("h")
        with pytest.raises(ValueError):
            h.observe(-1.0)
        with pytest.raises(ValueError):
            h.observe(float("nan"))

    def test_rejects_infinity(self):
        """``frexp(inf)`` has exponent 0: an accepted infinity reported
        p50 = p99 = 1.0 next to max = inf."""
        h = LatencyHistogram("nic.read_us")
        h.observe(3.0)
        with pytest.raises(ValueError, match="'nic.read_us'"):
            h.observe(math.inf)
        assert h.to_dict()["max_us"] == 3.0

    def test_fold_refuses_an_appended_non_finite_sample(self):
        for bad in (math.nan, math.inf):
            h = LatencyHistogram("h")
            h.samples.extend([1.0, bad])
            with pytest.raises(ValueError, match="'h'"):
                h.to_dict()

    def test_zero_gets_its_own_bucket(self):
        h = LatencyHistogram("h")
        for _ in range(3):
            h.observe(0.0)
        h.observe(5.0)
        assert h.count == 4 and h._zeros == 3  # the read folded
        assert h.percentile(50) == 0.0

    def test_percentile_is_bucket_upper_bound(self):
        h = LatencyHistogram("h")
        h.observe(3.0)  # bucket (2, 4]
        assert h.percentile(50) == 4.0
        assert h.to_dict()["max_us"] == 3.0

    def test_same_rank_as_exact_percentile(self):
        """The histogram picks the same-ranked observation as the exact
        sorted-sample percentile; it only rounds it up to its bucket."""
        rng = random.Random(42)
        samples = [rng.uniform(0.1, 50_000.0) for _ in range(500)]
        h = LatencyHistogram("h")
        for s in samples:
            h.observe(s)
        for q in (0, 10, 50, 90, 95, 99, 100):
            exact = percentile(samples, q)
            assert h.percentile(q) == float(2.0 ** math.frexp(exact)[1])
            assert exact <= h.percentile(q) < 2 * exact

    def test_empty_export(self):
        d = LatencyHistogram("h").to_dict()
        assert d["count"] == 0
        assert d["p99_us"] is None and d["mean_us"] is None

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h").percentile(50)


class TestRankOf:
    def test_nearest_rank_rule(self):
        assert rank_of(0, 10) == 0
        assert rank_of(50, 10) == 4
        assert rank_of(100, 10) == 9
        assert rank_of(99, 1000) == 989

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rank_of(101, 5)
        with pytest.raises(ValueError):
            rank_of(-1, 5)
        with pytest.raises(ValueError):
            rank_of(50, 0)


class TestTallyBoundary:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Tally().extend([float("nan")])
        with pytest.raises(ValueError):
            percentile([1.0, float("nan")], 50)

    @pytest.mark.parametrize("v", [math.inf, -math.inf])
    def test_infinity_rejected(self, v):
        """Two accepted ``+inf`` adds made the mean NaN."""
        t = Tally("wait")
        t.extend([1.0])
        with pytest.raises(ValueError, match="'wait'"):
            t.extend([v])
        with pytest.raises(ValueError, match="'wait'"):
            t.extend([2.0, v, 3.0])
        assert (t.count, t.mean, t.min, t.max) == (1, 1.0, 1.0, 1.0)


class TestMetricsRegistry:
    def test_scoped_and_unscoped_coexist(self):
        reg = MetricsRegistry(Environment())
        reg.counter("rpc.calls").inc(2)
        reg.counter("rpc.calls", node=3).inc()
        assert reg.counters["rpc.calls"].value == 2
        assert reg.counters["rpc.calls@n3"].value == 1

    def test_create_on_first_use_returns_same_object(self):
        reg = MetricsRegistry(Environment())
        assert reg.histogram("x") is reg.histogram("x")
        assert reg.counter("c", node=1) is reg.counter("c", node=1)
        assert reg.counter("c") is not reg.counter("c", node=1)

    def test_export_is_sorted_and_json_plain(self):
        reg = MetricsRegistry(Environment())
        reg.counter("z").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(3.0)
        d = reg.to_dict()
        assert list(d["counters"]) == ["a", "z"]
        assert d["histograms"]["h"]["count"] == 1
