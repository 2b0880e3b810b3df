"""Unit tests: tracer ring/subscriptions and the metrics registry."""

import math
import random

import pytest

from repro.sim import Environment
from repro.sim.trace import Tally, percentile, rank_of
from repro.obs import LatencyHistogram, MetricsRegistry, Tracer
from repro.obs.events import TAXONOMY
from repro.obs.metrics import Counter, Gauge


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
        assert len(tr) == 1 and tr.emitted == 1

    def test_ring_drops_oldest_but_counts_all(self):
        tr = Tracer(Environment(), capacity=4)
        for i in range(10):
            tr.emit("msg.send", node=0, i=i)
        assert tr.emitted == 10
        assert len(tr) == 4
        assert [ev.fields["i"] for ev in tr.ring] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(Environment(), capacity=0)

    def test_prefix_subscription_and_unsubscribe(self):
        tr = Tracer(Environment())
        seen = []
        tr.subscribe(seen.append, prefix="lock.")
        tr.emit("lock.grant", node=0)
        tr.emit("msg.send", node=0)
        tr.emit("lock.word", node=1)
        assert [ev.etype for ev in seen] == ["lock.grant", "lock.word"]
        tr.unsubscribe(seen.append)
        tr.emit("lock.release", node=0)
        assert len(seen) == 2

    def test_empty_prefix_sees_everything(self):
        tr = Tracer(Environment())
        seen = []
        tr.subscribe(seen.append)
        for etype in ("verb.issue", "cache.miss", "fault.crash"):
            tr.emit(etype, node=0)
        assert len(seen) == 3

    def test_subscription_change_after_routing_applies_next_emit(self):
        """A route is cached per etype on its first emit; a later
        subscribe or unsubscribe must still reach that etype."""
        tr = Tracer(Environment())
        early, late = [], []
        tr.subscribe(early.append, prefix="lock.")
        tr.emit("lock.grant", node=0)           # routes lock.grant
        tr.subscribe(late.append, prefix="lock.gr")
        tr.emit("lock.grant", node=1)
        tr.unsubscribe(early.append)
        tr.emit("lock.grant", node=2)
        assert [ev.node for ev in early] == [0, 1]
        assert [ev.node for ev in late] == [1, 2]

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

    def test_counts_sorted_by_type(self):
        tr = Tracer(Environment())
        tr.emit("msg.send", node=0)
        tr.emit("lock.grant", node=0)
        tr.emit("msg.send", node=0)
        assert tr.counts() == {"lock.grant": 1, "msg.send": 2}
        assert list(tr.counts()) == ["lock.grant", "msg.send"]


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
                         "txn", "topo", "shard"}


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_extremes(self):
        g = Gauge("queue")
        g.set(3.0)
        g.add(-5.0)
        g.set(10.0)
        assert g.value == 10.0
        assert g.min == -2.0 and g.max == 10.0

    def test_gauge_rejects_nan(self):
        with pytest.raises(ValueError):
            Gauge("g").set(float("nan"))

    def test_unset_gauge_exports_none_extremes(self):
        assert Gauge("g").to_dict() == {"value": 0.0, "min": None,
                                        "max": None}


class TestLatencyHistogram:
    def test_rejects_negative_and_nan(self):
        h = LatencyHistogram("h")
        with pytest.raises(ValueError):
            h.observe(-1.0)
        with pytest.raises(ValueError):
            h.observe(float("nan"))

    def test_zero_gets_its_own_bucket(self):
        h = LatencyHistogram("h")
        for _ in range(3):
            h.observe(0.0)
        h.observe(5.0)
        assert h.zeros == 3 and h.count == 4
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

    def test_merge_matches_single_stream(self):
        a, b, both = (LatencyHistogram(n) for n in "ab2")
        for i, v in enumerate([1.0, 3.0, 10.0, 200.0, 0.0, 7.5]):
            (a if i % 2 else b).observe(v)
            both.observe(v)
        a.merge(b)
        assert a.count == both.count
        da, db = a.to_dict(), both.to_dict()
        assert da["mean_us"] == pytest.approx(db["mean_us"])
        for k in ("count", "min_us", "max_us", "p50_us", "p95_us",
                  "p99_us"):
            assert da[k] == db[k]

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


class TestTallyMerge:
    def test_parallel_variance_matches_single_stream(self):
        rng = random.Random(7)
        xs = [rng.gauss(100.0, 25.0) for _ in range(400)]
        whole, left, right = Tally(), Tally(), Tally()
        for i, x in enumerate(xs):
            whole.add(x)
            (left if i < 150 else right).add(x)
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean)
        assert left.variance == pytest.approx(whole.variance)
        assert left.min == whole.min and left.max == whole.max

    def test_merge_empty_sides(self):
        t = Tally()
        t.add(2.0)
        t.merge(Tally())  # no-op
        assert t.count == 1 and t.mean == 2.0
        e = Tally()
        e.merge(t)
        assert e.count == 1 and e.mean == 2.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Tally().add(float("nan"))
        with pytest.raises(ValueError):
            percentile([1.0, float("nan")], 50)


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
        assert reg.gauge("g", node=1) is reg.gauge("g", node=1)
        assert reg.gauge("g") is not reg.gauge("g", node=1)

    def test_export_is_sorted_and_json_plain(self):
        reg = MetricsRegistry(Environment())
        reg.counter("z").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(3.0)
        d = reg.to_dict()
        assert list(d["counters"]) == ["a", "z"]
        assert d["histograms"]["h"]["count"] == 1
