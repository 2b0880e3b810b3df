"""Tests for the cache directory and the five cooperative schemes."""

import pytest

from repro.errors import CacheError
from repro.net import Cluster
from repro.cache import (
    ApacheCache,
    BasicCooperativeCache,
    CacheDirectory,
    CacheWithoutRedundancy,
    HybridCache,
    MultiTierAggregateCache,
    SCHEMES,
)
from repro.workloads import FileSet


def build(scheme_cls, n_proxies=3, n_extra=0, n_docs=40, doc_bytes=1000,
          capacity=4000, **kw):
    cluster = Cluster(n_nodes=n_proxies + n_extra + 1, seed=2)
    proxies = cluster.nodes[:n_proxies]
    extra = cluster.nodes[n_proxies:n_proxies + n_extra]
    fileset = FileSet(n_docs, doc_bytes, seed=2)
    scheme = scheme_cls(proxies, fileset, capacity, extra_nodes=extra, **kw)
    return cluster, proxies, scheme, fileset


def run(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p)
    return p.value


def fetch_or_admit(scheme, proxy, doc):
    """The standard server-side driving pattern."""
    source, token = yield scheme.fetch(proxy, doc)
    if source == "miss":
        yield scheme.admit(proxy, doc)
        source, token = yield scheme.fetch(proxy, doc)
    return source, token


class TestDirectory:
    def test_lookup_empty(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)
        d = scheme.directory

        def app(env):
            holder, size = yield from d.lookup(proxies[0], 7)
            return holder, size

        assert run(cluster, app(cluster.env)) == (None, 0)

    def test_update_then_lookup_across_nodes(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)
        d = scheme.directory

        def app(env):
            yield from d.update(proxies[0], 7, proxies[2].id, 512)
            holder, size = yield from d.lookup(proxies[1], 7)
            return holder, size

        assert run(cluster, app(cluster.env)) == (proxies[2].id, 512)

    def test_clear_if_holder_respects_newer_update(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)
        d = scheme.directory

        def app(env):
            yield from d.update(proxies[0], 3, proxies[0].id, 100)
            yield from d.update(proxies[0], 3, proxies[1].id, 100)
            cleared = yield from d.clear_if_holder(proxies[0], 3,
                                                   proxies[0].id)
            holder, _ = yield from d.lookup(proxies[0], 3)
            return cleared, holder

        cleared, holder = run(cluster, app(cluster.env))
        assert cleared is False
        assert holder == proxies[1].id

    def test_remote_lookup_counted(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)
        d = scheme.directory
        doc = next(i for i in range(40)
                   if d.host_of(i).id != proxies[0].id)

        def app(env):
            yield from d.lookup(proxies[0], doc)

        run(cluster, app(cluster.env))
        assert d.remote_lookups == 1

    def test_out_of_range_doc(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)
        with pytest.raises(CacheError):
            scheme.directory.host_of(999)


@pytest.mark.parametrize("scheme_cls", list(SCHEMES.values()))
class TestAllSchemes:
    def test_served_token_is_correct(self, scheme_cls):
        cluster, proxies, scheme, fileset = build(scheme_cls)

        def app(env):
            tokens = []
            for doc in (0, 1, 2, 0, 1):
                _source, token = yield from fetch_or_admit(
                    scheme, proxies[0], doc)
                tokens.append((doc, token))
            return tokens

        for doc, token in run(cluster, app(cluster.env)):
            assert fileset.verify(doc, token), f"wrong content for {doc}"

    def test_repeat_access_becomes_hit(self, scheme_cls):
        cluster, proxies, scheme, _ = build(scheme_cls)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 5)
            source, _token = yield scheme.fetch(proxies[0], 5)
            return source

        assert run(cluster, app(cluster.env)) in ("local", "remote")

    def test_miss_on_cold_cache(self, scheme_cls):
        cluster, proxies, scheme, _ = build(scheme_cls)

        def app(env):
            source, _token = yield scheme.fetch(proxies[0], 9)
            return source

        assert run(cluster, app(cluster.env)) == "miss"

    def test_out_of_range_doc_rejected(self, scheme_cls):
        cluster, proxies, scheme, _ = build(scheme_cls)

        def app(env):
            try:
                yield scheme.fetch(proxies[0], 999)
            except CacheError:
                return "rejected"

        assert run(cluster, app(cluster.env)) == "rejected"


class TestApacheCache:
    def test_no_cooperation(self):
        """A doc cached on proxy 0 is a miss on proxy 1."""
        cluster, proxies, scheme, _ = build(ApacheCache)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 3)
            source, _token = yield scheme.fetch(proxies[1], 3)
            return source

        assert run(cluster, app(cluster.env)) == "miss"


class TestBCC:
    def test_peer_fetch_and_duplication(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 3)
            source, _token = yield scheme.fetch(proxies[1], 3)
            # after the remote hit, proxy 1 holds its own copy
            local_after = 3 in scheme.stores[proxies[1].id]
            return source, local_after

        source, local_after = run(cluster, app(cluster.env))
        assert source == "remote"
        assert local_after is True
        assert scheme.remote_hits == 1

    def test_stale_directory_probe_falls_back_to_miss(self):
        cluster, proxies, scheme, _ = build(BasicCooperativeCache)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 3)
            # evict behind the directory's back
            scheme.stores[proxies[0].id].remove(3)
            source, _token = yield scheme.fetch(proxies[1], 3)
            return source

        assert run(cluster, app(cluster.env)) == "miss"
        assert scheme.stale_probes == 1

    def test_eviction_clears_directory(self):
        cluster, proxies, scheme, _ = build(
            BasicCooperativeCache, n_docs=10, doc_bytes=1000, capacity=2000)

        def app(env):
            # fill proxy 0 beyond capacity: doc 0 gets evicted
            for doc in (0, 1, 2):
                yield from fetch_or_admit(scheme, proxies[0], doc)
            # the holder word, read in zero time: 0 names no holder
            _home, region, off = scheme.directory._slot(0)
            return int.from_bytes(region.read(off, 4), "big")

        assert run(cluster, app(cluster.env)) == 0


class TestCCWR:
    def test_single_copy_cluster_wide(self):
        cluster, proxies, scheme, _ = build(CacheWithoutRedundancy)

        def app(env):
            for proxy in proxies:
                yield from fetch_or_admit(scheme, proxy, 4)
            copies = sum(4 in s for s in scheme.stores.values())
            return copies

        assert run(cluster, app(cluster.env)) == 1

    def test_copy_lives_at_home(self):
        cluster, proxies, scheme, _ = build(CacheWithoutRedundancy)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 4)
            home = scheme.directory.host_of(4)
            return 4 in scheme.stores[home.id]

        assert run(cluster, app(cluster.env)) is True

    def test_aggregate_capacity_exceeds_single_node(self):
        """With 3 proxies, CCWR holds ~3x what one AC node can."""
        n_docs, doc_bytes, capacity = 12, 1000, 4000
        cluster, proxies, ccwr, _ = build(
            CacheWithoutRedundancy, n_docs=n_docs, doc_bytes=doc_bytes,
            capacity=capacity)

        def app(env):
            for doc in range(n_docs):
                yield from fetch_or_admit(ccwr, proxies[0], doc)
            return ccwr.unique_docs_cached

        assert run(cluster, app(cluster.env)) == n_docs  # 12k < 3x4k


class TestMTACC:
    def test_extra_nodes_contribute_capacity(self):
        _, _, ccwr, _ = build(CacheWithoutRedundancy, n_proxies=2)
        _, _, mtacc, _ = build(MultiTierAggregateCache, n_proxies=2,
                               n_extra=2)
        assert len(mtacc.stores) == len(ccwr.stores) + 2

    def test_documents_land_on_app_tier(self):
        cluster, proxies, scheme, _ = build(MultiTierAggregateCache,
                                            n_proxies=2, n_extra=2,
                                            n_docs=40)

        def app(env):
            for doc in range(8):
                yield from fetch_or_admit(scheme, proxies[0], doc)
            extra_ids = {n.id for n in scheme.extra}
            on_extra = sum(len(scheme.stores[i]._entries) for i in extra_ids)
            return on_extra

        assert run(cluster, app(cluster.env)) > 0


class TestHYBCC:
    def test_small_docs_duplicate_large_do_not(self):
        fileset_kw = dict(n_proxies=3, n_docs=20)
        cluster = Cluster(n_nodes=4, seed=2)
        proxies = cluster.nodes[:3]
        fs = FileSet(20, [1000] * 10 + [30_000] * 10, seed=2)
        scheme = HybridCache(proxies, fs, 64_000, threshold=16_384)

        def app(env):
            # access a small doc from two proxies
            yield from fetch_or_admit(scheme, proxies[0], 0)
            yield from fetch_or_admit(scheme, proxies[1], 0)
            small_copies = sum(0 in s for s in scheme.stores.values())
            # access a large doc from two proxies
            yield from fetch_or_admit(scheme, proxies[0], 15)
            yield from fetch_or_admit(scheme, proxies[1], 15)
            large_copies = sum(15 in s for s in scheme.stores.values())
            return small_copies, large_copies

        small, large = run(cluster, app(cluster.env))
        assert small == 2   # duplicated
        assert large == 1   # single copy


class TestSchemeHitAccounting:
    def test_hit_ratio(self):
        cluster, proxies, scheme, _ = build(ApacheCache)

        def app(env):
            yield from fetch_or_admit(scheme, proxies[0], 1)
            yield scheme.fetch(proxies[0], 1)
            yield scheme.fetch(proxies[0], 2)  # miss, not admitted

        run(cluster, app(cluster.env))
        # 2 hits (after-admit fetch + repeat), 2 misses (cold + doc 2)
        assert scheme.local_hits == 2
        assert scheme.misses == 2
        assert scheme.hit_ratio() == pytest.approx(0.5)
