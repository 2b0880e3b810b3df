"""Tests for cache-node retirement (reconfiguration support)."""

import pytest

from repro.errors import CacheError
from repro.net import Cluster
from repro.cache import ApacheCache, CacheWithoutRedundancy
from repro.workloads import FileSet


def build(n_proxies=3, n_docs=30, doc_bytes=1000, capacity=40_000):
    cluster = Cluster(n_nodes=n_proxies, seed=3)
    proxies = cluster.nodes[:n_proxies]
    fileset = FileSet(n_docs, doc_bytes, seed=3)
    scheme = CacheWithoutRedundancy(proxies, fileset, capacity)
    return cluster, proxies, scheme, fileset


def run(cluster, gen):
    p = cluster.env.process(gen)
    cluster.env.run_until_event(p)
    return p.value


def warm(scheme, proxy, docs):
    for doc in docs:
        source, _token = yield scheme.fetch(proxy, doc)
        if source == "miss":
            yield scheme.admit(proxy, doc)


class TestRetireNode:
    def victim_docs(self, scheme, proxies):
        victim = proxies[-1]
        return victim, [d for d in range(scheme.fileset.n_docs)
                        if scheme.directory.host_of(d).id == victim.id]

    def test_migrated_docs_survive(self):
        cluster, proxies, scheme, fileset = build()
        victim, vdocs = self.victim_docs(scheme, proxies)

        def app(env):
            yield from warm(scheme, proxies[0], range(30))
            yield from scheme.retire_node(victim, proxies[0],
                                          migrate=True)
            # every victim-homed doc is still served without a miss
            sources = []
            for doc in vdocs:
                source, _token = yield scheme.fetch(proxies[1], doc)
                sources.append(source)
            return sources

        sources = run(cluster, app(cluster.env))
        assert all(s in ("local", "remote") for s in sources)

    def test_blind_retirement_loses_docs(self):
        cluster, proxies, scheme, fileset = build()
        victim, vdocs = self.victim_docs(scheme, proxies)

        def app(env):
            yield from warm(scheme, proxies[0], range(30))
            yield from scheme.retire_node(victim, proxies[0],
                                          migrate=False)
            sources = []
            for doc in vdocs:
                source, _token = yield scheme.fetch(proxies[1], doc)
                sources.append(source)
            return sources

        sources = run(cluster, app(cluster.env))
        assert all(s == "miss" for s in sources)

    def test_retired_store_is_empty_and_unused(self):
        cluster, proxies, scheme, fileset = build()
        victim, vdocs = self.victim_docs(scheme, proxies)

        def app(env):
            yield from warm(scheme, proxies[0], range(30))
            yield from scheme.retire_node(victim, proxies[0],
                                          migrate=True)
            # new admissions for victim-homed docs land on the delegate
            doc = vdocs[0]
            scheme.stores[proxies[0].id].remove(doc)
            yield from scheme.directory.update(proxies[0], doc, None, 0)
            yield scheme.fetch(proxies[1], doc)   # miss
            yield scheme.admit(proxies[1], doc)
            return (len(scheme.stores[victim.id]._entries),
                    doc in scheme.stores[proxies[0].id])

        victim_len, on_delegate = run(cluster, app(cluster.env))
        assert victim_len == 0
        assert on_delegate is True

    def test_host_of_follows_delegation(self):
        cluster, proxies, scheme, fileset = build()
        victim, vdocs = self.victim_docs(scheme, proxies)

        def app(env):
            yield from scheme.retire_node(victim, proxies[1],
                                          migrate=False)

        run(cluster, app(cluster.env))
        for doc in vdocs:
            assert scheme.directory.host_of(doc) is proxies[1]

    def test_self_delegation_rejected(self):
        cluster, proxies, scheme, fileset = build()
        with pytest.raises(CacheError):
            scheme.directory.retire_shard(proxies[0].id, proxies[0])

    def test_retire_without_directory_rejected(self):
        cluster = Cluster(n_nodes=2, seed=0)
        fs = FileSet(5, 100)
        ac = ApacheCache(cluster.nodes[:2], fs, 1000)

        def app(env):
            yield from ac.retire_node(cluster.nodes[0],
                                      cluster.nodes[1])

        with pytest.raises(CacheError):
            run(cluster, app(cluster.env))

    def test_unknown_victim_rejected(self):
        cluster, proxies, scheme, fileset = build(n_proxies=2)
        other = Cluster(n_nodes=1, seed=9).nodes[0]

        def app(env):
            yield from scheme.retire_node(other, proxies[0])

        with pytest.raises(CacheError):
            run(cluster, app(cluster.env))
