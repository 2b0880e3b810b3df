"""Unit + property tests for the LRU store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheError
from repro.cache.store import LRUStore


def check_invariants(s):
    """``used`` is the sum of the resident sizes, within capacity."""
    assert s.used == sum(size for size, _ in s._entries.values())
    assert 0 <= s.used <= s.capacity


class TestBasics:
    def test_insert_get(self):
        s = LRUStore(1000)
        s.insert(1, 100, b"tok1")
        assert s.get(1) == (100, b"tok1")
        assert 1 in s
        assert list(s._entries) == [1]
        assert s.used == 100

    def test_get_missing_returns_none(self):
        s = LRUStore(100)
        assert s.get(9) is None

    def test_eviction_order_is_lru(self):
        s = LRUStore(300)
        for doc in (1, 2, 3):
            s.insert(doc, 100, b"t")
        s.get(1)  # promote 1; LRU is now 2
        evicted = s.insert(4, 100, b"t")
        assert [d for d, _ in evicted] == [2]
        assert 1 in s and 3 in s and 4 in s

    def test_peek_does_not_promote(self):
        s = LRUStore(200)
        s.insert(1, 100, b"t")
        s.insert(2, 100, b"t")
        s.peek(1)  # 1 stays LRU
        evicted = s.insert(3, 100, b"t")
        assert [d for d, _ in evicted] == [1]

    def test_multiple_evictions_for_large_insert(self):
        s = LRUStore(300)
        for doc in (1, 2, 3):
            s.insert(doc, 100, b"t")
        evicted = s.insert(4, 250, b"t")
        assert len(evicted) == 3
        assert s.docs() == (4,)

    def test_reinsert_updates_size(self):
        s = LRUStore(300)
        s.insert(1, 100, b"a")
        s.insert(1, 200, b"b")
        assert s.used == 200
        assert s.get(1) == (200, b"b")

    def test_remove(self):
        s = LRUStore(100)
        s.insert(1, 50, b"t")
        assert s.remove(1) is True
        assert s.remove(1) is False
        assert s.used == 0

    def test_doc_larger_than_capacity_rejected(self):
        s = LRUStore(100)
        with pytest.raises(CacheError):
            s.insert(1, 101, b"t")

    def test_bad_sizes_rejected(self):
        with pytest.raises(CacheError):
            LRUStore(0)
        s = LRUStore(10)
        with pytest.raises(CacheError):
            s.insert(1, 0, b"t")

    def test_stats_counters(self):
        s = LRUStore(100)
        s.insert(1, 60, b"t")
        s.insert(2, 60, b"t")
        assert s.insertions == 2
        assert s.evictions == 1


@st.composite
def store_trace(draw):
    ops = []
    for _ in range(draw(st.integers(1, 50))):
        doc = draw(st.integers(0, 15))
        if draw(st.booleans()):
            ops.append(("insert", doc, draw(st.integers(1, 400))))
        else:
            ops.append(("get", doc, 0))
    return ops


class TestProperties:
    @given(store_trace())
    @settings(max_examples=150, deadline=None)
    def test_invariants_under_random_traces(self, ops):
        s = LRUStore(1000)
        for op, doc, size in ops:
            if op == "insert":
                s.insert(doc, size, b"tok")
            else:
                s.get(doc)
            check_invariants(s)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 100)),
                    min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_used_never_exceeds_capacity(self, inserts):
        s = LRUStore(500)
        for doc, size in inserts:
            s.insert(doc, size, b"t")
            assert s.used <= 500

    @given(st.lists(st.integers(0, 5), min_size=7, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_recently_used_doc_survives(self, docs):
        """After inserting a working set larger than capacity, the most
        recently inserted doc is always present."""
        s = LRUStore(300)
        for doc in docs:
            s.insert(doc, 100, b"t")
            assert doc in s
