"""Unit + property tests for the segment allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.ddss.allocator import SegmentAllocator


def check_invariants(a, blocks):
    """Structural invariants of ``a`` after it handed out ``blocks``
    (``(offset, size)`` in order): each block is 8-aligned and starts
    where the last one ended, none passes the segment end, and the free
    bytes are the rest of the segment."""
    pos = 0
    for offset, size in blocks:
        assert offset == pos and offset % 8 == 0, "not the next block"
        pos = offset + -(-size // 8) * 8
    assert pos <= a.capacity, "block past segment end"
    assert a.free_bytes == a.capacity - pos, "free bytes off the books"


class TestBasics:
    def test_distinct_offsets(self):
        a = SegmentAllocator(1024)
        offs = [a.alloc(64) for _ in range(8)]
        assert len(set(offs)) == 8

    def test_alignment(self):
        a = SegmentAllocator(1024)
        a.alloc(1)
        off2 = a.alloc(1)
        assert off2 % 8 == 0
        assert a.capacity - a.free_bytes == 16  # each rounded up to 8

    def test_exhaustion_raises(self):
        a = SegmentAllocator(256)
        a.alloc(200)
        with pytest.raises(AllocationError, match=r"104 bytes \(free=56\)"):
            a.alloc(100)
        assert a.free_bytes == 56  # a refused alloc takes nothing

    def test_exact_fit(self):
        a = SegmentAllocator(256)
        off = a.alloc(256)
        assert off == 0
        assert a.free_bytes == 0
        with pytest.raises(AllocationError):
            a.alloc(1)

    def test_zero_size_rejected(self):
        a = SegmentAllocator(256)
        with pytest.raises(AllocationError):
            a.alloc(0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(AllocationError):
            SegmentAllocator(0)


class TestProperties:
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_under_random_traces(self, sizes):
        a = SegmentAllocator(2048)
        blocks = []
        for size in sizes:
            free = a.free_bytes
            try:
                blocks.append((a.alloc(size), size))
            except AllocationError:
                # refused only when the aligned size does not fit
                assert -(-size // 8) * 8 > free == a.free_bytes
            check_invariants(a, blocks)

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        a = SegmentAllocator(8192)
        spans = []
        for s in sizes:
            off = a.alloc(s)
            for o, length in spans:
                assert off + s <= o or off >= o + length
            spans.append((off, s))
