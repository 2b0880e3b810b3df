"""Unit + property tests for the segment allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.ddss.allocator import SegmentAllocator


def check_invariants(a):
    """Structural invariants of ``a``: blocks never overlap or pass the
    segment end, and the free list is sorted and fully coalesced."""
    blocks = sorted(a._free) + sorted(a._live.items())
    blocks.sort()
    pos = 0
    for offset, length in blocks:
        assert offset >= pos, "overlapping blocks"
        pos = offset + length
    assert pos <= a.capacity, "block past segment end"
    free_sorted = sorted(a._free)
    assert free_sorted == a._free, "free list not sorted"
    for (o1, l1), (o2, _l2) in zip(free_sorted, free_sorted[1:]):
        assert o1 + l1 < o2, "uncoalesced adjacent free blocks"


class TestBasics:
    def test_alloc_free_roundtrip(self):
        a = SegmentAllocator(1024)
        off = a.alloc(100)
        assert a.capacity - a.free_bytes == 104  # aligned to 8
        a.free(off)
        assert a.capacity - a.free_bytes == 0
        assert a.free_bytes == 1024

    def test_distinct_offsets(self):
        a = SegmentAllocator(1024)
        offs = [a.alloc(64) for _ in range(8)]
        assert len(set(offs)) == 8

    def test_alignment(self):
        a = SegmentAllocator(1024)
        a.alloc(1)
        off2 = a.alloc(1)
        assert off2 % 8 == 0

    def test_exhaustion_raises(self):
        a = SegmentAllocator(256)
        a.alloc(200)
        with pytest.raises(AllocationError):
            a.alloc(100)

    def test_exact_fit(self):
        a = SegmentAllocator(256)
        off = a.alloc(256)
        assert off == 0
        assert a.free_bytes == 0
        a.free(off)
        assert a.free_bytes == 256

    def test_double_free_rejected(self):
        a = SegmentAllocator(256)
        off = a.alloc(8)
        a.free(off)
        with pytest.raises(AllocationError):
            a.free(off)

    def test_free_unknown_offset_rejected(self):
        a = SegmentAllocator(256)
        with pytest.raises(AllocationError):
            a.free(128)

    def test_zero_size_rejected(self):
        a = SegmentAllocator(256)
        with pytest.raises(AllocationError):
            a.alloc(0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(AllocationError):
            SegmentAllocator(0)

    def test_coalescing_recovers_large_block(self):
        a = SegmentAllocator(312)  # 3 x 104 (100 rounded up to 8)
        offs = [a.alloc(100) for _ in range(3)]
        # free in an order that exercises both merge directions
        a.free(offs[0])
        a.free(offs[2])
        a.free(offs[1])
        assert a.largest_free_block() == 312
        check_invariants(a)

    def test_reuse_after_free(self):
        a = SegmentAllocator(128)
        off1 = a.alloc(64)
        a.alloc(64)
        a.free(off1)
        off3 = a.alloc(64)
        assert off3 == off1


@st.composite
def alloc_free_trace(draw):
    """A random interleaving of allocs and frees."""
    n = draw(st.integers(2, 40))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(1, 300))))
        else:
            ops.append(("free", draw(st.integers(0, 30))))
    return ops


class TestProperties:
    @given(alloc_free_trace())
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_under_random_traces(self, ops):
        a = SegmentAllocator(2048)
        live = []
        for op, arg in ops:
            if op == "alloc":
                try:
                    off = a.alloc(arg)
                    live.append(off)
                except AllocationError:
                    pass
            elif live:
                idx = arg % len(live)
                a.free(live.pop(idx))
            check_invariants(a)
        # books must balance
        assert sum(a._live.values()) + a.free_bytes == 2048
        assert len(a._live) == len(live)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_free_all_restores_empty_segment(self, sizes):
        a = SegmentAllocator(4096)
        offs = []
        for s in sizes:
            offs.append(a.alloc(s))
        for off in offs:
            a.free(off)
        assert a.free_bytes == 4096
        assert a.largest_free_block() == 4096
        check_invariants(a)

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
