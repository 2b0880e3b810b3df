"""Unit + property tests for registered memory and remote atomics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BoundsError, ConfigError, ProtectionError
from repro.net.memory import MemoryManager, RemoteKey

U64 = 1 << 64


@pytest.fixture
def mm():
    return MemoryManager(node_id=3)


class TestRegionBasics:
    def test_register_and_rw(self, mm):
        r = mm.register(128, name="buf")
        r.write(0, b"hello")
        assert r.read(0, 5) == b"hello"
        assert r.node_id == 3

    def test_regions_have_distinct_addrs_and_rkeys(self, mm):
        rs = [mm.register(64) for _ in range(10)]
        addrs = {r.addr for r in rs}
        rkeys = {r.rkey for r in rs}
        assert len(addrs) == 10
        assert len(rkeys) == 10

    def test_zero_length_rejected(self, mm):
        with pytest.raises(ConfigError):
            mm.register(0)

    def test_out_of_bounds_local_access(self, mm):
        r = mm.register(16)
        with pytest.raises(BoundsError):
            r.read(10, 10)
        with pytest.raises(BoundsError):
            r.write(-1, b"x")

    def test_u64_roundtrip_big_endian(self, mm):
        r = mm.register(16)
        r.write_u64(0, 0x0102030405060708)
        assert r.read(0, 8) == bytes([1, 2, 3, 4, 5, 6, 7, 8])
        assert r.read_u64(0) == 0x0102030405060708

    def test_u32_roundtrip(self, mm):
        r = mm.register(8)
        r.write_u32(4, 0xDEADBEEF)
        assert r.read(4, 4) == bytes([0xDE, 0xAD, 0xBE, 0xEF])


class TestRemoteAccessPath:
    def test_rdma_read_write(self, mm):
        r = mm.register(64)
        mm.rdma_write(r.addr + 8, r.rkey, b"remote")
        assert mm.rdma_read(r.addr + 8, r.rkey, 6) == b"remote"
        assert r.read(8, 6) == b"remote"

    def test_wrong_rkey_rejected(self, mm):
        r = mm.register(64)
        with pytest.raises(ProtectionError):
            mm.rdma_read(r.addr, r.rkey ^ 1, 8)

    def test_unmapped_address_rejected(self, mm):
        with pytest.raises(ProtectionError):
            mm.rdma_read(0x5, 0, 8)

    def test_access_crossing_region_end_rejected(self, mm):
        r = mm.register(16)
        with pytest.raises(BoundsError):
            mm.rdma_read(r.addr + 12, r.rkey, 8)

    def test_deregistered_region_is_protected(self, mm):
        r = mm.register(64)
        mm.deregister(r)
        with pytest.raises(ProtectionError):
            mm.rdma_read(r.addr, r.rkey, 8)

    def test_access_via_interior_address(self, mm):
        r = mm.register(64)
        r.write(32, b"\xab")
        assert mm.rdma_read(r.addr + 32, r.rkey, 1) == b"\xab"


class TestAtomics:
    def test_cas_success(self, mm):
        r = mm.register(8)
        r.write_u64(0, 7)
        old = mm.cas64(r.addr, r.rkey, 7, 99)
        assert old == 7
        assert r.read_u64(0) == 99

    def test_cas_failure_leaves_memory(self, mm):
        r = mm.register(8)
        r.write_u64(0, 7)
        old = mm.cas64(r.addr, r.rkey, 6, 99)
        assert old == 7
        assert r.read_u64(0) == 7

    def test_faa_returns_old_and_adds(self, mm):
        r = mm.register(8)
        r.write_u64(0, 10)
        assert mm.faa64(r.addr, r.rkey, 5) == 10
        assert r.read_u64(0) == 15

    def test_faa_wraps_at_64_bits(self, mm):
        r = mm.register(8)
        r.write_u64(0, U64 - 1)
        assert mm.faa64(r.addr, r.rkey, 2) == U64 - 1
        assert r.read_u64(0) == 1

    @given(initial=st.integers(0, U64 - 1), adds=st.lists(
        st.integers(0, 2**32), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_faa_sequence_sums_mod_2_64(self, initial, adds):
        mm = MemoryManager(0)
        r = mm.register(8)
        r.write_u64(0, initial)
        for a in adds:
            mm.faa64(r.addr, r.rkey, a)
        assert r.read_u64(0) == (initial + sum(adds)) % U64

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_cas_linearizes_like_reference(self, ops):
        """CAS against the region must match a pure-python reference."""
        mm = MemoryManager(0)
        r = mm.register(8)
        model = 0
        for compare, swap in ops:
            old = mm.cas64(r.addr, r.rkey, compare, swap)
            assert old == model
            if model == compare:
                model = swap
        assert r.read_u64(0) == model


class TestRemoteKey:
    def test_slice_bounds(self):
        key = RemoteKey(node=1, addr=0x100, rkey=5, length=64)
        sub = key.slice(16, 8)
        assert (sub.addr, sub.length) == (0x110, 8)
        with pytest.raises(BoundsError):
            key.slice(60, 8)
        with pytest.raises(BoundsError):
            key.slice(-1)

    def test_slice_default_length_to_end(self):
        key = RemoteKey(node=1, addr=0, rkey=5, length=64)
        assert key.slice(48).length == 16

    def test_region_remote_key_roundtrip(self):
        mm = MemoryManager(7)
        r = mm.register(32)
        key = r.remote_key()
        assert key == RemoteKey(7, r.addr, r.rkey, 32)
