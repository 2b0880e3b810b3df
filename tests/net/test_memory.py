"""Unit + property tests for registered memory and remote atomics."""

import os
import sys
from pathlib import Path

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

    @pytest.mark.parametrize("length", [-1, -8, -2000])
    def test_negative_length_rejected(self, mm, length):
        """An HCA's lengths are unsigned: no negative slice of the region."""
        r = mm.register(4096)
        with pytest.raises(BoundsError):
            mm.rdma_read(r.addr + 2048, r.rkey, length)

    def test_access_via_interior_address(self, mm):
        r = mm.register(64)
        r.write(32, b"\xab")
        assert mm.rdma_read(r.addr + 32, r.rkey, 1) == b"\xab"


def resident_bytes() -> int:
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc; uses fork")
class TestBacking:
    """Regions are backed by demand-zero private mappings."""

    def test_region_is_resident_only_where_touched(self, mm):
        before = resident_bytes()
        r = mm.register(64 << 20, name="big")
        r.write_u64(0, 1)
        r.write_u64(r.length - 8, 2)
        # room for two 2 MiB huge pages where THP is ``always``
        assert resident_bytes() - before < 16 << 20
        assert r.read_u64(0) == 1 and r.read_u64(4096) == 0

    def test_forked_child_writes_its_own_copy(self, mm):
        r = mm.register(4096)
        pid = os.fork()
        if pid == 0:  # child: never returns into pytest
            code = 1
            try:
                r.write_u64(0, 0xFEED)
                code = 0 if r.read_u64(0) == 0xFEED else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert r.read_u64(0) == 0

    def test_small_regions_share_one_mapping(self, mm):
        """Regions under a page are carved from one arena mapping: each
        stays its own window (bounds, rkey, bytes), and addresses and
        rkeys come out as they did with a mapping per region."""
        small = [mm.register(n) for n in (8, 8, 24, 4095, 8)]
        page = mm.register(4096)
        assert len({id(r.buf) for r in small}) == 1
        assert page.buf is not small[0].buf and page.base == 0
        windows = sorted((r.base, r.base + r.length) for r in small)
        assert all(a[1] <= b[0] for a, b in zip(windows, windows[1:]))
        for i, r in enumerate(small):
            mm.rdma_write(r.addr + r.length - 8, r.rkey, bytes([i + 1]) * 8)
        for i, r in enumerate(small):
            assert r.read(r.length - 8, 8) == bytes([i + 1]) * 8
            assert r.read(0, r.length - 8) == bytes(r.length - 8)
        with pytest.raises(BoundsError):
            mm.cas64(small[0].addr + 4, small[0].rkey, 0, 1)
        fresh = MemoryManager(node_id=3)
        again = [fresh.register(n) for n in (8, 8, 24, 4095, 8, 4096)]
        assert [(r.addr, r.rkey) for r in again] \
            == [(r.addr, r.rkey) for r in small + [page]]

    def test_arena_overflow_opens_another_mapping(self, mm):
        words = [mm.register(8) for _ in range(256 * 512 + 1)]
        assert words[-2].buf is words[0].buf
        assert words[-1].buf is not words[0].buf and words[-1].base == 0

    def test_forked_child_writes_its_own_copy_of_a_word(self, mm):
        word = mm.register(8)
        pid = os.fork()
        if pid == 0:  # child: never returns into pytest
            code = 1
            try:
                mm.faa64(word.addr, word.rkey, 5)
                code = 0 if word.read_u64(0) == 5 else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert word.read_u64(0) == 0

    def test_unmappable_length_is_a_named_error(self, mm):
        with pytest.raises(ConfigError, match=(
                f"node 3 cannot map region 'huge' of {1 << 64} bytes")):
            mm.register(1 << 64, name="huge")

    @pytest.mark.skipif(
        Path("/proc/sys/vm/overcommit_memory").exists()
        and Path("/proc/sys/vm/overcommit_memory").read_text().strip()
        == "1", reason="the kernel maps any length (overcommit_memory=1)")
    def test_length_beyond_memory_is_a_named_error(self, mm):
        with pytest.raises(ConfigError, match=(
                f"node 3 cannot map region 'petabyte' of {1 << 50} bytes")):
            mm.register(1 << 50, name="petabyte")


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
    def test_region_remote_key_roundtrip(self):
        mm = MemoryManager(7)
        r = mm.register(32)
        key = r.remote_key()
        assert key == RemoteKey(7, r.addr, r.rkey, 32)
