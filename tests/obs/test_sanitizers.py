"""Each sanitizer: one silent-on-clean and one fires-on-violation test.

The unit tests drive sanitizers with synthetic event streams through a
bare :class:`Tracer` (full control over the exact violating event); the
integration tests at the bottom corrupt real protocol state and assert
the attached sanitizer catches it.
"""

import pytest

from repro.errors import SanitizerError
from repro.sim import Environment
from repro.obs import (
    CacheAccountingSanitizer,
    FlowControlSanitizer,
    LockWordSanitizer,
    Observability,
    RpcAtMostOnceSanitizer,
    SingleOwnerSanitizer,
    Tracer,
)
from repro.dlm.ft import pack


def make(san_cls, strict=True):
    tr = Tracer(Environment())
    san = san_cls(strict=strict).attach(tr)
    return tr, san


class TestFlowControlSanitizer:
    def test_silent_on_balanced_credits(self):
        tr, san = make(FlowControlSanitizer)
        for _ in range(4):
            tr.emit("flow.credit.take", node=0, sender=0, capacity=4)
        tr.emit("flow.credit.return", node=0, sender=0, n=4)
        tr.emit("flow.credit.take", node=0, sender=0, capacity=4)
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=512,
                pool=1024)
        tr.emit("flow.ring.free", node=0, sender=0, nbytes=512)
        assert san.clean

    def test_fires_on_credit_overdraft(self):
        tr, san = make(FlowControlSanitizer)
        tr.emit("flow.credit.take", node=0, sender=0, capacity=1)
        with pytest.raises(SanitizerError, match="exceeds"):
            tr.emit("flow.credit.take", node=0, sender=0, capacity=1)

    def test_fires_on_minted_credits(self):
        tr, san = make(FlowControlSanitizer, strict=False)
        tr.emit("flow.credit.return", node=0, sender=1, n=1)
        assert not san.clean
        assert "< 0" in san.violations[0]["msg"]

    def test_fires_on_ring_overflow(self):
        tr, san = make(FlowControlSanitizer, strict=False)
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=600,
                pool=1024)
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=600,
                pool=1024)
        assert len(san.violations) == 1


class TestLockWordSanitizer:
    MGR = "ncosed-1"

    def announce(self, tr, *tokens):
        for tk in tokens:
            tr.emit("lock.request", node=0, mgr=self.MGR, lock=0,
                    token=tk, mode="EXCLUSIVE")

    def test_silent_on_clean_protocol(self):
        tr, san = make(LockWordSanitizer)
        self.announce(tr, 1, 2)
        tr.emit("lock.word", node=0, mgr=self.MGR, lock=0,
                word=pack(0, 1, 0))
        tr.emit("lock.grant", node=0, mgr=self.MGR, lock=0, token=1,
                mode="EXCLUSIVE")
        tr.emit("lock.release", node=0, mgr=self.MGR, lock=0, token=1)
        tr.emit("lock.grant", node=0, mgr=self.MGR, lock=0, token=2,
                mode="SHARED")
        assert san.clean

    def test_fires_on_unannounced_tail(self):
        tr, san = make(LockWordSanitizer)
        self.announce(tr, 1)
        with pytest.raises(SanitizerError, match="never announced"):
            tr.emit("lock.word", node=0, mgr=self.MGR, lock=0,
                    word=pack(0, 99, 0))

    def test_fires_on_count_above_population(self):
        tr, san = make(LockWordSanitizer, strict=False)
        self.announce(tr, 1, 2)
        tr.emit("lock.word", node=0, mgr=self.MGR, lock=0,
                word=pack(0, 0, 3))
        assert "exceeds client population" in san.violations[0]["msg"]

    def test_epoch_advances_by_one(self):
        tr, san = make(LockWordSanitizer)
        tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                old_ep=0, new_ep=1)
        tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                old_ep=1, new_ep=2)
        assert san.clean
        with pytest.raises(SanitizerError, match="epoch jump"):
            tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                    old_ep=2, new_ep=5)

    def test_epoch_wraps_mod_2_16(self):
        tr, san = make(LockWordSanitizer)
        tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                old_ep=0xFFFF, new_ep=0)
        assert san.clean

    def test_stale_epoch_tolerated_future_flagged(self):
        tr, san = make(LockWordSanitizer, strict=False)
        self.announce(tr, 1)
        tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                old_ep=0, new_ep=1)
        tr.emit("lock.reclaim", node=0, mgr=self.MGR, lock=0,
                old_ep=1, new_ep=2)
        # a delayed response may surface epoch 1 after the home reached 2
        tr.emit("lock.word", node=0, mgr=self.MGR, lock=0,
                word=pack(1, 0, 1))
        assert san.clean
        # ...but epoch 3 has not been opened by any reclaim
        tr.emit("lock.word", node=0, mgr=self.MGR, lock=0,
                word=pack(3, 0, 1))
        assert "future epoch" in san.violations[0]["msg"]

    def test_fires_on_double_exclusive_grant(self):
        tr, san = make(LockWordSanitizer, strict=False)
        self.announce(tr, 1, 2)
        tr.emit("lock.grant", node=0, mgr=self.MGR, lock=0, token=1,
                mode="EXCLUSIVE")
        tr.emit("lock.grant", node=0, mgr=self.MGR, lock=0, token=2,
                mode="EXCLUSIVE")
        assert "exclusive grant" in san.violations[0]["msg"]

    def test_fires_on_release_without_grant(self):
        tr, san = make(LockWordSanitizer, strict=False)
        tr.emit("lock.release", node=0, mgr=self.MGR, lock=0, token=9)
        assert "never had" in san.violations[0]["msg"]


class TestRpcAtMostOnceSanitizer:
    def test_silent_on_distinct_rids_and_servers(self):
        tr, san = make(RpcAtMostOnceSanitizer)
        tr.emit("rpc.execute", node=0, rid=1, server="0:9")
        tr.emit("rpc.execute", node=0, rid=2, server="0:9")
        tr.emit("rpc.execute", node=1, rid=1, server="1:9")
        tr.emit("rpc.dup_request", node=0, rid=1, server="0:9")  # replay ok
        assert san.clean

    def test_plain_calls_exempt(self):
        tr, san = make(RpcAtMostOnceSanitizer)
        tr.emit("rpc.execute", node=0, rid=None, server="0:9")
        tr.emit("rpc.execute", node=0, rid=None, server="0:9")
        assert san.clean

    def test_fires_on_reexecution(self):
        tr, san = make(RpcAtMostOnceSanitizer)
        tr.emit("rpc.execute", node=0, rid=7, server="0:9")
        with pytest.raises(SanitizerError, match="more than once"):
            tr.emit("rpc.execute", node=0, rid=7, server="0:9")


class TestSingleOwnerSanitizer:
    def test_silent_on_handoff(self):
        tr, san = make(SingleOwnerSanitizer)
        for token in (0x10, 0x20):
            tr.emit("ddss.lock.acquire", node=1, home=0, addr=64,
                    token=token)
            tr.emit("ddss.lock.release", node=1, home=0, addr=64,
                    token=token)
        assert san.clean

    def test_distinct_units_independent(self):
        tr, san = make(SingleOwnerSanitizer)
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        tr.emit("ddss.lock.acquire", node=2, home=0, addr=128, token=2)
        assert san.clean

    def test_fires_on_second_owner(self):
        tr, san = make(SingleOwnerSanitizer)
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        with pytest.raises(SanitizerError, match="already owned"):
            tr.emit("ddss.lock.acquire", node=2, home=0, addr=64, token=2)

    def test_fires_on_foreign_release(self):
        tr, san = make(SingleOwnerSanitizer, strict=False)
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        tr.emit("ddss.lock.release", node=2, home=0, addr=64, token=2)
        assert "owned by" in san.violations[0]["msg"]


class TestCacheAccountingSanitizer:
    def test_silent_on_consistent_store(self):
        tr, san = make(CacheAccountingSanitizer)
        tr.emit("cache.admit", node=0, doc=1, size=100, used=100,
                capacity=256)
        tr.emit("cache.admit", node=0, doc=2, size=100, used=200,
                capacity=256)
        tr.emit("cache.evict", node=0, doc=1, size=100)
        tr.emit("cache.admit", node=0, doc=3, size=150, used=250,
                capacity=256)
        assert san.clean

    def test_fires_on_phantom_eviction(self):
        tr, san = make(CacheAccountingSanitizer)
        with pytest.raises(SanitizerError, match="never admitted"):
            tr.emit("cache.evict", node=0, doc=42, size=10)

    def test_fires_on_used_mismatch(self):
        tr, san = make(CacheAccountingSanitizer, strict=False)
        tr.emit("cache.admit", node=0, doc=1, size=100, used=150,
                capacity=256)
        assert "admitted documents total" in san.violations[0]["msg"]

    def test_fires_on_capacity_overflow(self):
        tr, san = make(CacheAccountingSanitizer, strict=False)
        tr.emit("cache.admit", node=0, doc=1, size=300, used=300,
                capacity=256)
        assert any("exceeds capacity" in v["msg"] for v in san.violations)


class TestObservabilityBundle:
    def test_install_uninstall(self):
        env = Environment()
        obs = Observability(env).install()
        assert env.obs is obs
        with pytest.raises(Exception):
            Observability(env).install()
        obs.uninstall()
        assert env.obs is None

    def test_violations_sorted_and_check_raises(self):
        env = Environment()
        obs = Observability(env, strict=False).install()
        obs.trace.emit("cache.evict", node=0, doc=1, size=8)
        obs.trace.emit("ddss.lock.release", node=0, home=0, addr=0,
                       token=5)
        assert not obs.clean
        vs = obs.violations()
        assert [v["sanitizer"] for v in vs] == ["cache-accounting",
                                               "single-owner"]
        with pytest.raises(SanitizerError, match="2 sanitizer"):
            obs.check()

    def test_no_sanitize_mode(self):
        env = Environment()
        obs = Observability(env, sanitize=False).install()
        obs.trace.emit("cache.evict", node=0, doc=1, size=8)
        assert obs.sanitizers == {} and obs.clean


class TestIntegrationCorruption:
    """Corrupt real protocol state; the attached sanitizer must notice."""

    def test_ddss_lock_word_smash_breaks_mutual_exclusion(self):
        """An errant RDMA write zeroes a held unit lock; the next CAS
        succeeds and two owners coexist — single-owner fires."""
        from repro.net import Cluster
        from repro.ddss import DDSS
        from repro.ddss.substrate import LOCK_OFF

        cluster = Cluster(n_nodes=4, seed=0)
        obs = cluster.observe(strict=False)
        ddss = DDSS(cluster, segment_bytes=64 * 1024)
        a = ddss.client(cluster.nodes[1])
        b = ddss.client(cluster.nodes[2])
        attacker = cluster.nodes[3]

        def script(env):
            key = yield a.allocate(64, placement=0)
            meta = yield from a._meta(key)
            yield a.acquire(key)
            # stray write wipes the lock word while A still owns it
            yield attacker.nic.rdma_write(
                meta.home, meta.addr + LOCK_OFF, meta.rkey,
                (0).to_bytes(8, "big"))
            yield b.acquire(key)

        p = cluster.env.process(script(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert not obs.clean
        assert obs.violations()[0]["sanitizer"] == "single-owner"

    def test_ncosed_word_corruption_detected(self):
        """A far-future epoch scribbled into a home's lock word trips
        the lock-word sanitizer at the next client observation."""
        from repro.net import Cluster
        from repro.dlm import LockMode, NCoSEDManager

        cluster = Cluster(n_nodes=4, seed=0)
        obs = cluster.observe(strict=False)
        manager = NCoSEDManager(cluster, n_locks=2, lease_us=500.0)
        client = manager.client(cluster.nodes[1])

        def script(env):
            yield client.acquire(0, LockMode.EXCLUSIVE)
            yield client.release(0)
            # scribble a word from an epoch no reclaim ever opened
            # (within the future half of the wrap window)
            home = manager.home_node(0)
            manager._words[home.id].write_u64(0, pack(1_000, 0, 0))
            yield client.acquire(0, LockMode.EXCLUSIVE)

        p = cluster.env.process(script(cluster.env))
        cluster.env.run_until_event(p, limit=1e9)
        assert any(v["sanitizer"] == "lockword"
                   and "future epoch" in v["msg"]
                   for v in obs.violations())
