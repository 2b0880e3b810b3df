"""Each check run live: one silent-on-clean and one fires-on-violation
test per invariant the online sanitizers used to hold, now held by the
oracle that replaces them.

The unit tests drive one oracle with synthetic event streams through a
bare :class:`Tracer` (full control over the exact violating event):
attached live (``tests/obs/live.py``) a violation raises
:class:`SanitizerError` at its emission, and replayed after the fact it
is listed.  The integration tests at the bottom corrupt real protocol
state and assert the run's judgement catches it.
"""

import pytest

from repro.errors import ConfigError
from repro.sim import Environment
from repro.obs import Observability, Tracer
from repro.dlm.ft import pack
from repro.verify import (CacheOracle, FlowOracle, LockOracle, RpcOracle,
                          SingleOwnerOracle, TraceView, replay_fresh)

from tests.obs.live import SanitizerError, attach, observe_live


def make(oracle_cls):
    """A bare tracer with one oracle attached live."""
    tr = Tracer(Environment())
    return tr, attach(oracle_cls(), tr)


def replayed(tr, oracle_cls):
    """The tracer's events judged after the fact (collect mode)."""
    return replay_fresh(TraceView(list(tr.ring)), [oracle_cls])[1]


class TestFlowControlSanitizer:
    def test_silent_on_balanced_credits(self):
        tr, oracle = make(FlowOracle)
        for _ in range(4):
            tr.emit("flow.credit.take", node=0, sender=0, capacity=4)
        tr.emit("flow.credit.return", node=0, sender=0, n=4)
        tr.emit("flow.credit.take", node=0, sender=0, capacity=4)
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=512,
                pool=1024)
        tr.emit("flow.ring.free", node=0, sender=0, nbytes=512)
        assert not oracle.violations and oracle.checked == 8

    def test_fires_on_credit_overdraft(self):
        tr, _oracle = make(FlowOracle)
        tr.emit("flow.credit.take", node=0, sender=0, capacity=1)
        with pytest.raises(SanitizerError, match="exceeds"):
            tr.emit("flow.credit.take", node=0, sender=0, capacity=1)

    def test_fires_on_minted_credits(self):
        tr = Tracer(Environment())
        tr.emit("flow.credit.return", node=0, sender=1, n=1)
        found = replayed(tr, FlowOracle)
        assert found and "< 0" in found[0]["msg"]

    def test_fires_on_ring_overflow(self):
        tr = Tracer(Environment())
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=600,
                pool=1024)
        tr.emit("flow.ring.reserve", node=0, sender=0, nbytes=600,
                pool=1024)
        assert len(replayed(tr, FlowOracle)) == 1


class TestLockWordSanitizer:
    MGR = "ncosed-1"

    def emit(self, tr, etype, **fields):
        tr.emit(etype, node=0, mgr=self.MGR, lock=0, **fields)

    def announce(self, tr, *tokens, mode="EXCLUSIVE"):
        for tk in tokens:
            self.emit(tr, "lock.request", token=tk, mode=mode)

    def test_silent_on_clean_protocol(self):
        tr, oracle = make(LockOracle)
        self.announce(tr, 1)
        self.announce(tr, 2, mode="SHARED")
        self.emit(tr, "lock.enqueue", token=1, mode="EXCLUSIVE", prev=0)
        self.emit(tr, "lock.word", word=pack(0, 1, 0))
        self.emit(tr, "lock.grant", token=1, mode="EXCLUSIVE")
        self.emit(tr, "lock.enqueue", token=2, mode="SHARED", prev=1)
        self.emit(tr, "lock.release", token=1)
        self.emit(tr, "lock.grant", token=2, mode="SHARED")
        assert not oracle.violations and oracle.checked == 8

    def test_fires_on_unannounced_tail(self):
        tr, _oracle = make(LockOracle)
        self.announce(tr, 1)
        with pytest.raises(SanitizerError, match="not a known token"):
            self.emit(tr, "lock.word", word=pack(0, 99, 0))

    def test_fires_on_count_above_population(self):
        tr = Tracer(Environment())
        self.announce(tr, 1, 2)
        self.emit(tr, "lock.word", word=pack(0, 0, 3))
        found = replayed(tr, LockOracle)
        assert "shared count 3 exceeds" in found[0]["msg"]

    def test_epoch_advances_by_one(self):
        tr, oracle = make(LockOracle)
        self.emit(tr, "lock.reclaim", old_ep=0, new_ep=1)
        self.emit(tr, "lock.reclaim", old_ep=1, new_ep=2)
        assert not oracle.violations
        with pytest.raises(SanitizerError, match="skipped epochs"):
            self.emit(tr, "lock.reclaim", old_ep=2, new_ep=5)

    def test_epoch_wraps_mod_2_16(self):
        tr = Tracer(Environment(), capacity=3)
        oracle = attach(LockOracle(), tr)
        for ep in range(0x10000):
            self.emit(tr, "lock.reclaim", old_ep=ep,
                      new_ep=(ep + 1) & 0xFFFF)
        assert not oracle.violations
        self.emit(tr, "lock.word", word=pack(0, 0, 0))  # now current
        with pytest.raises(SanitizerError, match="future epoch 1 "):
            self.emit(tr, "lock.word", word=pack(1, 0, 0))

    def test_stale_epoch_tolerated_future_flagged(self):
        tr = Tracer(Environment())
        self.announce(tr, 1)
        self.emit(tr, "lock.reclaim", old_ep=0, new_ep=1)
        self.emit(tr, "lock.reclaim", old_ep=1, new_ep=2)
        # a delayed response may surface epoch 1 after the home reached 2
        self.emit(tr, "lock.word", word=pack(1, 0, 1))
        assert replayed(tr, LockOracle) == []
        # ...but epoch 3 has not been opened by any reclaim
        self.emit(tr, "lock.word", word=pack(3, 0, 1))
        assert "future epoch" in replayed(tr, LockOracle)[0]["msg"]

    def test_fires_on_double_exclusive_grant(self):
        tr = Tracer(Environment())
        self.announce(tr, 1, 2)
        self.emit(tr, "lock.grant", token=1, mode="EXCLUSIVE")
        self.emit(tr, "lock.grant", token=2, mode="EXCLUSIVE")
        assert any("exclusive grant to token 2 while held by [1]"
                   in v["msg"] for v in replayed(tr, LockOracle))

    def test_fires_on_release_without_grant(self):
        tr = Tracer(Environment())
        self.emit(tr, "lock.release", token=9)
        assert "non-holder token 9" in replayed(tr, LockOracle)[0]["msg"]


class TestRpcAtMostOnceSanitizer:
    def test_silent_on_distinct_rids_and_servers(self):
        tr, oracle = make(RpcOracle)
        tr.emit("rpc.execute", node=0, rid=1, server="0:9")
        tr.emit("rpc.execute", node=0, rid=2, server="0:9")
        tr.emit("rpc.execute", node=1, rid=1, server="1:9")
        tr.emit("rpc.dup_request", node=0, rid=1, server="0:9")  # replay ok
        assert not oracle.violations and oracle.checked == 3

    def test_plain_calls_exempt(self):
        tr, oracle = make(RpcOracle)
        tr.emit("rpc.execute", node=0, rid=None, server="0:9")
        tr.emit("rpc.execute", node=0, rid=None, server="0:9")
        assert not oracle.violations

    def test_fires_on_reexecution(self):
        tr, _oracle = make(RpcOracle)
        tr.emit("rpc.execute", node=0, rid=7, server="0:9")
        with pytest.raises(SanitizerError, match="more than once"):
            tr.emit("rpc.execute", node=0, rid=7, server="0:9")


class TestSingleOwnerSanitizer:
    def test_silent_on_handoff(self):
        tr, oracle = make(SingleOwnerOracle)
        for token in (0x10, 0x20):
            tr.emit("ddss.lock.acquire", node=1, home=0, addr=64,
                    token=token)
            tr.emit("ddss.lock.release", node=1, home=0, addr=64,
                    token=token)
        assert not oracle.violations and oracle.checked == 4

    def test_distinct_units_independent(self):
        tr, oracle = make(SingleOwnerOracle)
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        tr.emit("ddss.lock.acquire", node=2, home=0, addr=128, token=2)
        assert not oracle.violations

    def test_fires_on_second_owner(self):
        tr, _oracle = make(SingleOwnerOracle)
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        with pytest.raises(SanitizerError, match="already owned"):
            tr.emit("ddss.lock.acquire", node=2, home=0, addr=64, token=2)

    def test_fires_on_foreign_release(self):
        tr = Tracer(Environment())
        tr.emit("ddss.lock.acquire", node=1, home=0, addr=64, token=1)
        tr.emit("ddss.lock.release", node=2, home=0, addr=64, token=2)
        assert "owned by 1" in replayed(tr, SingleOwnerOracle)[0]["msg"]


class TestCacheAccountingSanitizer:
    def test_silent_on_consistent_store(self):
        tr, oracle = make(CacheOracle)
        tr.emit("cache.admit", node=0, doc=1, size=100, used=100,
                capacity=256)
        tr.emit("cache.admit", node=0, doc=2, size=100, used=200,
                capacity=256)
        tr.emit("cache.evict", node=0, doc=1, size=100)
        tr.emit("cache.admit", node=0, doc=3, size=150, used=250,
                capacity=256)
        assert not oracle.violations and oracle.checked == 4

    def test_fires_on_phantom_eviction(self):
        tr, _oracle = make(CacheOracle)
        with pytest.raises(SanitizerError, match="not resident"):
            tr.emit("cache.evict", node=0, doc=42, size=10)

    def test_fires_on_used_mismatch(self):
        tr = Tracer(Environment())
        tr.emit("cache.admit", node=0, doc=1, size=100, used=150,
                capacity=256)
        assert "sizes sum to 100" in replayed(tr, CacheOracle)[0]["msg"]

    def test_fires_on_capacity_overflow(self):
        tr = Tracer(Environment())
        tr.emit("cache.admit", node=0, doc=1, size=300, used=300,
                capacity=256)
        assert any("over capacity" in v["msg"]
                   for v in replayed(tr, CacheOracle))


class TestObservabilityBundle:
    def test_install_is_exclusive(self):
        env = Environment()
        obs = Observability(env).install()
        assert env.obs is obs and obs.install() is obs
        with pytest.raises(ConfigError):
            Observability(env).install()

    def test_violations_sorted_in_trace_order(self):
        env = Environment()
        obs = Observability(env, strict=False).install()
        obs.trace.emit("ddss.lock.release", node=0, home=0, addr=0,
                       token=5)
        obs.trace.emit("cache.evict", node=0, doc=1, size=8)
        assert obs.violations()
        vs = obs.violations()
        assert [(v["oracle"], v["index"]) for v in vs] == [("owner", 0),
                                                          ("cache", 1)]

    def test_no_sanitize_mode(self):
        """Collect mode attaches nothing live, and the replay still
        judges the run; ``sanitize=False`` is refused."""
        env = Environment()
        with pytest.raises(ConfigError, match="sanitize=False"):
            Observability(env, sanitize=False)
        obs = Observability(env, strict=False).install()
        obs.trace.emit("cache.evict", node=0, doc=1, size=8)
        assert obs.options == {"ring": 65536, "strict": False}
        assert obs.violations()

    def test_overflowed_ring_is_never_clean(self):
        obs = Observability(Environment(), ring=2, strict=False).install()
        for doc in range(3):
            obs.trace.emit("cache.miss", node=0, doc=doc)
        with pytest.raises(ConfigError,
                           match="trace is incomplete.*3 events emitted"):
            obs.violations()


def _smash_ddss_unit_lock(strict):
    """An errant RDMA write zeroes a held unit lock; the next CAS
    succeeds and two owners coexist."""
    from repro.net import Cluster
    from repro.ddss import DDSS
    from repro.ddss.substrate import LOCK_OFF

    cluster = Cluster(n_nodes=4, seed=0)
    obs = observe_live(cluster) if strict else cluster.observe()
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
    return obs


class TestIntegrationCorruption:
    """Corrupt real protocol state; the run's judgement must notice."""

    def test_ddss_lock_word_smash_breaks_mutual_exclusion(self):
        obs = _smash_ddss_unit_lock(strict=False)
        assert obs.violations()
        assert obs.violations()[0]["oracle"] == "owner"

    def test_strict_mode_raises_at_the_emitting_frame(self):
        """The live check raises inside the emission of the second
        acquire: the DDSS client's frame sits right under the tracer."""
        with pytest.raises(SanitizerError,
                           match=r"\[owner\] .* ddss.lock.acquire: .*"
                                 r"already owned") as exc:
            _smash_ddss_unit_lock(strict=True)
        frames = [(e.path.name, e.name) for e in exc.traceback]
        emit = frames.index(("tracer.py", "emit"))
        assert frames[emit + 1:] == [("live.py", "live")]
        assert frames[emit - 1] == ("client.py", "_obs_lock")

    def test_ncosed_word_corruption_detected(self):
        """A far-future epoch scribbled into a home's lock word is
        reported by the lock oracle's replay of a collect-mode run, at
        the next client observation."""
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
        assert any(v["oracle"] == "locks"
                   and "future epoch 1000" in v["msg"]
                   for v in obs.violations())
