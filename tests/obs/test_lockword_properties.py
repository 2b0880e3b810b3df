"""Property-based tests (seeded random, stdlib-only) for the N-CoSED
lock word: encode/decode round-trips, and random CAS/FAA/reclaim
interleavings that must keep the lock oracle, attached live, silent
while any mutation of a clean word must trip it."""

import random

import pytest

from repro.errors import SanitizerError
from repro.sim import Environment, spawn_child
from repro.obs import Tracer
from repro.verify import LockOracle
from repro.dlm.ft import _EP_MASK, _F24, pack, unpack

from tests.obs.live import attach, observe_live

N_CASES = 300


class TestRoundTrip:
    def test_pack_unpack(self):
        rng = random.Random(2)
        for _ in range(N_CASES):
            fields = (rng.randrange(_EP_MASK + 1),
                      rng.randrange(_F24 + 1),
                      rng.randrange(_F24 + 1))
            assert unpack(pack(*fields)) == fields

    def test_field_isolation(self):
        """No field bleeds into a neighbour at its extremes."""
        assert unpack(pack(0, _F24, 0)) == (0, _F24, 0)
        assert unpack(pack(0, 0, _F24)) == (0, 0, _F24)
        assert unpack(pack(_EP_MASK, 0, 0)) == (_EP_MASK, 0, 0)

    def test_out_of_range_rejected(self):
        from repro.errors import LockError
        with pytest.raises(LockError):
            pack(0, -1, 0)
        with pytest.raises(LockError):
            pack(0, _F24 + 1, 0)


class WordMachine:
    """Reference model of one FT lock word under CAS/FAA/reclaim,
    emitting the same events the real protocol emits."""

    def __init__(self, tracer, tokens, mgr="prop-mgr", lock=0):
        self.tr = tracer
        self.mgr = mgr
        self.lock = lock
        self.tokens = list(tokens)
        self.epoch = 0
        self.tail = 0
        self.count = 0
        for tk in self.tokens:
            tracer.emit("lock.request", node=0, mgr=mgr, lock=lock,
                        token=tk, mode="EXCLUSIVE")

    @property
    def word(self) -> int:
        return pack(self.epoch, self.tail, self.count)

    def observe(self) -> None:
        self.tr.emit("lock.word", node=0, mgr=self.mgr, lock=self.lock,
                     word=self.word)

    def cas_acquire(self, token: int) -> None:
        if self.tail == 0:
            self.tail = token
        self.observe()

    def faa_shared(self) -> None:
        if self.count < len(self.tokens):
            self.count += 1
        self.observe()

    def release(self) -> None:
        if self.count:
            self.count -= 1
        else:
            self.tail = 0
        self.observe()

    def reclaim(self) -> None:
        old = self.epoch
        self.epoch = (self.epoch + 1) & _EP_MASK
        self.tail = 0
        self.count = 0
        self.tr.emit("lock.reclaim", node=0, mgr=self.mgr,
                     lock=self.lock, old_ep=old, new_ep=self.epoch)
        self.observe()


def run_machine(seed: int, steps: int = 200):
    tr = Tracer(Environment())
    san = attach(LockOracle(), tr)
    rng = random.Random(seed)
    m = WordMachine(tr, tokens=[rng.randrange(1, _F24)
                                for _ in range(6)])
    for _ in range(steps):
        op = rng.random()
        if op < 0.35:
            m.cas_acquire(rng.choice(m.tokens))
        elif op < 0.65:
            m.faa_shared()
        elif op < 0.9:
            m.release()
        else:
            m.reclaim()
    return tr, san, m


class TestInterleavings:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_schedules_stay_silent(self, seed):
        tr, san, m = run_machine(seed)
        assert not san.violations
        assert tr.emitted > 200

    @pytest.mark.parametrize("seed", range(5))
    def test_mutated_word_trips_sanitizer(self, seed):
        """Flip the word to a state the protocol cannot produce:
        an unannounced tail token, an overflowing shared count, or a
        future epoch.  Every mutation must be flagged."""
        rng = random.Random(spawn_child(seed, 1))
        mutations = [
            # tail token nobody announced
            lambda m: pack(m.epoch, 0xBEEF42, 0),
            # count above the client population
            lambda m: pack(m.epoch, 0, len(m.tokens) + 1),
            # epoch from the future half of the wrap window
            lambda m: pack((m.epoch + rng.randrange(1, 0x7FFF))
                              & _EP_MASK, 0, 0),
        ]
        tr, san, m = run_machine(spawn_child(seed, 2))
        corrupt = rng.choice(mutations)(m)
        with pytest.raises(SanitizerError):
            tr.emit("lock.word", node=0, mgr=m.mgr, lock=m.lock,
                    word=corrupt)

    def test_stale_observation_after_reclaim_is_legal(self):
        """Delayed responses may carry pre-reclaim epochs — never an
        error, per the emission-order contract."""
        tr = Tracer(Environment())
        san = attach(LockOracle(), tr)
        m = WordMachine(tr, tokens=[5])
        stale = m.word            # epoch 0
        m.reclaim()               # home moves to epoch 1
        tr.emit("lock.word", node=1, mgr=m.mgr, lock=m.lock,
                word=stale)
        assert not san.violations


class TestEpochFencingLive:
    """Epoch fencing on the real FT manager: chaos-free acquire/release
    traffic with a forced reclaim keeps every live oracle silent and the
    epoch advances exactly once per reclaim."""

    def test_reclaim_under_live_traffic(self):
        from repro.net import Cluster
        from repro.faults import FaultPlan
        from repro.dlm import LockMode, NCoSEDManager

        # crash the holder so its lease expires and the reaper reclaims
        plan = FaultPlan().crash(1, at=1_000.0)
        cluster = Cluster(n_nodes=4, seed=3)
        obs = observe_live(cluster)
        cluster.install_faults(plan)
        manager = NCoSEDManager(cluster, n_locks=1, lease_us=300.0)
        env = cluster.env
        victim = manager.client(cluster.nodes[1])
        other = manager.client(cluster.nodes[2])

        def hold_forever(env):
            yield victim.acquire(0, LockMode.EXCLUSIVE)
            yield env.timeout(1e9)

        def later(env):
            yield env.timeout(2_500.0)
            yield other.acquire(0, LockMode.EXCLUSIVE)
            yield other.release(0)
            return env.now

        env.process(hold_forever(env), name="victim")
        p = env.process(later(env), name="other")
        env.run_until_event(p, limit=1e9)
        assert not obs.violations()
        reclaims = obs.trace.select("lock.reclaim")
        assert len(reclaims) >= 1
        eps = [r.fields["new_ep"] for r in reclaims]
        assert eps == list(range(1, len(eps) + 1))
