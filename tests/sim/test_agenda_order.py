"""Property tests for the agenda's ordering contract (DESIGN.md §9).

The contract is a total order on ``(when, seq)``: entries fire in
nondecreasing ``when``, ties broken by schedule order.  These tests
drive randomized schedule/pop interleavings through the seam
(``_schedule_call`` / ``timeout`` in, ``run`` / ``step`` out) under both
kernels — ``fast`` (heap + same-instant deque, inlined batch drain) and
``slow`` (the ``step()``-per-entry spec) — and diff the firing order
against a reference model that simply sorts the scheduled
``(when, seq)`` pairs.

Sizes are parameters: ``small`` keeps tens of entries outstanding,
``large`` keeps thousands (well past the 1024 mark at which an earlier
bucketed agenda used to engage), so the contract is checked at both
scales whatever data structure realises it.
"""

import random

import pytest

from repro.sim import Environment
from repro.sim.core import SimulationError

KERNELS = ["fast", "slow"]
#: (outstanding entries at the start, entries fired in total)
SIZES = {"small": (40, 4_000), "large": (3_000, 12_000)}


def _make_env(monkeypatch, kernel: str) -> Environment:
    monkeypatch.setenv("REPRO_SLOW_KERNEL", "1" if kernel == "slow" else "0")
    env = Environment()
    assert env.fastpath is (kernel == "fast")
    return env


# ---------------------------------------------------------------------------
# reference-model identity on randomized interleavings
# ---------------------------------------------------------------------------

def _delay(rng):
    """A delay mix with ties, narrow bands, bursts and far spikes."""
    r = rng.random()
    if r < 0.25:
        return rng.randrange(8) * 0.5      # coarse grid -> lots of ties
    if r < 0.55:
        return 0.5 + rng.random() * 1.5    # narrow band
    if r < 0.85:
        return rng.random() * 1000.0       # uniform
    if r < 0.95:
        return 0.0                         # same-instant
    return rng.choice([5_000.0, 100_000.0])  # far-future spike


def _scripted_load(env, seed, n_initial, n_total):
    """Self-rescheduling ``_schedule_call`` workload, loaded but not run;
    returns the (live) fired ``(when, seq)`` log and schedule log."""
    rng = random.Random(seed)
    fired = []
    scheduled = []
    left = [n_total]

    def schedule(delay):
        when = env._now + delay
        # _schedule_call assigns seq = env._seq + 1 and stores it back,
        # so this entry's seq is known before the call.
        key = (when, env._seq + 1)
        env._schedule_call(when, lambda: fire(key))
        scheduled.append(key)

    def fire(key):
        assert env.now == key[0]
        fired.append(key)
        left[0] -= 1
        if left[0] > 0:
            schedule(_delay(rng))
            if rng.random() < 0.05:  # occasional burst
                for _ in range(min(8, left[0])):
                    schedule(rng.choice([0.0, 2.5, 2.5, 7.0]))

    for _ in range(n_initial):
        schedule(_delay(rng))
    return fired, scheduled


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pop_order_matches_sorted_reference(monkeypatch, seed, kernel, size):
    """Firing order == the schedule log sorted by ``(when, seq)``; the
    delay mix spans ties, bands, bursts and far-future spikes."""
    n_initial, n_total = SIZES[size]
    env = _make_env(monkeypatch, kernel)
    fired, scheduled = _scripted_load(env, seed, n_initial, n_total)
    env.run()
    assert len(fired) >= n_total
    assert fired == sorted(scheduled)


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("seed", [0, 1])
def test_bounded_slices_fire_like_one_unbounded_run(monkeypatch, seed, size):
    """``run(until=t)`` in slices == one unbounded ``run()`` == ``slow``.

    The fast kernel serves ``until=`` from the same inlined batch drain
    as the unbounded run; slicing must neither skip, reorder nor
    double-fire an entry, every slice must fire only entries at or
    before its bound, and the clock must land on each bound.
    """
    n_initial, n_total = SIZES[size]
    logs = {}
    for kernel in KERNELS:
        env = _make_env(monkeypatch, kernel)
        fired, _ = _scripted_load(env, seed, n_initial, n_total)
        env.run()
        logs[kernel] = (list(fired), env.now)
    assert logs["fast"] == logs["slow"]

    env = _make_env(monkeypatch, "fast")
    fired, scheduled = _scripted_load(env, seed, n_initial, n_total)
    rng = random.Random(seed + 100)
    bound = 0.0
    while env.peek() != float("inf"):
        # uneven slices, some empty, some landing exactly on an entry
        bound = max(bound + rng.choice([0.0, 0.5, 3.0, 250.0, 20_000.0]),
                    env.peek() if rng.random() < 0.2 else 0.0)
        before = len(fired)
        assert env.run(until=bound) == bound == env.now
        assert all(when <= bound for when, _seq in fired[before:])
        assert env.peek() > bound
    assert fired == logs["fast"][0] == sorted(scheduled)


@pytest.mark.parametrize("kernel", KERNELS)
def test_interleaved_step_and_schedule(monkeypatch, kernel):
    """Popping via ``step()`` between schedules preserves the order."""
    rng = random.Random(42)
    env = _make_env(monkeypatch, kernel)
    fired = []
    scheduled = []
    for i in range(4000):
        when = env._now + _delay(rng)
        env._schedule_call(when, lambda i=i: fired.append(i))
        scheduled.append((when, env._seq, i))
        if i % 3 == 0:
            env.step()
    env.run()
    assert fired == [i for _w, _s, i in sorted(scheduled)]


# ---------------------------------------------------------------------------
# ties and rejection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("per_instant", [30, 1224])
@pytest.mark.parametrize("kernel", KERNELS)
def test_same_instant_ties_fire_fifo(monkeypatch, kernel, per_instant):
    """Equal ``when`` (exact float ties) fire in schedule order —
    including bursts wide enough to exercise batch dispatch."""
    env = _make_env(monkeypatch, kernel)
    fired = []
    for i in range(3 * per_instant):   # all at 3 distinct instants
        when = float(1 + i % 3)
        env._schedule_call(when, lambda i=i: fired.append(i))
    env.run()
    expected = sorted(range(len(fired)), key=lambda i: (i % 3, i))
    assert fired == expected
    assert env.now == 3.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_negative_delay_rejected(monkeypatch, kernel):
    env = _make_env(monkeypatch, kernel)
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1.0)
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1e-12, value="x")
