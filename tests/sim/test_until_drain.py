"""``run_until_event`` against its reference twin.

:func:`tests.sim.reference_until.run_until_event` is the step loop the
method was before the fast kernel's batched drain served it.  Every case
builds the same seeded load twice, waits on the same event once with
the product and once with the reference, and compares the stopping
point exactly: ``now``, ``_seq``, every pending agenda entry, what has
fired, and the value or error.  Draining both to the end must then fire
the rest in the same order.
"""

import random
from functools import partial

import pytest

from repro.sim import KERNELS, Environment, SimulationError, pin_kernel
from repro.sim.core import _CALL

from tests.sim.reference_until import run_until_event as reference


def _background(env, seed, fired):
    """Seeded noise: bare calls, watched timeouts and processes that
    wait (zero delays included) and trigger events, many of them tied
    on a grid of instants, so batches form around every awaited one."""
    rng = random.Random(seed)
    grid = (0.0, 5.0, 10.0, 10.0, 25.0)
    for i in range(200):
        t = rng.choice(grid) if rng.random() < 0.6 else rng.random() * 30
        if rng.random() < 0.5:
            env._schedule_call(t, partial(fired.append, ("call", i)))
        else:
            env.timeout(t).callbacks.append(
                lambda _e, i=i: fired.append(("timeout", i)))

    def worker(w, waits):
        for k, (delay, trigger) in enumerate(waits):
            yield env.timeout(delay)
            fired.append(("proc", w, k))
            if trigger:
                ev = env.event()
                ev.callbacks.append(
                    lambda _e, w=w, k=k: fired.append(("event", w, k)))
                ev.succeed()

    for w in range(20):
        waits = [(rng.choice((0.0, 0.0, 2.5, 5.0, rng.random() * 10)),
                  rng.random() < 0.3) for _ in range(rng.randrange(3, 12))]
        env.process(worker(w, waits))


def _process(env):
    def body():
        yield env.timeout(7.0)
        yield env.timeout(0.0)
        yield env.timeout(3.0)
        return "done"
    return env.process(body()), 1e12


def _timeout(env):
    return env.timeout(10.0, value="t"), 1e12


def _triggered(env):
    env.run(until=5.0)
    for _ in range(3):
        env.timeout(0.0)
    ev = env.event()
    ev.succeed("s")
    for _ in range(3):
        env.timeout(0.0)
    return ev, 1e12


def _triggered_late(env):
    """Triggered at ``now`` past ``limit``: it is processed all the
    same, the bound applies only to an untriggered event."""
    return _triggered(env)[0], 4.0


def _processed(env):
    ev = env.event()
    ev.succeed("p")
    env.run(until=3.0)
    assert ev.processed
    return ev, 1e12


def _mid_batch(env):
    waits = [env.timeout(12.0, value=i) for i in range(100)]
    return waits[50], 1e12


def _crash(env):
    def body():
        yield env.timeout(10.0)
        raise ValueError("boom")
    return env.process(body()), 1e12


def _deadlock(env):
    return env.event(), 1e12


def _limit(env):
    return env.timeout(25.0), 12.0


def _late(env):
    env.run(until=5.0)
    env.timeout(0.0)
    return env.timeout(1.0), 4.0


CASES = {"process": _process, "timeout": _timeout, "triggered": _triggered,
         "triggered-late": _triggered_late, "processed": _processed,
         "mid-batch": _mid_batch, "crash": _crash, "deadlock": _deadlock,
         "limit": _limit, "late": _late}


def _agenda(env):
    """Every pending entry as ``(when, seq, kind)``, in firing order."""
    def kind(obj, value):
        return "call" if value is _CALL else type(obj).__name__
    return sorted([(w, s, kind(e, v)) for w, s, e, v in env._heap]
                  + [(env.now, s, kind(e, v)) for s, e, v in env._imm])


def _stop(kernel, case, seed, wait):
    with pin_kernel(kernel):
        env = Environment()
    fired = []
    _background(env, seed, fired)
    event, limit = CASES[case](env)
    try:
        outcome = ("ok", wait(env, event, limit))
    except (SimulationError, ValueError) as exc:
        outcome = (type(exc).__name__, str(exc))
    stopped = (env.now, env._seq, _agenda(env), list(fired), outcome)
    env.run()
    return stopped, (env.now, env._seq, fired)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernel", KERNELS)
def test_stops_where_the_step_loop_stops(kernel, case, seed):
    product = _stop(kernel, case, seed,
                    lambda env, ev, limit: env.run_until_event(ev, limit))
    twin = _stop(kernel, case, seed, reference)
    assert product == twin


@pytest.mark.parametrize("kernel", KERNELS)
def test_cases_reach_their_branch(kernel):
    """Each case stops where its name says, so the comparison above is
    not vacuous: mid-batch and mid-instant stops leave same-instant
    entries behind, and the errors are the ones named."""
    def outcome(case):
        (now, _seq, agenda, _fired, result), _ = _stop(
            kernel, case, 0,
            lambda env, ev, limit: env.run_until_event(ev, limit))
        return now, agenda, result

    now, agenda, result = outcome("mid-batch")
    assert result == ("ok", 50) and now == 12.0
    assert [w for w, _s, _k in agenda].count(12.0) >= 49
    now, agenda, result = outcome("triggered")
    assert result == ("ok", "s") and agenda[0][0] == now == 5.0
    assert outcome("triggered-late")[2] == ("ok", "s")
    assert outcome("process")[2] == ("ok", "done")
    assert outcome("processed")[0] == 3.0
    assert outcome("crash")[2] == ("ValueError", "boom")
    assert "deadlock" in outcome("deadlock")[2][1]
    now, agenda, result = outcome("limit")
    assert result == ("SimulationError", "event did not fire before t=12.0")
    assert now <= 12.0 < agenda[0][0]
    assert outcome("late")[2][1] == "event did not fire before t=4.0"
