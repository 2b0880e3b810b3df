"""``settle``: wait for every child, report each — the combinator under
a transaction phase's k verbs and a replicated put's copies."""

import pytest

from repro.net import Cluster
from repro.sim import (KERNELS, Environment, Interrupt, pin_kernel,
                       settle)


class Boom(Exception):
    pass


def _failing(env, delay, exc):
    yield env.timeout(delay)
    raise exc


def _value(env, delay, value):
    yield env.timeout(delay)
    return value


@pytest.mark.parametrize("kernel", KERNELS)
def test_mixed_children_all_reported_in_order(kernel):
    """The failing child fires *first* and is yielded last: unwatched it
    would crash the run, fail-fast would lose its siblings."""
    with pin_kernel(kernel):
        env = Environment()
    boom = Boom("second")

    def waiter(env):
        children = [env.process(_value(env, 5.0, "a")),
                    env.process(_failing(env, 1.0, boom)),
                    env.timeout(3.0, value="c")]
        results = yield from settle(children)
        return env.now, results

    p = env.process(waiter(env))
    env.run()
    assert p.value == (5.0, [(True, "a"), (False, boom), (True, "c")])


@pytest.mark.parametrize("kernel", KERNELS)
def test_failed_verbs_are_watched(kernel):
    """One-sided verbs with a bad rkey fail with process-crash
    semantics (a Process on the slow kernel, ``_fail_verb`` on the
    fast one); settled, every failure is thrown into the waiter."""
    with pin_kernel(kernel):
        cluster = Cluster(n_nodes=3, seed=0)
    seg = cluster.nodes[1].memory.register(64, name="seg")
    nic = cluster.nodes[0].nic

    def waiter(env):
        return (yield from settle([
            nic.rdma_read(1, seg.addr, seg.rkey, 8),
            nic.rdma_read(1, seg.addr, seg.rkey + 1, 8),
            nic.cas(1, seg.addr, seg.rkey + 1, 0, 1)]))

    p = cluster.env.process(waiter(cluster.env))
    cluster.env.run()
    (ok0, data), (ok1, exc1), (ok2, exc2) = p.value
    assert ok0 and data == bytes(8)
    assert not ok1 and not ok2
    assert isinstance(exc1, Exception) and isinstance(exc2, Exception)


def test_already_processed_children_cost_no_agenda_entry():
    env = Environment()
    boom = Boom("early")
    children = [env.timeout(1.0, value=1), env.event().fail(boom),
                env.timeout(2.0, value=3)]
    env.run()
    assert all(c.processed for c in children)

    def waiter(env):
        seq = env._seq
        results = yield from settle(children)
        return env._seq - seq, results

    p = env.process(waiter(env))
    env.run()
    assert p.value == (0, [(True, 1), (False, boom), (True, 3)])


def test_empty_list_returns_at_once():
    env = Environment()

    def waiter(env):
        results = yield from settle([])
        return env.now, results

    p = env.process(waiter(env))
    env.run()
    assert p.value == (0.0, [])


def test_foreign_exception_propagates():
    """An Interrupt thrown into the waiter is not the awaited child's
    failure: it must not be filed under that child."""
    env = Environment()
    seen = {}

    def waiter(env):
        try:
            yield from settle([env.timeout(10.0), env.timeout(20.0)])
        except Interrupt as exc:
            seen["cause"] = exc.cause
            seen["at"] = env.now

    def interrupter(env, victim):
        yield env.timeout(4.0)
        victim.interrupt("stop")

    victim = env.process(waiter(env))
    env.process(interrupter(env, victim))
    env.run()
    assert seen == {"cause": "stop", "at": 4.0}
