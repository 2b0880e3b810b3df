"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            store.try_put("x")
            item = yield store.get()
            return item

        assert run(env, proc(env)) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(9.0)
            store.try_put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (9.0, "late")

    def test_fifo_ordering_of_items(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            for i in range(4):
                store.try_put(i)
            got = []
            for _ in range(4):
                got.append((yield store.get()))
            return got

        assert run(env, proc(env)) == [0, 1, 2, 3]

    def test_fifo_ordering_of_getters(self):
        env = Environment()
        store = Store(env)
        arrivals = []

        def getter(env, tag):
            item = yield store.get()
            arrivals.append((tag, item))

        for tag in range(3):
            env.process(getter(env, tag))

        def producer(env):
            yield env.timeout(1.0)
            for i in "abc":
                store.try_put(i)

        env.process(producer(env))
        env.run()
        assert arrivals == [(0, "a"), (1, "b"), (2, "c")]

    def test_try_put_try_get(self):
        env = Environment()
        store = Store(env)
        store.try_put("a")
        store.try_put("b")
        assert store.try_get() == (True, "a")
        assert store.try_get() == (True, "b")
        ok, item = store.try_get()
        assert ok is False

    def test_try_put_hands_to_waiting_getter(self):
        env = Environment()
        store = Store(env)
        got = store.get()
        store.try_put("x")
        assert got.triggered and got.value == "x"
        assert store.try_get() == (False, None)


class TestResource:
    def test_mutual_exclusion(self):
        env = Environment()
        res = Resource(env, capacity=1)
        active = []
        overlaps = []

        def worker(env, tag):
            yield res.acquire()
            if active:
                overlaps.append(tag)
            active.append(tag)
            yield env.timeout(10.0)
            active.remove(tag)
            res.release()

        for tag in range(5):
            env.process(worker(env, tag))
        env.run()
        assert overlaps == []
        assert env.now == 50.0  # fully serialized

    def test_capacity_parallelism(self):
        env = Environment()
        res = Resource(env, capacity=3)

        def worker(env):
            yield res.acquire()
            yield env.timeout(10.0)
            res.release()

        for _ in range(6):
            env.process(worker(env))
        env.run()
        assert env.now == 20.0  # two waves of three

    def test_fifo_handoff(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, tag):
            yield res.acquire()
            order.append(tag)
            yield env.timeout(1.0)
            res.release()

        for tag in range(4):
            env.process(worker(env, tag))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_acquire(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

