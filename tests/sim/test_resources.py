"""Unit tests for Store, Resource and Gate."""

import pytest

from repro.sim import Environment, Gate, Resource, SimulationError, Store


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            yield store.put("x")
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
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (9.0, "late")

    def test_fifo_ordering_of_items(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            for i in range(4):
                yield store.put(i)
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
                yield store.put(i)

        env.process(producer(env))
        env.run()
        assert arrivals == [(0, "a"), (1, "b"), (2, "c")]

    def test_capacity_backpressure(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("first")
            log.append(("put-first", env.now))
            yield store.put("second")  # must wait for consumer
            log.append(("put-second", env.now))

        def consumer(env):
            yield env.timeout(5.0)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-first", 0.0) in log
        assert ("got", "first", 5.0) in log
        assert ("put-second", 5.0) in log

    def test_try_put_try_get(self):
        env = Environment()
        store = Store(env, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        ok, item = store.try_get()
        assert (ok, item) == (True, "a")
        ok, item = store.try_get()
        assert ok is False

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


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


class TestGate:
    def test_open_releases_all_waiters(self):
        env = Environment()
        gate = Gate(env)
        done = []

        def waiter(env, tag):
            yield gate.wait()
            done.append((tag, env.now))

        for tag in range(3):
            env.process(waiter(env, tag))

        def opener(env):
            yield env.timeout(4.0)
            gate.open()

        env.process(opener(env))
        env.run()
        assert done == [(0, 4.0), (1, 4.0), (2, 4.0)]

    def test_wait_on_open_gate_is_immediate(self):
        env = Environment()
        gate = Gate(env, is_open=True)

        def waiter(env):
            yield gate.wait()
            return env.now

        p = env.process(waiter(env))
        env.run()
        assert p.value == 0.0

    def test_close_reblocks(self):
        env = Environment()
        gate = Gate(env, is_open=True)
        gate.close()
        ev = gate.wait()
        assert not ev.triggered
        gate.open()
        assert ev.triggered
