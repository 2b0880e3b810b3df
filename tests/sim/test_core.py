"""Unit tests for the event loop, events, and processes."""

import pytest

from repro.sim import AnyOf, Environment, Event, SimulationError

from tests.sim.reference_kernel import KERNELS, pin_kernel, step


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_zero_delay_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_same_time_events_deterministic_across_runs():
    def build():
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(3.0)
            order.append(tag)

        for tag in "abcdef":
            env.process(proc(env, tag))
        env.run()
        return order

    assert build() == build()


def test_process_join():
    env = Environment()

    def child(env):
        yield env.timeout(7.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (7.0, 42)


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("no"))


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_propagates_into_process():
    env = Environment()

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught:{exc}"

    ev = env.event()
    p = env.process(proc(env, ev))
    ev.fail(RuntimeError("boom"))
    env.run()
    assert p.value == "caught:boom"


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(proc(env))
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_watched_process_exception_delivered_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(parent(env))
    env.run()
    assert p.value == "inner"


def test_yield_non_event_rejected():
    env = Environment()

    def proc(env):
        yield 123

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(10.0, value="slow")
        t2 = env.timeout(2.0, value="fast")
        done = yield AnyOf(env, [t1, t2])
        return (env.now, list(done.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (2.0, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(10.0, value="a")
        t2 = env.timeout(2.0, value="b")
        done = yield env.all_of([t1, t2])
        return (env.now, sorted(done.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (10.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_run_until_limits_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    env.run(until=30.0)
    assert env.now == 30.0


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("bound", [5.0, float("nan")])
def test_run_until_behind_the_clock_or_nan_is_refused(bound, kernel):
    """Time never moves backwards and NaN is no bound: with an entry
    pending or on an empty agenda, the call raises and leaves the clock
    and the agenda as they were."""
    with pin_kernel(kernel):
        env = Environment()

    def proc(env):
        yield env.timeout(10.0)
        yield env.timeout(10.0)

    env.process(proc(env))
    assert env.run(until=15.0) == 15.0
    with pytest.raises(SimulationError, match=r"until=.* now=15\.0"):
        env.run(until=bound)
    assert env.now == 15.0 and env.peek() == 20.0
    assert env.run() == 20.0
    with pytest.raises(SimulationError, match=r"until=.* now=20\.0"):
        env.run(until=bound)
    assert env.now == 20.0


def test_run_until_event_deadlock_detection():
    env = Environment()
    ev = env.event()  # nobody will ever trigger this
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_event(ev)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env, ev):
        yield env.timeout(4.0)
        ev.succeed("done")

    ev = env.event()
    env.process(proc(env, ev))
    assert env.run_until_event(ev) == "done"
    assert env.now == 4.0


def test_callbacks_after_processed_run_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_agenda_is_a_named_error():
    """The reference kernel's single step (the product has none)."""
    env = Environment()
    with pytest.raises(SimulationError, match="step.. on an empty agenda"):
        step(env)
    env.timeout(2.0)
    step(env)
    assert env.now == 2.0
    with pytest.raises(SimulationError, match="step.. on an empty agenda"):
        step(env)


def test_clock_monotonic_through_mixed_schedule():
    env = Environment()
    stamps = []

    def proc(env, delay):
        yield env.timeout(delay)
        stamps.append(env.now)

    for d in [5.0, 1.0, 3.0, 1.0, 0.0]:
        env.process(proc(env, d))
    env.run()
    assert stamps == sorted(stamps)
    assert stamps[0] == 0.0 and stamps[-1] == 5.0
