"""Unit tests for the processor-sharing CPU model."""

import pytest

from repro.sim import CPU, Environment, SimulationError


def finish_time(env, cpu, work):
    ev = cpu.run(work)
    env.run_until_event(ev)
    return env.now


def test_single_job_runs_at_full_speed():
    env = Environment()
    cpu = CPU(env, cores=1)
    assert finish_time(env, cpu, 100.0) == pytest.approx(100.0)


def test_two_jobs_share_one_core():
    env = Environment()
    cpu = CPU(env, cores=1)
    e1 = cpu.run(100.0)
    e2 = cpu.run(100.0)
    env.run()
    # Equal jobs on one core each take 200us under PS.
    assert env.now == pytest.approx(200.0)
    assert e1.triggered and e2.triggered


def test_jobs_fit_in_cores_run_unimpeded():
    env = Environment()
    cpu = CPU(env, cores=4)
    for _ in range(4):
        cpu.run(50.0)
    env.run()
    assert env.now == pytest.approx(50.0)


def test_short_job_finishes_first_then_long_speeds_up():
    env = Environment()
    cpu = CPU(env, cores=1)
    long = cpu.run(100.0)
    short = cpu.run(10.0)
    times = {}
    long.add_callback(lambda e: times.setdefault("long", env.now))
    short.add_callback(lambda e: times.setdefault("short", env.now))
    env.run()
    # Short: 10us demand at rate 1/2 -> done at t=20.
    # Long: served 10us by t=20, remaining 90 at full rate -> t=110.
    assert times["short"] == pytest.approx(20.0)
    assert times["long"] == pytest.approx(110.0)


def test_late_arrival_slows_existing_job():
    env = Environment()
    cpu = CPU(env, cores=1)

    def late(env):
        yield env.timeout(50.0)
        yield cpu.run(100.0)
        return env.now

    first = cpu.run(100.0)
    times = {}
    first.add_callback(lambda e: times.setdefault("first", env.now))
    p = env.process(late(env))
    env.run()
    # First runs alone 50us (50 remaining), then shares: +100us -> t=150.
    assert times["first"] == pytest.approx(150.0)
    # Latecomer: by t=150 it has received 50us, then runs alone 50 -> t=200.
    assert p.value == pytest.approx(200.0)


def test_background_load_slows_jobs():
    env = Environment()
    cpu = CPU(env, cores=1)
    cpu.set_background(9)
    # Job gets 1/10th of the core.
    assert finish_time(env, cpu, 10.0) == pytest.approx(100.0)


def test_background_load_on_multicore():
    env = Environment()
    cpu = CPU(env, cores=2)
    cpu.set_background(3)
    # 4 competitors on 2 cores -> rate 1/2.
    assert finish_time(env, cpu, 10.0) == pytest.approx(20.0)


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = CPU(env, cores=1)
    ev = cpu.run(0.0)
    env.run()
    assert ev.triggered
    assert env.now == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = CPU(env, cores=1)
    with pytest.raises(SimulationError):
        cpu.run(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf"), -1.0,
                                  float("-inf")])
@pytest.mark.parametrize("entry", ["run", "submit"])
def test_bad_work_refused_before_any_state_change(entry, work):
    """A refused job leaves no trace: the CPU neither keeps it nor raises
    again for the jobs that follow."""
    env = Environment()
    cpu = CPU(env, cores=1)
    with pytest.raises(SimulationError, match="'bad'"):
        getattr(cpu, entry)(work, name="bad")
    assert cpu.active_jobs == 0
    assert finish_time(env, cpu, 5.0) == 5.0
    assert cpu.active_jobs == 0


def test_active_jobs_and_load():
    env = Environment()
    cpu = CPU(env, cores=2)
    assert cpu.active_jobs == 0
    cpu.run(100.0)
    cpu.set_background(3)
    assert cpu.active_jobs == 4
    assert cpu.load == pytest.approx(2.0)


def test_cancel_job():
    env = Environment()
    cpu = CPU(env, cores=1)
    job = cpu.submit(100.0)
    other = cpu.run(100.0)
    failures = []
    job.done.add_callback(lambda e: failures.append(e.ok))
    job.cancel()
    done_at = {}
    other.add_callback(lambda e: done_at.setdefault("t", env.now))
    env.run()
    assert failures == [False]
    # Other job now runs alone and must finish at t=100 (a stale wake-up
    # timer may keep the agenda alive past that; only completion matters).
    assert other.triggered
    assert done_at["t"] == pytest.approx(100.0)


def test_utilization_accounting():
    env = Environment()
    cpu = CPU(env, cores=2)
    cpu.run(100.0)  # one job on two cores: 50% busy
    env.run()
    assert cpu.utilization() == pytest.approx(0.5)


def test_work_conservation_many_equal_jobs():
    env = Environment()
    cpu = CPU(env, cores=1)
    n = 8
    for _ in range(n):
        cpu.run(25.0)
    env.run()
    # Total demand 200us on one core -> makespan exactly 200us.
    assert env.now == pytest.approx(200.0)
    assert cpu.utilization() == pytest.approx(1.0)


def test_bad_core_count():
    env = Environment()
    with pytest.raises(SimulationError):
        CPU(env, cores=0)
