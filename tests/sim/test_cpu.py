"""Unit tests for the processor-sharing CPU model.

Every simulated CPU has :data:`repro.sim.cpu.CORES` (two) cores, so a
pair of equal jobs runs as one job would on a single core.
"""

import pytest

from repro.sim import CPU, Environment, SimulationError
from repro.sim.cpu import CORES


def finish_time(env, cpu, work):
    ev = cpu.run(work)
    env.run_until_event(ev)
    return env.now


def test_single_job_runs_at_full_speed():
    env = Environment()
    cpu = CPU(env)
    assert finish_time(env, cpu, 100.0) == pytest.approx(100.0)


def test_two_jobs_share_one_core():
    env = Environment()
    cpu = CPU(env)
    cpu.set_background(1)  # one core taken: the two jobs share the other
    e1 = cpu.run(100.0)
    e2 = cpu.run(100.0)
    env.run_until_event(env.all_of([e1, e2]))
    # three competitors on two cores: rate 2/3 each
    assert env.now == pytest.approx(150.0)
    assert e1.triggered and e2.triggered


def test_jobs_fit_in_cores_run_unimpeded():
    env = Environment()
    cpu = CPU(env)
    for _ in range(CORES):
        cpu.run(50.0)
    env.run()
    assert env.now == pytest.approx(50.0)


def test_short_job_finishes_first_then_long_speeds_up():
    env = Environment()
    cpu = CPU(env)
    long = [cpu.run(100.0) for _ in range(2)]
    short = [cpu.run(10.0) for _ in range(2)]
    times = {}
    long[0].add_callback(lambda e: times.setdefault("long", env.now))
    short[0].add_callback(lambda e: times.setdefault("short", env.now))
    env.run()
    # Short: 10us demand at rate 1/2 (four jobs, two cores) -> t=20.
    # Long: served 10us by t=20, remaining 90 at full rate -> t=110.
    assert times["short"] == pytest.approx(20.0)
    assert times["long"] == pytest.approx(110.0)


def test_late_arrival_slows_existing_job():
    env = Environment()
    cpu = CPU(env)

    def late(env):
        yield env.timeout(50.0)
        yield env.all_of([cpu.run(100.0) for _ in range(2)])
        return env.now

    first = [cpu.run(100.0) for _ in range(2)]
    times = {}
    first[0].add_callback(lambda e: times.setdefault("first", env.now))
    p = env.process(late(env))
    env.run()
    # First pair runs alone 50us (50 remaining), then shares: +100us.
    assert times["first"] == pytest.approx(150.0)
    # Latecomers: by t=150 they have received 50us, then alone 50 more.
    assert p.value == pytest.approx(200.0)


def test_background_load_slows_jobs():
    env = Environment()
    cpu = CPU(env)
    cpu.set_background(19)
    # 20 competitors on two cores: the job gets 1/10th of a core.
    assert finish_time(env, cpu, 10.0) == pytest.approx(100.0)


def test_background_load_on_multicore():
    env = Environment()
    cpu = CPU(env)
    cpu.set_background(3)
    # 4 competitors on 2 cores -> rate 1/2.
    assert finish_time(env, cpu, 10.0) == pytest.approx(20.0)


def test_zero_work_completes_immediately():
    env = Environment()
    cpu = CPU(env)
    ev = cpu.run(0.0)
    env.run()
    assert ev.triggered
    assert env.now == 0.0


def test_negative_work_rejected():
    env = Environment()
    cpu = CPU(env)
    with pytest.raises(SimulationError):
        cpu.run(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf"), -1.0,
                                  float("-inf")])
@pytest.mark.parametrize("background", [0, 3], ids=["run", "run-busy"])
def test_bad_work_refused_before_any_state_change(background, work):
    """A refused job leaves no trace on an idle or a busy CPU: the CPU
    neither keeps it nor raises again for the jobs that follow."""
    env = Environment()
    cpu = CPU(env)
    cpu.set_background(background)
    with pytest.raises(SimulationError, match="'bad'"):
        cpu.run(work, name="bad")
    assert cpu.active_jobs == background
    assert finish_time(env, cpu, 5.0) == 5.0 * max(1, (1 + background)
                                                   / CORES)
    assert cpu.active_jobs == background


def test_active_jobs_and_load():
    env = Environment()
    cpu = CPU(env)
    assert cpu.active_jobs == 0
    cpu.run(100.0)
    cpu.set_background(3)
    assert cpu.active_jobs == 4
    assert cpu.load == pytest.approx(2.0)


def test_work_conservation_many_equal_jobs():
    env = Environment()
    cpu = CPU(env)
    n = 16
    for _ in range(n):
        cpu.run(25.0)
    env.run()
    # Total demand 400us on two cores -> makespan exactly 200us.
    assert env.now == pytest.approx(200.0)
