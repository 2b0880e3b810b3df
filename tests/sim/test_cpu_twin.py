"""The processor-sharing CPU against its reference twin.

:class:`ReferenceCPU` (``tests/sim/reference_cpu.py``) is the model
before wake-ups became bare agenda calls.  The product must compute the
same floats and take the same agenda slots, so every comparison here is
``==``: the order and instants of completions, ``utilization()``, and
how many agenda sequence numbers each operation consumed.

Tier-1 replays four scenario rows on the fast kernel with the reference
patched into :mod:`repro.net.node`; ``REPRO_CPU_TWIN_ALL=1`` widens that
to every row on both kernels (CI's correctness-oracles job).
"""

import os
import random

import pytest

import repro.net.node
from repro.scenarios import SCENARIOS, judged_run
from repro.sim import CPU, Environment, KERNELS, pin_kernel

from tests.sim.reference_cpu import ReferenceCPU

CLASSES = {"product": CPU, "reference": ReferenceCPU}


def _work(rng):
    """A work mix with zero-work jobs, grid values (ties) and spread."""
    r = rng.random()
    if r < 0.1:
        return 0.0
    if r < 0.45:
        return rng.randrange(1, 6) * 2.5
    return rng.random() * 40.0


def _schedule(seed, n_ops=300):
    """``(cores, [(gap_us, op, arg)])``; a zero gap stacks operations at
    one instant."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        gap = rng.choice([0.0, 0.0, rng.randrange(4) * 2.5,
                          rng.random() * 15.0])
        r = rng.random()
        if r < 0.65:
            ops.append((gap, "submit", _work(rng)))
        elif r < 0.75:
            ops.append((gap, "background", rng.randrange(4)))
        elif r < 0.9:
            ops.append((gap, "cancel", rng.randrange(1 << 30)))
        else:
            ops.append((gap, "utilization", None))
    return rng.randint(1, 4), ops


def _replay(cls, kernel, cores, ops):
    with pin_kernel(kernel):
        env = Environment()
    cpu = cls(env, cores=cores)
    jobs, done, seq_deltas, utils = [], [], [], []

    def play():
        for gap, op, arg in ops:
            if gap:
                yield env.timeout(gap)
            before = env._seq
            if op == "submit":
                job = cpu.submit(arg, name=f"j{len(jobs)}")
                job.done.add_callback(
                    lambda ev, i=len(jobs): done.append((i, env.now, ev.ok)))
                jobs.append(job)
            elif op == "background":
                cpu.set_background(arg)
            elif op == "cancel" and jobs:
                jobs[arg % len(jobs)].cancel()
            elif op == "utilization":
                utils.append(cpu.utilization())
            seq_deltas.append(env._seq - before)

    start = env._seq
    env.process(play())
    env.run()
    utils.append(cpu.utilization())
    return {"done": done, "jobs": len(jobs), "seq_deltas": seq_deltas,
            "utilization": utils, "agenda": env._seq - start,
            "now": env.now}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(6))
def test_random_schedules_match_the_reference(seed, kernel):
    cores, ops = _schedule(seed)
    ref = _replay(ReferenceCPU, kernel, cores, ops)
    new = _replay(CPU, kernel, cores, ops)
    assert len(ref["done"]) == ref["jobs"] > 150
    assert new == ref


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cls", CLASSES.values(), ids=list(CLASSES))
def test_lone_job_costs_two_agenda_entries(cls, kernel):
    """The wake-up and the completion event, nothing else."""
    with pin_kernel(kernel):
        env = Environment()
    cpu = cls(env, cores=2)
    before = env._seq
    ev = cpu.run(5.0)
    env.run()
    assert ev.triggered and env.now == 5.0
    assert env._seq - before == 2


ALL = os.environ.get("REPRO_CPU_TWIN_ALL") == "1"
ROWS = sorted(SCENARIOS) if ALL else ["cache-hybcc", "srsl", "ddss", "lab"]


@pytest.mark.parametrize("kernel", KERNELS if ALL else ["fast"])
@pytest.mark.parametrize("row", ROWS)
def test_scenario_trace_sha_matches_the_reference(row, kernel, monkeypatch):
    product, _ = judged_run(row, seed=0, kernel=kernel)
    monkeypatch.setattr(repro.net.node, "CPU", ReferenceCPU)
    reference, _ = judged_run(row, seed=0, kernel=kernel)
    assert product["trace_sha"] == reference["trace_sha"]
    assert product["verdict"] == reference["verdict"] == "ok"
