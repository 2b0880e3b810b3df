"""The kernel's fixed cost per wait, in Python frames.

Each case drives ``n`` identical waits from one process and counts the
Python frames entered with the cyclic collector off (``call`` profile
events; builtins are not counted, so the numbers do not depend on which
builtins a Python version inlines).  The cost of one wait is the
difference between ``n + 1`` and ``n`` waits, so set-up and teardown
cancel out.  A change that adds a frame to any of these waits fails
here; one that removes a frame should lower the pinned number.
"""

import gc
import sys

import pytest

from repro.sim import CPU, Environment, KERNELS, Resource, pin_kernel


def _spawn_and_join(env, n):
    def child():
        return
        yield  # pragma: no cover - makes this a generator

    def body():
        for _ in range(n):
            yield env.process(child())
    return body()


def _timeouts(env, n):
    def body():
        for _ in range(n):
            yield env.timeout(1.0)
    return body()


def _cpu_jobs(background):
    def make(env, n):
        cpu = CPU(env)
        cpu.set_background(background)

        def body():
            for _ in range(n):
                yield cpu.run(5.0)
        return body()
    return make


def _grants(env, n):
    res = Resource(env)

    def body():
        for _ in range(n):
            yield res.acquire()
            res.release()
    return body()


#: wait -> (process body factory, frames per wait on the fast kernel,
#: agenda entries per wait)
WAITS = {
    # env.process, Process.__init__, _schedule_call, the child's
    # _resume and generator frame; the parent's _resume and generator.
    # Entries: the start call, the child's completion.
    "process start + join": (_spawn_and_join, 7, 2),
    # env.timeout, _resume, the generator
    "timeout": (_timeouts, 3, 1),
    # CPU.run, CPUJob.__init__, _schedule_call; at the wake _on_wake,
    # _update, CPUJob.succeed; _resume, the generator.  Entries: the
    # wake, the completion.
    "cpu job, idle cpu": (_cpu_jobs(0), 8, 2),
    # as above, but the submit runs _update too
    "cpu job, busy cpu": (_cpu_jobs(1), 9, 2),
    # acquire, Event.__init__, succeed, _resume, the generator, release
    "resource grant": (_grants, 6, 1),
}


def _frames(kernel, make, n):
    """``(frames, agenda entries)`` of a run of ``n`` waits."""
    with pin_kernel(kernel):
        env = Environment()
    env.process(make(env, n))
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # no cyclic collection mid-run: it may close some other test's
    # abandoned generators, whose frames would count here
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        env.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, env._seq


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("wait", sorted(WAITS))
def test_frames_per_wait(wait, kernel):
    """The slow kernel's drain adds one ``step()`` frame per entry."""
    make, frames, entries = WAITS[wait]
    counts = [_frames(kernel, make, n) for n in (2, 3, 4)]
    per_wait = {(b[0] - a[0], b[1] - a[1])
                for a, b in zip(counts, counts[1:])}
    if kernel == "slow":
        frames += entries
    assert per_wait == {(frames, entries)}
