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

from repro.net import Fabric, NetworkParams, Node
from repro.sim import CPU, Environment, Resource

from tests.sim.reference_kernel import KERNELS, pin_kernel


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


def _two_nodes(env):
    fabric = Fabric(env, NetworkParams.infiniband())
    return Node(env, 0, fabric), Node(env, 1, fabric)


def _transfers(env, n):
    a, b = _two_nodes(env)

    def body():
        for _ in range(n):
            yield a.fabric.transfer(a.id, b.id, 64)
    return body()


def _reads(env, n):
    a, b = _two_nodes(env)
    region = b.memory.register(64, name="wait-cost")

    def body():
        for _ in range(n):
            yield a.nic.rdma_read(b.id, region.addr, region.rkey, 8)
    return body()


#: wait -> (process body factory, frames per wait on the product
#: kernel, agenda entries per wait, of which at the current instant)
WAITS = {
    # env.process, Process.__init__, the child's _resume and generator
    # frame; the parent's _resume and generator.  Entries: the start
    # call, the child's completion.
    "process start + join": (_spawn_and_join, 6, 2, 2),
    # env.timeout, _resume, the generator
    "timeout": (_timeouts, 3, 1, 0),
    # CPU.run, CPUJob.__init__; the wake is _update, which triggers the
    # job inline; _resume, the generator.  Entries: the wake, the
    # completion.
    "cpu job, idle cpu": (_cpu_jobs(0), 5, 2, 1),
    # as above, but the submit runs _update too
    "cpu job, busy cpu": (_cpu_jobs(1), 6, 2, 1),
    # acquire, Event.__init__, _resume, the generator, release
    "resource grant": (_grants, 5, 1, 1),
    # transfer, _arrival, Event.__init__, _route; _resume, the
    # generator.  Entry: the completion at the arrival instant.
    "fabric transfer": (_transfers, 6, 1, 0),
    # rdma_read, _post_verb; posted: _verb_posted, _route; served:
    # _verb_serve, MemoryManager.rdma_read and resolve, _route; _resume,
    # the generator.  Entries: posted, served, the completion.
    "rdma read": (_reads, 10, 3, 0),
}

#: ``(frames, agenda entries)`` per wait on the reference kernel of the
#: waits it runs as generators (a transfer holding its link as a
#: Resource; a verb process of two such transfers) rather than as the
#: product's code
REFERENCE = {
    "fabric transfer": (32, 6),
    "rdma read": (88, 16),
}


def _frames(kernel, make, n):
    """``(frames, agenda entries)`` of a run of ``n`` waits."""
    with pin_kernel(kernel):
        env = Environment()
        body = make(env, n)  # a fabric and its NICs must be built here
    env.process(body)
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
    """The reference kernel's drain adds one ``step()`` frame per entry,
    and its stand-in deque one ``append`` frame per entry at the current
    instant (its generator waits are pinned in :data:`REFERENCE`)."""
    make, frames, entries, now = WAITS[wait]
    counts = [_frames(kernel, make, n) for n in (2, 3, 4)]
    per_wait = {(b[0] - a[0], b[1] - a[1])
                for a, b in zip(counts, counts[1:])}
    if kernel == "slow":
        frames, entries = REFERENCE.get(wait,
                                        (frames + entries + now, entries))
    assert per_wait == {(frames, entries)}
