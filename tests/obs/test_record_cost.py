"""What recording costs per verb, in Python frames and trace rows.

One process issues ``n`` cross-rack RDMA reads back to back on a
two-rack :class:`~repro.topo.TopoCluster`, with obs installed or not.
Frames are ``call`` profile events with the cyclic collector off
(builtins are not counted); the cost of one verb is the difference
between ``n + 1`` and ``n`` verbs, and the cost of recording it is that
difference with obs on minus the one with obs off.  A read moves two
cross-rack transfers (request and response) and records two rows,
``verb.issue`` and ``verb.complete``: none per transfer.  A change that
adds a frame or a row to recording fails here; one that removes a frame
should lower the pinned number.
"""

import gc
import sys

import pytest

from repro.topo import TopoCluster

from tests.sim.reference_kernel import KERNELS, pin_kernel

#: frames obs adds per recorded verb: ``verb`` and ``emit`` at the post,
#: ``_verb_done`` and ``emit`` at the completion
RECORD_FRAMES = 4
#: trace rows per recorded verb
ROWS_PER_VERB = 2


def _run(kernel, n, observe):
    """``(frames, rows, cross-rack transfers)`` of ``n`` reads."""
    with pin_kernel(kernel):
        cl = TopoCluster(racks=2, hosts_per_rack=2, seed=0)
    obs = cl.observe(strict=False) if observe else None
    seg = cl.nodes[2].memory.register(64, name="seg")
    nic = cl.nodes[0].nic

    def body():
        for _ in range(n):
            yield nic.rdma_read(2, seg.addr, seg.rkey, 8)

    env = cl.env
    env.process(body())
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        env.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    rows = obs.trace.emitted if obs is not None else 0
    return calls, rows, cl.fabric.xrack_transfers


def _per_verb(kernel, observe):
    runs = [_run(kernel, n, observe) for n in (2, 3, 4)]
    steps = {tuple(b[i] - a[i] for i in range(3))
             for a, b in zip(runs, runs[1:])}
    assert len(steps) == 1, steps
    return steps.pop()


@pytest.mark.parametrize("kernel", KERNELS)
def test_recording_cost_per_verb(kernel):
    frames_on, rows, xrack = _per_verb(kernel, True)
    frames_off, no_rows, xrack_off = _per_verb(kernel, False)
    assert xrack == xrack_off == 2
    assert no_rows == 0
    assert rows == ROWS_PER_VERB  # zero rows per cross-rack transfer
    assert frames_on - frames_off == RECORD_FRAMES
