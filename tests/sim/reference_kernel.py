"""Reference twin of the event kernel and the net layer's generators.

A frozen copy of the heap-only kernel as it stood before it left the
product: every same-instant entry takes the heap, ``run`` and
``run_until_event`` are naive loops of one :func:`step` per entry, every
fabric transfer is a generator holding the links as
:class:`~repro.sim.Resource`\\ s, and every one-sided verb is a generator
process.  It is the executable spec the product's deque, batched drain,
analytic FIFO bookings and verb slot pool must reproduce — the same
floats, the same canonical traces — and is not to be optimised.

:func:`pin_kernel` selects it.  Inside ``pin_kernel("slow")`` the
constructors of :class:`~repro.sim.Environment`,
:class:`~repro.net.Fabric` and :class:`~repro.net.NIC` are wrapped, and
each environment built there gets, on the instance:

* ``_imm`` — a stand-in for the same-instant deque that pushes every
  entry onto the heap as ``(now, seq, ...)`` and always tests false, so
  the product's pushes, ``peek`` and errors keep the heap-only order;
* ``run`` / ``run_until_event`` — the step loops below;

and each fabric or NIC built on such an environment gets
``Fabric._arrival`` (the generator transfer, fenced by
:func:`fence_completion` under an injector), ``NIC.post`` (every message
rides a transfer event) and ``NIC._post_verb`` (the ``*_proc``
generators).  Those six attributes are the whole patch, and the
instances keep them after the block, so a cluster built inside it runs
on the reference wherever it is run.  ``pin_kernel("fast")`` is the
product, untouched.  Only the receivers differ from the
originals (functions of the instance, not methods), the links (made at
first use) and the cost of the stand-in: one ``append`` frame per
same-instant push.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from functools import partial
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Optional

from repro.errors import ConfigError
from repro.net.fabric import Fabric
from repro.net.nic import NIC, Message, _OP_READ, _OP_WRITE
from repro.sim import Environment, Event, Resource
from repro.sim.core import _ALREADY, _CALL, _PENDING, SimulationError
from repro.topo.fabric import TopoFabric

__all__ = ["KERNELS", "pin_kernel", "is_reference", "step", "spawn",
           "judged_run", "run_check", "lab_run"]

#: the event kernels every cross-kernel check diffs: the product and
#: this reference
KERNELS = ("fast", "slow")

#: process-name stems of the generator verbs, indexed by op code (the
#: atomic stems double as ``_atomic_proc``'s op argument)
_OP_NAMES = ("rdma-read", "rdma-write", "cas", "faa")


class _HeapImm(tuple):
    """``env._imm`` of a reference environment: an append is a heap
    push at the current instant, and the queue is always empty — an
    empty tuple, so testing it costs no Python frame."""

    def __new__(cls, env: Environment):
        imm = super().__new__(cls)
        imm.env = env
        return imm

    def append(self, entry: tuple) -> None:
        heappush(self.env._heap, (self.env.now, *entry))


class _Links(dict):
    """Link resources by key, each made at its first use."""

    def __init__(self, env: Environment):
        super().__init__()
        self.env = env

    def __missing__(self, key) -> Resource:
        link = self[key] = Resource(self.env, capacity=1)
        return link


def is_reference(env: Environment) -> bool:
    return type(env._imm) is _HeapImm


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

def step(env: Environment) -> None:
    """Process the agenda entry with the smallest ``(when, seq)``.

    Immediate entries all sit at the current time (time cannot
    advance while the deque is non-empty), so the merge with the
    heap only ever compares seq numbers at equal timestamps.
    """
    imm = env._imm
    heap = env._heap
    if imm and (not heap or heap[0][0] > env.now
                or heap[0][1] > imm[0][0]):
        _seq, event, value = imm.popleft()
    else:
        try:
            when, _seq, event, value = heappop(heap)
        except IndexError:
            raise SimulationError("step() on an empty agenda") from None
        if when < env.now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        env.now = when
    if value is _CALL:
        event()
        return
    if value is not _ALREADY and event._value is _PENDING:
        # Delayed trigger (Timeout): the value rides the agenda entry.
        event._value = value
    callbacks, event.callbacks = event.callbacks, None
    if callbacks:
        for cb in callbacks:
            cb(event)


def run(env: Environment, until: Optional[float] = None) -> float:
    """Run until the agenda is empty or ``until`` is reached.
    Returns ``now``.  Time never moves backwards: a bound before
    ``now`` (or NaN) raises :class:`SimulationError`."""
    stop = float("inf") if until is None else until
    if not stop >= env.now:  # also refuses NaN
        raise SimulationError(
            f"run(until={until}) is not a time at or after now={env.now}")
    # The executable spec: a bound check and a step() per entry.
    while env._imm or env._heap:
        if until is not None and env.peek() > until:
            break
        step(env)
    if until is not None and until > env.now:
        env.now = until
    return env.now


def run_until_event(env: Environment, event: Event,
                    limit: float = 1e12) -> Any:
    """Run until ``event`` has been processed (its callbacks have
    run), stopping right after the entry that processes it.  Raises
    if the agenda drains, or its next entry lies past ``limit``,
    while ``event`` is still untriggered (deadlock detector)."""
    # The executable spec: two checks and one step() per entry.
    while not event.triggered:
        if not (env._imm or env._heap) or env.peek() > limit:
            break
        step(env)
    else:
        # Drain zero-delay follow-ups so the callbacks have run.
        while not event.processed and (env._imm
                                       or env.peek() <= env.now):
            step(env)
    if event._value is _PENDING:
        if not env._imm and not env._heap:
            raise SimulationError(
                "agenda empty before awaited event fired (deadlock?)")
        raise SimulationError(f"event did not fire before t={limit}")
    if not event._ok:
        raise event._value
    return event._value


# ---------------------------------------------------------------------------
# the fabric: generator transfers
# ---------------------------------------------------------------------------

def _arrival(fabric: Fabric, src_id: int, dst_id: int,
             nbytes: int) -> Event:
    done = spawn(fabric, src_id, dst_id, nbytes)
    if fabric.injector is not None:
        # a crash at either end while the payload is in flight must
        # fail this completion, not deliver into the new incarnation
        return fence_completion(fabric.injector, src_id, dst_id, done)
    return done


def spawn(fabric: Fabric, src_id: int, dst_id: int, nbytes: int) -> Event:
    """The twin of ``Fabric._route``: the same payload as a generator
    that holds the link :class:`Resource` (and, across racks, the ToR
    uplink's)."""
    if isinstance(fabric, TopoFabric):
        h = fabric.hosts_per_rack
        if src_id // h != dst_id // h:
            fabric._count_xrack(src_id, dst_id, nbytes)
            return fabric.env.process(
                _xrack_proc(fabric, src_id, dst_id, nbytes),
                name=f"xfer-{src_id}->{dst_id}")
    fabric.transfers += 1
    fabric.bytes_moved += nbytes
    if src_id == dst_id:
        return fabric.env.timeout(fabric.params.local_op_us)
    return fabric.env.process(
        _transfer_proc(fabric, src_id, dst_id, nbytes),
        name=f"xfer-{src_id}->{dst_id}")


def _transfer_proc(fabric: Fabric, src_id: int, dst_id: int, nbytes: int):
    p = fabric.params
    factor = (fabric.injector.link_factor(src_id, dst_id)
              if fabric.injector is not None else 1.0)
    yield fabric.env.timeout(p.nic_tx_us)
    link = fabric._egress[src_id]
    yield link.acquire()
    try:
        yield fabric.env.timeout((nbytes / p.bandwidth_bpus) * factor)
    finally:
        link.release()
    yield fabric.env.timeout(p.wire_latency_us * factor + p.nic_rx_us)


def _xrack_proc(fabric: TopoFabric, src_id: int, dst_id: int, nbytes: int):
    p = fabric.params
    factor = (fabric.injector.link_factor(src_id, dst_id)
              if fabric.injector is not None else 1.0)
    yield fabric.env.timeout(p.nic_tx_us)
    link = fabric._egress[src_id]
    yield link.acquire()
    try:
        yield fabric.env.timeout((nbytes / p.bandwidth_bpus) * factor)
    finally:
        link.release()
    up = fabric._uplink[fabric._up_key(src_id, dst_id)]
    yield up.acquire()
    try:
        yield fabric.env.timeout((nbytes / fabric.uplink_bpus) * factor)
    finally:
        up.release()
    yield fabric.env.timeout(fabric._xwire_us * factor + p.nic_rx_us)


def fence_completion(injector, src_id: int, dst_id: int,
                     inner: Event) -> Event:
    """Gate a generator transfer's completion on ``injector.fenced``."""
    since = injector.crashes
    gate = injector.env.event()

    def _done(ev):
        exc = injector.fenced(since, src_id, dst_id) if ev._ok else ev._value
        if exc is None:
            gate.succeed(ev._value)
        else:
            gate.fail(exc)

    inner.add_callback(_done)
    return gate


# ---------------------------------------------------------------------------
# the NIC: every message rides a transfer, every verb is a process
# ---------------------------------------------------------------------------

def post(nic: NIC, dst_id: int, payload: Any, size: int, tag: Any,
         done: Optional[Event] = None) -> None:
    if size < 0:
        raise ConfigError("negative message size")
    nic.sends += 1
    env = nic.env
    msg = Message(src=nic.node.id, dst=dst_id, tag=tag,
                  payload=payload, size=size, sent_at=env.now,
                  mid=env.next_id("msg"))
    if env.obs is not None:
        nic._obs_send(msg)
    fabric = nic.fabric
    nbytes = size + nic.params.header_bytes
    wire = fabric.transfer(nic.node.id, dst_id, nbytes)
    wire.add_callback(partial(NIC._delivered, fabric.node(dst_id).nic,
                              msg, done))


def _post_verb(nic: NIC, dst: int, op: int, addr: int, rkey: int,
               a, b, wire: int) -> Event:
    name = _OP_NAMES[op]
    if op == _OP_READ:
        gen = _read_proc(nic, dst, addr, rkey, a, wire)
    elif op == _OP_WRITE:
        gen = _write_proc(nic, dst, addr, rkey, a, wire)
    else:
        gen = _atomic_proc(nic, dst, addr, rkey, name, a, b)
    return nic.env.process(gen, name=f"{name}@{nic.node.id}")


def _check_verb_fault(nic: NIC, dst_id: int) -> None:
    """Fault hook: raises RdmaError inside an injected failure window."""
    injector = nic.fabric.injector
    if injector is not None:
        injector.verb_fault(nic.node.id, dst_id)


def _read_proc(nic, dst_id, addr, rkey, length, wire):
    p = nic.params
    _check_verb_fault(nic, dst_id)
    yield nic.env.timeout(p.post_us)
    # request descriptor to target
    yield nic.fabric.transfer(nic.node.id, dst_id, p.header_bytes)
    yield nic.env.timeout(p.rdma_turnaround_us)
    data = nic.fabric.node(dst_id).memory.rdma_read(addr, rkey, length)
    # response carrying the data
    yield nic.fabric.transfer(dst_id, nic.node.id, wire + p.header_bytes)
    return data


def _write_proc(nic, dst_id, addr, rkey, data, wire):
    p = nic.params
    _check_verb_fault(nic, dst_id)
    yield nic.env.timeout(p.post_us)
    yield nic.fabric.transfer(nic.node.id, dst_id, wire + p.header_bytes)
    nic.fabric.node(dst_id).memory.rdma_write(addr, rkey, data)
    # hardware ack back to the initiator
    yield nic.fabric.transfer(dst_id, nic.node.id, p.header_bytes)
    return None


def _atomic_proc(nic, dst_id, addr, rkey, op, a, b):
    p = nic.params
    _check_verb_fault(nic, dst_id)
    yield nic.env.timeout(p.post_us)
    yield nic.fabric.transfer(nic.node.id, dst_id, p.header_bytes)
    yield nic.env.timeout(p.atomic_exec_us)
    mem = nic.fabric.node(dst_id).memory
    if op == "cas":
        old = mem.cas64(addr, rkey, a, b)
    else:
        old = mem.faa64(addr, rkey, a)
    yield nic.fabric.transfer(dst_id, nic.node.id, p.header_bytes)
    return old


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def _env_init(init, env, *args, **kwargs):
    init(env, *args, **kwargs)
    env._imm = _HeapImm(env)
    env.run = MethodType(run, env)
    env.run_until_event = MethodType(run_until_event, env)


def _fabric_init(init, fabric, env, *args, **kwargs):
    init(fabric, env, *args, **kwargs)
    if is_reference(env):
        fabric._egress, fabric._uplink = _Links(env), _Links(env)
        fabric._arrival = MethodType(_arrival, fabric)


def _nic_init(init, nic, env, *args, **kwargs):
    init(nic, env, *args, **kwargs)
    if is_reference(env):
        nic.post = MethodType(post, nic)
        nic._post_verb = MethodType(_post_verb, nic)


_PATCHES = ((Environment, _env_init), (Fabric, _fabric_init),
            (NIC, _nic_init))


def _hooked(hook, init):
    def __init__(self, *args, **kwargs):
        hook(init, self, *args, **kwargs)
    return __init__


@contextmanager
def _reference():
    saved = {cls: cls.__init__ for cls, _hook in _PATCHES}
    for cls, hook in _PATCHES:
        cls.__init__ = _hooked(hook, saved[cls])
    try:
        yield
    finally:
        for cls, init in saved.items():
            cls.__init__ = init


def pin_kernel(mode: str):
    """Build the environments (and their fabrics and NICs) of the block
    on ``mode``: ``fast``, the product, or ``slow``, this reference."""
    if mode not in KERNELS:
        raise ConfigError(f"unknown kernel {mode!r} ({'|'.join(KERNELS)})")
    return _reference() if mode == "slow" else nullcontext()


# ---------------------------------------------------------------------------
# the judged runs, on either kernel
# ---------------------------------------------------------------------------

def judged_run(scenario, seed: int = 0, n_nodes: Optional[int] = None,
               kernel: str = "fast", schedule=()):
    """:func:`repro.scenarios.judged_run` on ``kernel``."""
    from repro import scenarios

    with pin_kernel(kernel):
        return scenarios.judged_run(scenario, seed, n_nodes,
                                    schedule=schedule)


def run_check(name: str, seed: int = 0, kernel: str = "fast",
              shrink: bool = True) -> dict:
    """:func:`repro.scenarios.run_check` on ``kernel``."""
    from repro import scenarios

    with pin_kernel(kernel):
        return scenarios.run_check(name, seed, shrink=shrink)


def lab_run(scenario: str = "ncosed", seed: int = 0, n_nodes: int = 0,
            kernel: str = "fast", index: Optional[int] = None) -> dict:
    """:func:`repro.scenarios.lab_run` on ``kernel``: the lab entry
    point ``tests.sim.reference_kernel:lab_run`` of the cross-kernel
    sweeps (``tests/verify/test_kernel_fold.py``)."""
    from repro import scenarios

    with pin_kernel(kernel):
        return scenarios.lab_run(scenario, seed, n_nodes, index)
