"""Reference twin of ``Environment.run_until_event``.

A frozen copy of the method as it stood before the fast kernel's
batched drain served it: one deadlock check, one limit check and one
:meth:`~repro.sim.Environment.step` per entry until the awaited event
is triggered, then single steps through the current instant until it
is processed.  The product must stop at the same agenda position — the
same ``now``, ``_seq`` and pending entries — and raise the same errors
(``tests/sim/test_until_drain.py``).  Only the receiver differs from
the original (a function of ``env``, not a method); do not optimise
this file.
"""

from __future__ import annotations

from typing import Any

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["run_until_event"]


def run_until_event(env: Environment, event: Event,
                    limit: float = 1e12) -> Any:
    """Run until ``event`` has fired.  Raises if the agenda drains or
    the time ``limit`` passes first (deadlock detector for tests)."""
    while not event.triggered:
        if not env._imm and not env._heap:
            raise SimulationError(
                "agenda empty before awaited event fired (deadlock?)")
        if env.peek() > limit:
            raise SimulationError(f"event did not fire before t={limit}")
        env.step()
    # Drain zero-delay follow-ups so the event's callbacks have run.
    while not event.processed and (env._imm
                                   or env.peek() <= env.now):
        env.step()
    if not event._ok:
        raise event._value
    return event._value
