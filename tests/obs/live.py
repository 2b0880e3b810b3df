"""Live oracle checking, for tests.

A run is judged by replaying its trace through every oracle
(:meth:`repro.obs.Observability.violations`).  A test may ask for more:
the first violating emission raises :class:`SanitizerError`
from the emitting frame, so the offending event tops the traceback.
:func:`attach` feeds one oracle live, and :func:`observe_live` installs
observability with every oracle of :data:`repro.verify.ALL_ORACLES`
attached; an oracle's ``finish`` is left to a replay.
"""

from repro.verify import ALL_ORACLES

__all__ = ["SanitizerError", "attach", "observe_live"]


class SanitizerError(Exception):
    """A live oracle flagged the event being emitted."""


def attach(oracle, tracer):
    """Feed ``oracle`` each matching event as ``tracer`` emits it, and
    raise :class:`SanitizerError` from the emitting frame on its first
    flag; returns ``oracle``."""
    def live(ev):
        seen = len(oracle.violations)
        oracle.checked += 1
        oracle.feed(tracer.emitted - 1, ev)
        if len(oracle.violations) > seen:
            raise SanitizerError(
                f"[{oracle.NAME}] t={ev.t:.3f} node={ev.node} "
                f"{ev.etype}: {oracle.violations[seen]['msg']}")
    tracer.subscribe(live, tuple(oracle.PREFIXES))
    return oracle


def observe_live(cluster, **kwargs):
    """``cluster.observe(**kwargs)`` with every oracle checking live."""
    obs = cluster.observe(**kwargs)
    for cls in ALL_ORACLES:
        attach(cls(), obs.trace)
    return obs
