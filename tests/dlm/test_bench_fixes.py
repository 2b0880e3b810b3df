"""Regression tests for the lock-benchmark harness bugfix.

:func:`repro.dlm.bench.cascade_latency` crashed on an empty ``max()``
when a scheme wedged before granting *any* waiter, and silently
reported a partial cascade when only *some* waiters were granted.  It
must now raise a :class:`LockError` naming the scheme and the stuck
waiter tokens, and report ``n_granted`` on success.
"""

import pytest

from repro.dlm import DQNLManager, LockMode, NCoSEDManager, SRSLManager
from repro.dlm.base import LockClient, LockManagerBase
from repro.dlm.bench import cascade_latency
from repro.errors import LockError


class _WedgedClient(LockClient):
    """Grants the first acquire, then parks every later one forever."""

    def _acquire(self, lock_id, mode):
        if self.manager.granted_once:
            yield self.env.timeout(10.0)
            # spin forever: this waiter is never granted
            while True:
                yield self.env.timeout(1e9)
        self.manager.granted_once = True
        yield self.env.timeout(1.0)
        self._granted(lock_id, mode)

    def _release(self, lock_id):
        yield self.env.timeout(1.0)
        self._released(lock_id)


class _WedgedManager(LockManagerBase):
    """Pathological scheme: only the first acquire ever succeeds."""

    SCHEME = "wedged"

    def __init__(self, cluster, n_locks=4, **kw):
        super().__init__(cluster, n_locks=n_locks, **kw)
        self.granted_once = False

    def client(self, node):
        return _WedgedClient(self, node)


class TestCascadeWedgeDiagnostics:
    def test_total_wedge_raises_instead_of_empty_max(self):
        # every waiter stuck: the old code crashed on max(()) here
        with pytest.raises(LockError) as exc:
            cascade_latency(_WedgedManager, n_waiters=3,
                            mode=LockMode.EXCLUSIVE,
                            grant_timeout_us=5_000.0)
        msg = str(exc.value)
        assert "wedged" in msg
        assert "0/3 waiters granted" in msg

    def test_partial_cascade_is_an_error_not_a_short_report(self):
        # two grants total (holder + first waiter): the cascade then
        # stalls at 1/3 and must be reported as an error, not as a
        # silently short grant_times list
        class _TwoGrantsClient(_WedgedClient):
            def _acquire(self, lock_id, mode):
                if self.manager.granted_once >= 2:
                    yield self.env.timeout(10.0)
                    while True:
                        yield self.env.timeout(1e9)
                self.manager.granted_once += 1
                # wait for the current holder to drain first
                while self.manager.holder_count(lock_id):
                    yield self.env.timeout(5.0)
                self._granted(lock_id, mode)

        class _TwoGrants(LockManagerBase):
            SCHEME = "twogrants"

            def __init__(self, cluster, n_locks=4, **kw):
                super().__init__(cluster, n_locks=n_locks, **kw)
                self.granted_once = 0

            def client(self, node):
                return _TwoGrantsClient(self, node)

        with pytest.raises(LockError) as exc:
            cascade_latency(_TwoGrants, n_waiters=3,
                            mode=LockMode.EXCLUSIVE,
                            grant_timeout_us=5_000.0)
        msg = str(exc.value)
        assert "1/3 waiters granted" in msg
        # the stuck waiters are named with their tokens
        assert "stuck" in msg and "tokens" in msg

    @pytest.mark.parametrize("scheme_cls",
                             [SRSLManager, DQNLManager, NCoSEDManager])
    def test_healthy_scheme_reports_full_cascade(self, scheme_cls):
        timings = cascade_latency(scheme_cls, n_waiters=4,
                                  mode=LockMode.EXCLUSIVE)
        assert timings["n_granted"] == timings["n_waiters"] == 4
        assert timings["cascade_us"] > 0
        assert len(timings["grant_times"]) == 4

