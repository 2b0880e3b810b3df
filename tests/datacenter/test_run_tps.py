"""Metamorphic checks of :meth:`DataCenter.run_tps`, Fig 6's accounting.

``run_tps`` warms the caches, resets the window and reports completed
transactions per second of the window.  At steady state neither a
doubled measurement window nor a doubled warm-up may move that rate.

Tolerance: the clients are a closed loop of ``N`` sessions, so at most
``N`` transactions are in flight, and a window edge cuts at most ``N``
of them.  A window's count is therefore the steady rate times its
length within ``±N`` at each edge it shares with no other window, and
two windows' rates agree within ``2N / C`` of each other, relative, ``C``
being the smaller window's count.  The configuration is small — 50
documents of 8 kB, every one cached at every proxy after the warm-up,
so a request's service does not depend on which document it draws —
which keeps the steady rate exact and the bound tight (0.36 % here).
A scheme whose hits are local or remote at random (MTACC, CCWR) moves
by about 1 % from one 20 ms window to the next, beyond any such bound;
it is left out, not given a looser bound.
"""

import pytest

from repro.datacenter import DataCenter

N_SESSIONS = 8
WARMUP_US = 20_000.0
MEASURE_US = 20_000.0


def _tps(scheme, warmup_us, measure_us):
    dc = DataCenter(n_proxies=2, scheme=scheme, n_docs=50, doc_bytes=8_192,
                    cache_bytes=4 * 1024 * 1024, n_sessions=N_SESSIONS,
                    seed=1)
    return dc.run_tps(warmup_us=warmup_us, measure_us=measure_us), \
        dc.metrics.completed


@pytest.mark.parametrize("scheme", ["AC", "HYBCC"])
def test_doubled_window_or_warmup_keeps_the_rate(scheme):
    tps, count = _tps(scheme, WARMUP_US, MEASURE_US)
    bound = 2 * N_SESSIONS / count
    assert count > 1_000 and bound < 0.005
    longer, _ = _tps(scheme, WARMUP_US, 2 * MEASURE_US)
    warmer, _ = _tps(scheme, 2 * WARMUP_US, MEASURE_US)
    assert abs(longer - tps) / tps <= bound, (tps, longer)
    assert abs(warmer - tps) / tps <= bound, (tps, warmer)
