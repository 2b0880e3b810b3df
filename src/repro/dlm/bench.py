"""Reusable lock-manager experiment harnesses (paper Fig. 5).

``cascade_latency`` reproduces the paper's cascading-unlock experiment:
one client holds a lock exclusively while N other clients (one per node)
queue behind it; at release time the grants cascade and we measure the
time from the release until the *last* waiter holds the lock.

* shared cascade (Fig. 5a): all waiters request SHARED — N-CoSED grants
  them in one volley, DQNL serializes them.
* exclusive cascade (Fig. 5b): waiters request EXCLUSIVE and each
  releases immediately when granted, handing down the chain.

A scheme that wedges (a waiter never granted) fails loudly: the cascade
wait is bounded and the resulting :class:`~repro.errors.LockError`
names the scheme and the stuck waiters instead of crashing on an empty
``max()`` or silently reporting a partial cascade.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.errors import LockError
from repro.net.cluster import Cluster
from repro.net.params import NetworkParams
from repro.sim import AnyOf

from repro.dlm.base import LockManagerBase, LockMode

__all__ = ["cascade_latency"]

#: settle time (µs) for all waiters to be enqueued before the release
_SETTLE_US = 5_000.0

#: bound (µs) on the whole cascade after the holder releases;
#: generous against the worst legitimate chain, tight against a wedge
_CASCADE_TIMEOUT_US = 1_000_000.0

#: the cluster's seed
SEED = 0


def cascade_latency(scheme_cls: Type[LockManagerBase], n_waiters: int,
                    mode: LockMode) -> Dict[str, object]:
    """Run one cascade experiment; returns timings in µs.

    Raises :class:`LockError` naming the scheme and the stuck waiter
    tokens if any waiter is still ungranted :data:`_CASCADE_TIMEOUT_US`
    after the holder's release.
    """
    if n_waiters < 1:
        raise ValueError("need at least one waiter")
    cluster = Cluster(n_nodes=n_waiters + 2,
                      params=NetworkParams.infiniband(), seed=SEED)
    manager = scheme_cls(cluster, n_locks=4)
    lock_id = 0  # homed on node 0
    holder = manager.client(cluster.nodes[1])
    waiters = [manager.client(cluster.nodes[i + 2])
               for i in range(n_waiters)]
    grant_times: Dict[int, float] = {}  # waiter index -> grant instant
    timings: Dict[str, object] = {}

    def waiter_proc(env, client, idx):
        # stagger the enqueue slightly so CAS order is deterministic
        yield env.timeout(10.0 * (idx + 1))
        yield client.acquire(lock_id, mode)
        grant_times[idx] = env.now
        # release right away: exclusive waiters hand down the chain, and
        # schemes without a native shared mode (DQNL) need the release to
        # let the serialized "shared" queue progress at all
        yield client.release(lock_id)

    def main(env):
        yield holder.acquire(lock_id, LockMode.EXCLUSIVE)
        procs = [env.process(waiter_proc(env, w, i))
                 for i, w in enumerate(waiters)]
        yield env.timeout(_SETTLE_US)  # everyone is queued and blocked
        t_release = env.now
        yield holder.release(lock_id)
        # bounded wait: a wedged scheme must fail, not hang or crash
        yield AnyOf(env, [env.all_of(procs),
                          env.timeout(_CASCADE_TIMEOUT_US)])
        timings["t_release"] = t_release
        timings["n_granted"] = len(grant_times)
        if len(grant_times) < n_waiters:
            stuck = sorted(set(range(n_waiters)) - set(grant_times))
            raise LockError(
                f"cascade stalled for scheme {scheme_cls.SCHEME!r}: "
                f"{len(grant_times)}/{n_waiters} waiters granted "
                f"{_CASCADE_TIMEOUT_US:.0f}us after the release; stuck "
                f"waiters (tokens): "
                f"{[(i, waiters[i].token) for i in stuck]}")
        last = max(grant_times.values())
        timings["last_grant"] = last
        timings["cascade_us"] = last - t_release
        timings["grant_times"] = sorted(
            t - t_release for t in grant_times.values())

    done = cluster.env.process(main(cluster.env))
    cluster.env.run_until_event(done)
    timings["n_waiters"] = n_waiters
    timings["mode"] = mode.value
    timings["scheme"] = scheme_cls.SCHEME
    return timings

