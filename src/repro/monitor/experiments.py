"""Harnesses for the two monitoring experiments (paper Fig. 8a/8b).

``accuracy_trace`` — one loaded back-end with a fluctuating thread
count; sample each scheme's reported thread count against ground truth.

``lb_throughput`` — a front-end dispatches a two-service workload (Zipf
static content + RUBiS-style dynamic transactions) across back-ends
using a monitored least-loaded balancer; steady-state TPS per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import MonitorError
from repro.net.cluster import Cluster
from repro.net.params import NetworkParams

from repro.cache.store import LRUStore
from repro.datacenter.metrics import DataCenterMetrics
from repro.monitor.kernel import KernelStats
from repro.monitor.loadbalancer import MonitoredLoadBalancer
from repro.monitor.schemes import MONITOR_SCHEMES
from repro.workloads.rubis import RubisMix
from repro.workloads.threads import ThreadChurn
from repro.workloads.zipf import ZipfGenerator

__all__ = ["accuracy_trace", "lb_throughput", "AccuracyResult"]


@dataclass
class AccuracyResult:
    scheme: str
    samples: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def deviations(self) -> List[int]:
        return [abs(rep - act) for _t, rep, act in self.samples]

    @property
    def mean_abs_deviation(self) -> float:
        devs = self.deviations
        return sum(devs) / len(devs) if devs else 0.0

    @property
    def max_deviation(self) -> int:
        return max(self.deviations, default=0)


#: Fig. 8a: how often the sampler asks, and how far the back-end's
#: thread count swings around :data:`repro.workloads.threads.BASE`
SAMPLE_EVERY_US = 2_000.0
SWING = 10


def accuracy_trace(scheme: str, duration_us: float = 200_000.0,
                   seed: int = 0,
                   period_us: float = None) -> AccuracyResult:
    """Fig. 8a: reported-vs-actual thread count on one churning node.

    ``period_us`` overrides the push/poll period of an async scheme; a
    sync scheme has no period and refuses one.
    """
    if scheme not in MONITOR_SCHEMES:
        raise MonitorError(f"unknown scheme {scheme!r}")
    cls = MONITOR_SCHEMES[scheme]
    if period_us is not None and not cls.PERIODIC:
        raise MonitorError(f"scheme {scheme!r} has no push/poll period; "
                           f"got period_us={period_us!r}")
    cluster = Cluster(names=["front", "back"],
                      params=NetworkParams.infiniband(), seed=seed)
    front, back = cluster.nodes
    churn = ThreadChurn(back, cluster.rng.get("churn"), swing=SWING)
    stats = KernelStats(back)
    kw = {} if period_us is None else {"period_us": period_us}
    monitor = cls(front, {back.id: stats}, **kw)
    result = AccuracyResult(scheme=scheme)

    def sampler(env):
        # let the async schemes prime their caches
        yield env.timeout(SAMPLE_EVERY_US)
        while env.now < duration_us:
            report = yield monitor.query(back.id)
            result.samples.append(
                (env.now, report["n_threads"], churn.current))
            yield env.timeout(SAMPLE_EVERY_US)

    cluster.env.process(sampler(cluster.env))
    cluster.env.run(until=duration_us + 1_000.0)
    return result


#: static-content service constants (µs)
_STATIC_HIT_US = 40.0
_STATIC_MISS_US = 420.0
#: share of requests that are RUBiS transactions
_RUBIS_SHARE = 0.3
#: per-back static cache size in documents
_BACK_CACHE_DOCS = 120
#: Fig. 8b: back-ends, closed-loop sessions, and the warm-up before the
#: measured window (µs)
N_BACK = 4
N_SESSIONS = 16
WARMUP_US = 100_000.0


def lb_throughput(scheme: str, alpha: float,
                  measure_us: float = 400_000.0,
                  seed: int = 0) -> float:
    """Fig. 8b: data-center TPS with a monitor-driven load balancer."""
    if scheme not in MONITOR_SCHEMES:
        raise MonitorError(f"unknown scheme {scheme!r}")
    names = ["front"] + [f"back{i}" for i in range(N_BACK)]
    cluster = Cluster(names=names, params=NetworkParams.infiniband(),
                      seed=seed)
    env = cluster.env
    front = cluster.nodes[0]
    backs = cluster.nodes[1:]
    stats = {b.id: KernelStats(b) for b in backs}
    # external load the front-end cannot see except through monitoring:
    # other tenants / services sharing the back-end nodes
    churns = [ThreadChurn(b, cluster.rng.get(f"churn{b.id}"),
                          swing=12, step_every_us=500.0, max_step=8)
              for b in backs]
    monitor = MONITOR_SCHEMES[scheme](front, stats)
    balancer = MonitoredLoadBalancer(monitor)
    zipf = ZipfGenerator(2_000, alpha, cluster.rng.get("zipf"))
    rubis = RubisMix(cluster.rng.get("rubis"))
    kind_rng = cluster.rng.get("reqkind")
    metrics = DataCenterMetrics(env)
    # tiny per-back static-content caches: high alpha -> high hit rate ->
    # cheap, uniform service; low alpha -> divergent service times
    caches = {b.id: LRUStore(_BACK_CACHE_DOCS * 8_192) for b in backs}
    nodes_by_id = {b.id: b for b in backs}

    def serve(env, back_id: int):
        """One request's work on the chosen back-end."""
        back = nodes_by_id[back_id]
        ks = stats[back_id]
        ks.connections += 1
        try:
            if kind_rng.random() < _RUBIS_SHARE:
                txn = rubis.next()
                yield back.cpu.run(txn.cpu_us, name=txn.name)
                resp = txn.resp_bytes
            else:
                doc = zipf.next()
                cache = caches[back_id]
                if cache.get(doc) is not None:
                    yield back.cpu.run(_STATIC_HIT_US, name="static-hit")
                else:
                    yield back.cpu.run(_STATIC_MISS_US, name="static-miss")
                    cache.insert(doc, 8_192, b"x" * 8)
                resp = 8_192
        finally:
            ks.connections -= 1
        return resp

    def session(env, idx: int):
        yield env.timeout(idx * 7.0)
        while True:
            t0 = env.now
            back_id = yield balancer.pick()
            try:
                yield front.fabric.transfer(front.id, back_id, 256)
                resp = yield env.process(serve(env, back_id))
                yield front.fabric.transfer(back_id, front.id, resp)
            finally:
                balancer.done(back_id)
            metrics.record(t0)

    for i in range(N_SESSIONS):
        env.process(session(env, i), name=f"mon-session-{i}")
    env.run(until=WARMUP_US)
    metrics.start_window()
    env.run(until=WARMUP_US + measure_us)
    return metrics.tps()
