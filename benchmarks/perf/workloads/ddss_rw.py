"""ddss-rw: the DDSS data plane; the same layer used two ways.

8 nodes, one closed-loop actor and DDSS client per node x ``OPS``
gets/puts each over 256 units of 128-384 B spread over the homes, units
drawn Zipf(0.9).  Unit sizes are drawn from the seed because with one
size the median get is the same analytic constant for every seed.  One
actor per node because with 12 to 40 the pooled p99 sits on the STRICT
lock's exponential-backoff ladder and hops a rung (14-17 %) from seed
to seed; at 8 it is below the ladder and holds within 0.2 %.  The dlm is not involved: DDSS locks
units with its own CAS word.

Cells
-----
``{null,strict,delta}-{r95,w50}``: coherence model x write share (5 %
or 50 % puts).  NULL is the bare verb path, STRICT takes the unit lock
on both sides, DELTA serves reads from the client cache after an 8-byte
version check.  A read-side gain that costs writers shows as ``r95`` up
and ``w50`` down.

Set-up (charged to ``setup_s``): allocate and fill every unit, then
resolve every key on every client, so the timed region is data plane
only.
"""

from __future__ import annotations

import numpy as np

from repro.ddss import DDSS, Coherence
from repro.errors import ReproError
from repro.net import Cluster
from repro.workloads import ZipfGenerator

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "ddss-rw"
LAYER = "ddss"
CELLS = ("null-r95", "null-w50", "strict-r95", "strict-w50",
         "delta-r95", "delta-w50")

N_NODES = 8
ACTORS = 8
OPS = 600
N_UNITS = 256
UNIT_BYTES = (128, 384)  # per unit, drawn from the seed; mean 256
ALPHA = 0.9
WRITE_SHARE = {"r95": 0.05, "w50": 0.5}


class DdssCell(Cell):
    def __init__(self, name, seed, rec, actors=ACTORS, ops=OPS):
        super().__init__()
        self.name = name
        self.rec = rec
        model, mix = name.split("-")
        self.model = Coherence[model.upper()]
        rng = np.random.default_rng([seed, 2, CELLS.index(name)])
        shape = (actors, ops)
        self.unit = ZipfGenerator(N_UNITS, ALPHA, rng).batch(
            actors * ops).reshape(shape).tolist()
        self.is_put = (rng.random(shape) < WRITE_SHARE[mix]).tolist()
        # payloads are one byte repeated, so a get can be checked
        # against the set of bytes ever put into that unit
        self.fill = rng.integers(1, 256, shape).tolist()
        self.starts = rng.uniform(0.0, 20.0, actors).tolist()
        self.sizes = rng.integers(UNIT_BYTES[0], UNIT_BYTES[1] + 1,
                                  N_UNITS).tolist()

    def build(self):
        self.cluster = Cluster(n_nodes=N_NODES, seed=0)
        env = self.cluster.env
        ddss = DDSS(self.cluster)
        self.stores = [ddss.client(node) for node in self.cluster.nodes]
        self.keys = []
        env.run_until_event(env.process(self._setup(), name="ddss-setup"))
        self.written = [{0} for _ in range(N_UNITS)]
        for row_u, row_p, row_f in zip(self.unit, self.is_put, self.fill):
            for u, p, f in zip(row_u, row_p, row_f):
                if p:
                    self.written[u].add(f)
        self.lat = []
        self.done = 0
        self.raised = 0
        self.last_done = 0.0
        self.bad = []
        for a in range(len(self.starts)):
            env.process(self._actor(env, a), name=f"ddss-actor-{a}")
        self.t_first = env.now + min(self.starts)
        self.s0 = [(s.gets, s.cache_hits) for s in self.stores]
        self.c0 = net_counters(self.cluster)

    def _setup(self):
        first = self.stores[0]
        for u in range(N_UNITS):
            key = yield first.allocate(self.sizes[u], coherence=self.model,
                                       placement=u % N_NODES)
            yield first.put(key, bytes(self.sizes[u]))
            self.keys.append(key)
        for store in self.stores[1:]:
            for key in self.keys:
                yield store.lookup(key)

    def _actor(self, env, a):
        store = self.stores[a % N_NODES]
        rec = self.rec
        yield env.timeout(self.starts[a])
        for u, is_put, fill in zip(self.unit[a], self.is_put[a],
                                   self.fill[a]):
            key = self.keys[u]
            size = self.sizes[u]
            t0 = env.now
            try:
                if is_put:
                    sid = rec.begin("ddss", "put", t0) if rec is not None else 0
                    yield store.put(key, bytes([fill]) * size)
                else:
                    sid = rec.begin("ddss", "get", t0) if rec is not None else 0
                    data = yield store.get(key)
                    if len(data) != size or data[0] not in \
                            self.written[u] or data.count(data[0]) != size:
                        self.bad.append((a, u, bytes(data[:4])))
            except ReproError:
                self.raised += 1
                continue
            t1 = env.now
            if rec is not None:
                rec.end(sid, t1)
            self.lat.append(t1 - t0)
            self.done += 1
            self.last_done = t1

    def drain(self):
        self.cluster.env.run()

    def finish(self):
        if self.bad:
            raise CheckFailed(
                "ddss-payload", f"{NAME}.{self.name}: actor/unit/bytes "
                f"{self.bad[0]}: a get returned a payload no put wrote")
        attempted = sum(len(row) for row in self.unit)
        counters = delta(net_counters(self.cluster), self.c0)
        counters["ddss.gets"] = sum(
            s.gets - g0 for s, (g0, _) in zip(self.stores, self.s0))
        counters["ddss.hits"] = sum(
            s.cache_hits - h0 for s, (_, h0) in zip(self.stores, self.s0))
        return CellResult(
            ops=self.done, attempted=attempted,
            failed=attempted - self.done,
            makespan_us=self.last_done - self.t_first,
            latencies=self.lat, counters=counters)


def make_cell(name, seed, rec):
    return DdssCell(name, seed, rec)
