"""locks-zipf: dlm does the protocol work.

8 nodes, 16 locks, ``N_CLIENTS`` closed-loop clients x ``ROUNDS`` lock
rounds each; locks drawn Zipf(1.2), 20 % shared; think 20-200 us, hold
2-10 us, starts spread over 2 ms.  Few clients and many rounds each:
with a 128-client herd the tail is set by a handful of queueing
episodes and p99 swung 23-27 % between seeds; at 16 clients it holds
within about 6 %.  Every draw is made up front from
the seed, so all eight cells are offered the identical schedule and
differ only in how the design drains it.  obs off, no oracle.

Cells
-----
``srsl dqnl ncosed mcs alock``      the five designs, fault-free path.
``ncosed-ft mcs-ft alock-ft``       the lease-fenced designs with
    ``lease_us=600`` (epochs, reaper, lease-bounded waits all on), so
    "FT off is a configuration of one path" has both sides measured.
    No node crashes here: with crash-and-restart plans the fenced
    designs left waiters wedged on about one cell-seed in ten (9 of 84
    tried), and a workload must not lose operations.  Recovery under a
    crash is measured by topo-checked.

A round whose acquire or release raises is retried after its think
time: an op fails only if it has not completed by the horizon.

op = one lock round; latency = first request -> release acknowledged,
hold included (request -> grant alone is the same constant for every
uncontended acquire, whatever the seed).
"""

from __future__ import annotations

import numpy as np

from repro.dlm import (ALockManager, DQNLManager, LockMode, MCSManager,
                       NCoSEDManager, SRSLManager)
from repro.errors import ReproError
from repro.net import Cluster
from repro.workloads import ZipfGenerator

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "locks-zipf"
LAYER = "dlm"
CELLS = ("srsl", "dqnl", "ncosed", "mcs", "alock",
         "ncosed-ft", "mcs-ft", "alock-ft")

N_NODES = 8
N_LOCKS = 16
N_CLIENTS = 16
ROUNDS = 128
ALPHA = 1.2
SHARED_FRAC = 0.2
START_US = 2_000.0
THINK_US = (20.0, 200.0)
LEASE_US = 600.0
HORIZON_US = 100_000.0

MANAGERS = {"srsl": SRSLManager, "dqnl": DQNLManager,
            "ncosed": NCoSEDManager, "mcs": MCSManager,
            "alock": ALockManager}


def schedule(seed, n_clients=N_CLIENTS, rounds=ROUNDS):
    """The offered schedule: one row of per-round draws per client."""
    rng = np.random.default_rng([seed, 1])
    shape = (n_clients, rounds)
    return {
        "start": rng.uniform(0.0, START_US, n_clients).tolist(),
        "think": rng.uniform(*THINK_US, shape).tolist(),
        "hold": rng.uniform(2.0, 10.0, shape).tolist(),
        "shared": (rng.random(shape) < SHARED_FRAC).tolist(),
        "lock": ZipfGenerator(N_LOCKS, ALPHA, rng).batch(
            n_clients * rounds).reshape(shape).tolist(),
    }


class LockCell(Cell):
    def __init__(self, name, seed, rec, n_clients=N_CLIENTS, rounds=ROUNDS,
                 horizon_us=HORIZON_US):
        super().__init__()
        self.name = name
        self.rec = rec
        self.scheme, _, ft = name.partition("-")
        self.ft = ft == "ft"
        self.rounds = rounds
        self.horizon_us = horizon_us
        self.sched = schedule(seed, n_clients, rounds)

    def build(self):
        self.cluster = Cluster(n_nodes=N_NODES, seed=0)
        env = self.cluster.env
        kwargs = {"lease_us": LEASE_US} if self.ft else {}
        self.manager = MANAGERS[self.scheme](self.cluster, n_locks=N_LOCKS,
                                             **kwargs)
        n = len(self.sched["start"])
        self.clients = [self.manager.client(self.cluster.nodes[i % N_NODES])
                        for i in range(n)]
        self.lat = []
        self.grants = 0
        self.raised = 0
        self.done = 0
        self.last_done = 0.0
        self.unsafe = None
        for i in range(n):
            env.process(self._client(env, i), name=f"arena-{i}")
        self.c0 = net_counters(self.cluster)

    def _client(self, env, i):
        client = self.clients[i]
        s = self.sched
        rec = self.rec
        yield env.timeout(s["start"][i])
        for r in range(self.rounds):
            mode = LockMode.SHARED if s["shared"][i][r] else LockMode.EXCLUSIVE
            lock = s["lock"][i][r]
            think = s["think"][i][r]
            t0 = env.now
            while True:
                sid = (rec.begin("dlm", "acquire", env.now)
                       if rec is not None else 0)
                try:
                    yield client.acquire(lock, mode)
                    if rec is not None:
                        rec.end(sid, env.now)
                    self.grants += 1
                    yield env.timeout(s["hold"][i][r])
                    sid = (rec.begin("dlm", "release", env.now)
                           if rec is not None else 0)
                    yield client.release(lock)
                    if rec is not None:
                        rec.end(sid, env.now)
                except ReproError as exc:
                    if str(exc).startswith("SAFETY"):
                        self.unsafe = exc
                        return
                    self.raised += 1
                    yield env.timeout(think)
                    continue
                break
            self.lat.append(env.now - t0)
            self.done += 1
            self.last_done = env.now
            yield env.timeout(think)

    def drain(self):
        # rounds not completed by the horizon (wedged, or a node that
        # stayed down) are the cell's `failed`
        self.cluster.env.run(until=self.horizon_us)

    def finish(self):
        if self.unsafe is not None:
            raise CheckFailed("lock-ledger",
                              f"{NAME}.{self.name}: {self.unsafe}")
        acquires = sum(c.acquires for c in self.clients)
        if self.grants + self.raised < self.done or \
                acquires < self.grants:
            raise CheckFailed(
                "lock-accounting", f"{NAME}.{self.name}: grants "
                f"{self.grants} + raised {self.raised} vs acquires "
                f"{acquires}, completed {self.done}")
        held = {k: v for k, v in self.manager.holders.items() if v}
        attempted = self.rounds * len(self.clients)
        if self.done == attempted and held:
            raise CheckFailed(
                "lock-ledger", f"{NAME}.{self.name}: every round was "
                f"released yet the safety ledger still holds {held}")
        counters = delta(net_counters(self.cluster), self.c0)
        counters["dlm.grants"] = self.grants
        counters["dlm.acquires"] = acquires
        return CellResult(
            ops=self.done, attempted=attempted,
            failed=attempted - self.done,
            makespan_us=self.last_done - min(self.sched["start"]),
            latencies=self.lat, counters=counters)


def make_cell(name, seed, rec):
    return LockCell(name, seed, rec)
