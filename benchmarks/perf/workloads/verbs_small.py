"""verbs-small: sim + net do all the work; no primitive, no service.

8 InfiniBand nodes; every op is one 8-byte one-sided verb or one
64-byte two-sided ping-pong.  A kernel or NIC optimisation shows here
at full strength; a dlm/ddss/txn/cache/obs change must not move it.

Cells
-----
``few``       8 clients (one per node, each targeting a different node)
              x ``FEW_ITERS`` iterations of cas, faa, write, read:
              uncontended, so every verb stays on the analytic fast path
              and the agenda holds <= 8 entries.
``many``      ``MANY_CLIENTS`` clients x ``MANY_ITERS`` iterations at
              random targets: NICs saturate, verbs fall off the fast
              path and the agenda grows past the 1024-entry threshold
              where the ladder queue engages.
``pingpong``  8 pairs x ``PING_ITERS`` send/recv round trips of 64 B.
"""

from __future__ import annotations

import numpy as np

from repro.net import Cluster

from perf.harness import Cell, CellResult, CheckFailed, delta, net_counters

NAME = "verbs-small"
LAYER = "net"
CELLS = ("few", "many", "pingpong")

N_NODES = 8
FEW_ITERS = 300
MANY_CLIENTS = 2048
MANY_ITERS = 2
PING_ITERS = 300
PING_BYTES = 64
SLOT = 32  # bytes of target memory per client: cas, faa, data, spare


class _NetCell(Cell):
    """Shared tail of the three cells: every client records its ops
    done, its last completion and any payload it did not expect."""

    def _start(self, n_clients):
        self.cluster = Cluster(n_nodes=N_NODES, seed=0)
        self.lat = []
        self.done = [0] * n_clients
        self.ends = [0.0] * n_clients
        self.bad = []
        return self.cluster.env

    def drain(self):
        self.cluster.env.run()

    def _result(self, attempted):
        if self.bad:
            raise CheckFailed(
                "verbs-payload", f"{NAME}.{self.name}: client/iteration "
                f"{self.bad[0]} got back a value nobody sent or wrote")
        ops = sum(self.done)
        return CellResult(
            ops=ops, attempted=attempted, failed=attempted - ops,
            makespan_us=max(self.ends) - min(self.starts),
            latencies=self.lat,
            counters=delta(net_counters(self.cluster), self.c0))


class _VerbCell(_NetCell):
    def __init__(self, name, seed, rec, n_clients, iters, spread_targets):
        super().__init__()
        self.name = name
        self.rec = rec
        self.iters = iters
        rng = np.random.default_rng([seed, CELLS.index(name)])
        if spread_targets:
            shift = int(rng.integers(1, N_NODES))
            self.targets = [(i + shift) % N_NODES for i in range(n_clients)]
        else:
            self.targets = [
                (i % N_NODES + int(rng.integers(1, N_NODES))) % N_NODES
                for i in range(n_clients)]
        self.starts = rng.uniform(0.0, 5.0, n_clients).tolist()

    def build(self):
        n = len(self.targets)
        env = self._start(n)
        self.regions = [node.memory.register(n * SLOT, name="perf")
                        for node in self.cluster.nodes]
        for i in range(n):
            env.process(self._client(env, i), name=f"verbs-{i}")
        self.c0 = net_counters(self.cluster)

    def _client(self, env, i):
        nic = self.cluster.nodes[i % N_NODES].nic
        key = self.regions[self.targets[i]].remote_key()
        off = i * SLOT
        rec = self.rec
        lat = self.lat.append
        yield env.timeout(self.starts[i])
        for it in range(self.iters):
            word = it.to_bytes(8, "big")
            t0 = env.now
            sid = rec.begin("net", "cas_key", t0) if rec is not None else 0
            old = yield nic.cas_key(key, off, it, it + 1)
            t1 = env.now
            lat(t1 - t0)
            if rec is not None:
                rec.end(sid, t1)
                sid = rec.begin("net", "faa_key", t1)
            prev = yield nic.faa_key(key, off + 8, 1)
            t2 = env.now
            lat(t2 - t1)
            if rec is not None:
                rec.end(sid, t2)
                sid = rec.begin("net", "write_key", t2)
            yield nic.write_key(key, word, off + 16)
            t3 = env.now
            lat(t3 - t2)
            if rec is not None:
                rec.end(sid, t3)
                sid = rec.begin("net", "read_key", t3)
            data = yield nic.read_key(key, off + 16, 8)
            t4 = env.now
            lat(t4 - t3)
            if rec is not None:
                rec.end(sid, t4)
            if old != it or prev != it or bytes(data) != word:
                self.bad.append((i, it))
            self.done[i] += 4
            self.ends[i] = t4

    def finish(self):
        for i, target in enumerate(self.targets):
            if self.regions[target].read_u64(i * SLOT + 8) != self.done[i] // 4:
                raise CheckFailed(
                    "verbs-payload", f"{NAME}.{self.name}: faa counter of "
                    f"client {i} disagrees with its completed iterations")
        return self._result(4 * self.iters * len(self.targets))


class _PingPong(_NetCell):
    def __init__(self, seed, rec):
        super().__init__()
        self.name = "pingpong"
        self.rec = rec
        rng = np.random.default_rng([seed, CELLS.index("pingpong")])
        shift = int(rng.integers(1, N_NODES))
        self.peers = [(i + shift) % N_NODES for i in range(N_NODES)]
        self.starts = rng.uniform(0.0, 5.0, N_NODES).tolist()

    def build(self):
        env = self._start(N_NODES)
        for i in range(N_NODES):
            env.process(self._echo(i), name=f"echo-{i}")
            env.process(self._ping(env, i), name=f"ping-{i}")
        self.c0 = net_counters(self.cluster)

    def _echo(self, i):
        nic = self.cluster.nodes[self.peers[i]].nic
        for _ in range(PING_ITERS):
            msg = yield nic.recv(tag=("ping", i))
            yield nic.send(msg.src, payload=msg.payload, size=PING_BYTES,
                           tag=("pong", i))

    def _ping(self, env, i):
        nic = self.cluster.nodes[i].nic
        peer = self.peers[i]
        rec = self.rec
        yield env.timeout(self.starts[i])
        for it in range(PING_ITERS):
            t0 = env.now
            sid = rec.begin("net", "pingpong", t0) if rec is not None else 0
            yield nic.send(peer, payload=it, size=PING_BYTES,
                           tag=("ping", i))
            msg = yield nic.recv(tag=("pong", i))
            self.lat.append(env.now - t0)
            if rec is not None:
                rec.end(sid, env.now)
            if msg.payload != it:
                self.bad.append((i, it))
            self.done[i] += 1
            self.ends[i] = env.now

    def finish(self):
        return self._result(PING_ITERS * N_NODES)


def make_cell(name, seed, rec):
    if name == "few":
        return _VerbCell(name, seed, rec, N_NODES, FEW_ITERS, True)
    if name == "many":
        return _VerbCell(name, seed, rec, MANY_CLIENTS, MANY_ITERS, False)
    return _PingPong(seed, rec)
