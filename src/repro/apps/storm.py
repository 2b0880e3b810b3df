"""STORM-style distributed query processing (paper Fig. 3b, ref [20]).

STORM (from the data-cutter family) runs SELECT-style queries over
records partitioned across storage nodes.  A coordinator distributes the
query, each storage node scans its partition, and partial aggregates
flow back.  Two coordination substrates:

* **traditional** — every step is a two-sided request/response with the
  storage node's user-level service process: dataset-metadata exchange,
  query dispatch, completion/result collection.  Those exchanges queue
  behind the scan CPU itself, so coordination inflates as nodes work.
* **DDSS-backed** — metadata is cached under delta coherence, the query
  descriptor and partial results travel through shared-state units with
  one-sided operations, and a fetch-and-add completion counter tells the
  coordinator when everything has landed — no storage-node CPU on the
  coordination path.

Records are real: each node holds a numpy array partition and queries
compute actual counts/sums that tests verify against a direct
evaluation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.net.cluster import Cluster
from repro.net.node import Node
from repro.sim import Event
from repro.transport import rpc

from repro.ddss import DDSS, Coherence

__all__ = ["StormEngine"]

#: scan cost per record (µs) — memory-bound pass over ~100-byte records
SCAN_US_PER_RECORD = 0.01
#: storage-service CPU per handled control message (µs)
SERVICE_MSG_US = 5.0
#: bytes of a metadata / control exchange
CTRL_BYTES = 512
#: bytes of one partial-result record
RESULT_BYTES = 64
#: seed of the record values (every figure and example scans the same
#: dataset)
RECORD_SEED = 3



class StormEngine:
    """Coordinator + storage-node partitions over one cluster: node 0
    coordinates and every other node stores one partition of the
    records, drawn from :data:`RECORD_SEED`."""

    def __init__(self, cluster: Cluster, n_records: int,
                 use_ddss: bool = False):
        if n_records <= 0:
            raise ConfigError("need at least one record")
        self.cluster = cluster
        self.env = cluster.env
        nodes = cluster.nodes
        if len(nodes) < 2:
            raise ConfigError("need a coordinator and >= 1 storage node")
        self.coordinator = nodes[0]
        self.storage = nodes[1:]
        self.use_ddss = use_ddss
        rng = np.random.default_rng(RECORD_SEED)
        values = rng.integers(0, 10_000, size=n_records)
        self.partitions: Dict[int, np.ndarray] = {
            node.id: part for node, part in
            zip(self.storage, np.array_split(values, len(self.storage)))
        }
        self.n_records = n_records
        self.queries_run = 0
        if use_ddss:
            self.ddss = DDSS(cluster, segment_bytes=256 * 1024)
            self._setup_ddss_state()
        else:
            self._start_services()

    # ------------------------------------------------------------------
    # traditional messaging substrate
    # ------------------------------------------------------------------
    def _start_services(self) -> None:
        handlers = {"meta": self._meta, "query": self._scan}
        for node in self.storage:
            self.env.process(rpc.serve(node, "storm", handlers),
                             name=f"storm-svc@{node.name}")

    def _receive(self, node: Node):
        """A storage node's socket receive and service handling."""
        yield rpc.sock(node, CTRL_BYTES)
        yield node.cpu.run(SERVICE_MSG_US, name="storm-ctrl")

    def _meta(self, node: Node, _request: dict):
        yield from self._receive(node)
        yield rpc.sock(node, CTRL_BYTES)
        return {"n": len(self.partitions[node.id])}, CTRL_BYTES

    def _scan(self, node: Node, request: dict):
        yield from self._receive(node)
        part = self.partitions[node.id]
        yield node.cpu.run(len(part) * SCAN_US_PER_RECORD, name="storm-scan")
        mask = (part >= request["lo"]) & (part < request["hi"])
        reply = {"count": int(mask.sum()), "sum": int(part[mask].sum())}
        yield rpc.sock(node, RESULT_BYTES)
        return reply, RESULT_BYTES

    def _exchange(self, body: dict, reply_bytes: int):
        """One call per storage node, then every reply in node order; the
        coordinator pays its socket stack for each send and each reply."""
        coord = self.coordinator
        calls = []
        for node in self.storage:
            yield rpc.sock(coord, CTRL_BYTES)
            calls.append(rpc.call(coord.nic, node.id, "storm", body,
                                  CTRL_BYTES))
        replies = []
        for call in calls:
            replies.append((yield call))
            yield rpc.sock(coord, reply_bytes)
        return replies

    def _run_traditional(self, lo: int, hi: int):
        # phase 1: metadata exchange; phase 2: the query and its partials
        yield from self._exchange({"op": "meta"}, CTRL_BYTES)
        parts = yield from self._exchange(
            {"op": "query", "lo": lo, "hi": hi}, RESULT_BYTES)
        return (sum(r["count"] for r in parts),
                sum(r["sum"] for r in parts))

    # ------------------------------------------------------------------
    # DDSS-backed substrate
    # ------------------------------------------------------------------
    def _setup_ddss_state(self) -> None:
        self._coord_client = self.ddss.client(self.coordinator)
        self._node_clients = {n.id: self.ddss.client(n)
                              for n in self.storage}
        self._state: Dict[str, int] = {}
        self._setup_done = self.env.process(self._ddss_setup(),
                                            name="storm-ddss-setup")
        for node in self.storage:
            self.env.process(self._ddss_service(node),
                             name=f"storm-ddss@{node.name}")

    def _ddss_setup(self):
        cc = self._coord_client
        coord_id = self.coordinator.id
        # dataset metadata: written once, cached under delta coherence
        self._state["meta"] = yield cc.allocate(
            64, coherence=Coherence.DELTA, delta=4, placement=coord_id)
        yield cc.put(self._state["meta"],
                     self.n_records.to_bytes(8, "big"))
        # query descriptor (read-coherent snapshot)
        self._state["query"] = yield cc.allocate(
            32, coherence=Coherence.READ, placement=coord_id)
        # per-node result units + completion counter, homed with the
        # coordinator so collection is node-local
        self._state["done"] = yield cc.allocate(
            8, coherence=Coherence.VERSION, placement=coord_id)
        for node in self.storage:
            self._state[f"res{node.id}"] = yield cc.allocate(
                32, coherence=Coherence.READ, placement=coord_id)
        return None

    def _ddss_service(self, node: Node):
        """Storage loop: doorbell -> shared-state query -> scan -> put."""
        client = self._node_clients[node.id]
        yield self._setup_done
        while True:
            msg = yield node.nic.recv(tag="storm-bell")
            qid = msg.payload
            blob = yield client.get(self._state["query"])
            lo = int.from_bytes(blob[0:8], "big")
            hi = int.from_bytes(blob[8:16], "big")
            # metadata consult: delta-coherent cache, almost always local
            yield client.get(self._state["meta"])
            part = self.partitions[node.id]
            yield node.cpu.run(len(part) * SCAN_US_PER_RECORD,
                               name="storm-scan")
            mask = (part >= lo) & (part < hi)
            payload = (int(mask.sum()).to_bytes(8, "big")
                       + int(part[mask].sum()).to_bytes(16, "big"))
            yield client.put(self._state[f"res{node.id}"], payload)
            # completion via one-sided fetch-and-add on the counter
            meta = yield client.lookup(self._state["done"])
            yield node.nic.faa(meta.home, meta.addr + 8, meta.rkey, 1)

    def _run_ddss(self, lo: int, hi: int):
        yield self._setup_done
        cc = self._coord_client
        qid = self.env.next_id("storm-query")
        done_region_before = yield cc.get_version(self._state["done"])
        yield cc.put(self._state["query"],
                     lo.to_bytes(8, "big") + hi.to_bytes(8, "big"))
        for node in self.storage:
            self.coordinator.nic.post(node.id, payload=qid, size=16,
                                      tag="storm-bell")
        # wait for the completion counter (coordinator-local poll)
        target = done_region_before + len(self.storage)
        while True:
            version = yield cc.get_version(self._state["done"])
            if version >= target:
                break
            yield self.env.timeout(5.0)
        count, total = 0, 0
        for node in self.storage:
            blob = yield cc.get(self._state[f"res{node.id}"])
            count += int.from_bytes(blob[0:8], "big")
            total += int.from_bytes(blob[8:24], "big")
        return count, total

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_query(self, lo: int, hi: int) -> Event:
        """SELECT count(*), sum(v) WHERE lo <= v < hi."""
        self.queries_run += 1
        gen = (self._run_ddss(lo, hi) if self.use_ddss
               else self._run_traditional(lo, hi))
        return self.env.process(gen, name="storm-query")

    def expected(self, lo: int, hi: int) -> Tuple[int, int]:
        """Ground truth, computed directly."""
        count, total = 0, 0
        for part in self.partitions.values():
            mask = (part >= lo) & (part < hi)
            count += int(mask.sum())
            total += int(part[mask].sum())
        return count, total
