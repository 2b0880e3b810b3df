"""Deterministic fault injection and recovery substrate.

The paper's framework (and this reproduction's seed state) assumes a
fault-free fabric.  This package adds the failure model every later
scaling experiment inherits:

* :class:`FaultPlan` — a declarative, seeded schedule of faults: node
  crashes/restarts, message drop/duplication windows, one-sided verb
  failure windows, partitions, slow nodes and credit stalls.
* :class:`FaultInjector` — executes a plan against a cluster.  It hooks
  :class:`repro.net.fabric.Fabric` (transfers to/from crashed nodes fail
  with :class:`repro.errors.NodeDownError`; slow nodes stretch
  serialization/latency) and :class:`repro.net.nic.NIC` (two-sided
  messages are dropped or duplicated; one-sided verbs fail with
  :class:`repro.errors.RdmaError`).

Determinism: all coin flips draw from one named stream of the cluster's
:class:`repro.sim.RngStreams`, and scheduled faults ride the ordinary
event loop — the same seed replays the exact same fault sequence.  With
no plan installed every hook is a single attribute test, so fault-free
runs are byte-identical to a build without this package.

Quickstart::

    from repro.net import Cluster
    from repro.faults import FaultPlan

    cluster = Cluster(n_nodes=4, seed=7)
    plan = (FaultPlan()
            .crash(node=2, at=10_000.0, restart_at=60_000.0)
            .drop_messages(rate=0.01)
            .slow_node(node=1, factor=8.0, start=5_000.0, until=9_000.0))
    injector = cluster.install_faults(plan)
"""

from repro.faults.plan import FaultPlan
from repro.faults.injector import FaultInjector

__all__ = ["FaultPlan", "FaultInjector"]
