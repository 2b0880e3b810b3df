"""repro — reproduction of "Designing Efficient Systems Services and
Primitives for Next-Generation Data-Centers" (Vaidyanathan, Narravula,
Balaji, Panda; IPDPS 2007).

The paper's three-layer framework over a simulated RDMA cluster:

* communication protocols — :mod:`repro.transport` (SDP, ZSDP, AZ-SDP,
  flow control, control RPC) over :mod:`repro.net` (RDMA NIC model);
* service primitives — :mod:`repro.ddss` (distributed data sharing
  substrate) and :mod:`repro.dlm` (SRSL / DQNL / N-CoSED lock managers);
* advanced services — :mod:`repro.cache` (cooperative caching),
  :mod:`repro.monitor` (RDMA resource monitoring) and
  :mod:`repro.reconfig` (dynamic reconfiguration with QoS);

plus the :mod:`repro.datacenter` multi-tier testbed,
:mod:`repro.workloads` generators and the :mod:`repro.apps.storm` query
engine used by the evaluation.

Quickstart::

    from repro import Cluster, DDSS, Coherence

    cluster = Cluster(n_nodes=4)
    ddss = DDSS(cluster)
    client = ddss.client(cluster.nodes[1])

    def app(env):
        key = yield client.allocate(64, coherence=Coherence.WRITE)
        yield client.put(key, b"hello")
        return (yield client.get(key))

    proc = cluster.env.process(app(cluster.env))
    cluster.env.run()
"""

import importlib

__version__ = "1.0.0"


def _lazy(namespace: dict, exports: dict):
    """A package's PEP 562 ``__getattr__``: each of ``exports`` (public
    name -> module) is imported on first access and kept in
    ``namespace``, so importing a package loads none of its siblings."""
    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has "
                                 f"no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(exports[name]), name)
        return value
    return __getattr__


_EXPORTS = {"Cluster": "repro.net", "NetworkParams": "repro.net",
            "Coherence": "repro.ddss", "DDSS": "repro.ddss",
            "DQNLManager": "repro.dlm", "LockMode": "repro.dlm",
            "NCoSEDManager": "repro.dlm", "SRSLManager": "repro.dlm",
            "Environment": "repro.sim"}
__getattr__ = _lazy(globals(), _EXPORTS)
__all__ = [*_EXPORTS, "__version__"]
