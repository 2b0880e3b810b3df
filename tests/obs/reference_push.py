"""Recording as it was before pulled counters and :class:`Probe`.

The fabric pushed ``fabric.*``, ``topo.xrack.*`` and
``topo.uplink.bytes@n<rack>`` into registry counters on every transfer,
the NIC pushed ``nic.sends@n<node>`` on every send, each latency probe
was a closure marked ``_obs_passive`` by hand, and
``Tracer.emit`` built its rows through ``TraceEvent``'s own
constructor.  :func:`patch_reference` puts those hooks back (and turns
the pulled counters off) so ``tests/obs/test_reference_push.py`` can
require byte-identical exports from both.
"""

from repro.net.fabric import Fabric
from repro.net.nic import NIC
from repro.obs import Observability, TraceEvent, Tracer
from repro.topo.fabric import TopoFabric

from tests.sim import reference_kernel


def _obs_transfer(fabric, obs, nbytes):
    cache = getattr(fabric, "_ref_cache", None)
    if cache is None or cache[0] is not obs:
        m = obs.metrics
        cache = fabric._ref_cache = (
            obs, m.counter("fabric.transfers"), m.counter("fabric.bytes"))
    cache[1].inc()
    cache[2].inc(nbytes)


def _obs_xrack(fabric, obs, src_id, nbytes):
    m = obs.metrics
    m.counter("topo.xrack.transfers").inc()
    m.counter("topo.xrack.bytes").inc(nbytes)
    m.counter("topo.uplink.bytes",
              node=src_id // fabric.hosts_per_rack).inc(nbytes)


def _pushing(method, xrack=False):
    """``method`` preceded by the transfer push it used to start with."""
    def pushed(self, src_id, dst_id, nbytes, *rest):
        obs = self.env.obs
        if obs is not None:
            _obs_transfer(self, obs, nbytes)
            if xrack:
                _obs_xrack(self, obs, src_id, nbytes)
        return method(self, src_id, dst_id, nbytes, *rest)
    return pushed


def _pushing_spawn(spawn):
    """The reference kernel's generator transfer, pushing where
    ``Fabric._spawn`` did: on one rack (across racks ``_count_xrack``
    pushes)."""
    def pushed(fabric, src_id, dst_id, nbytes):
        obs = fabric.env.obs
        h = getattr(fabric, "hosts_per_rack", None)
        if obs is not None and (h is None or src_id // h == dst_id // h):
            _obs_transfer(fabric, obs, nbytes)
        return spawn(fabric, src_id, dst_id, nbytes)
    return pushed


def _obs_send(self, msg):
    obs = self.env.obs
    if obs is not None:
        obs.trace.emit("msg.send", node=msg.src, dst=msg.dst,
                       size=msg.size, mid=msg.mid)
        cache = getattr(self, "_ref_cache", None)
        if cache is None or cache[0] is not obs:
            cache = self._ref_cache = (
                obs, obs.metrics.counter("nic.sends", node=self.node.id))
        cache[1].inc()


def verb(self, nic, op, dst, nbytes, ev):
    node = nic.node.id
    t0 = self.env.now
    self.trace.emit("verb.issue", node=node, op=op, dst=dst, nbytes=nbytes)

    def done(e):
        if e._ok:
            us = self.env.now - t0
            self.trace.emit("verb.complete", node=node,
                            op=op, dst=dst, us=us)
            self.metrics.histogram(f"nic.{op}_us").observe(us)
            self.metrics.histogram(f"nic.{op}_us", node=node).observe(us)
        else:
            self.trace.emit("verb.fail", node=node, op=op, dst=dst)
            self.metrics.counter("nic.verb_fails", node=node).inc()

    done._obs_passive = True
    ev.add_callback(done)


def latency(self, ev, name, node):
    t0 = self.env.now

    def done(e):
        if e._ok:
            us = self.env.now - t0
            self.metrics.histogram(name).observe(us)
            self.metrics.histogram(name, node=node).observe(us)

    done._obs_passive = True
    ev.add_callback(done)


def emit(self, etype, node=-1, **fields):
    ev = TraceEvent(self.env.now, node, etype, fields)
    self.ring.append(ev)
    self.emitted += 1
    for fn in self._routes[etype]:
        fn(ev)
    return ev


def patch_reference(monkeypatch):
    """Record the old way for the rest of the test."""
    monkeypatch.setattr(Fabric, "pull_metrics", lambda self, metrics: None)
    monkeypatch.setattr(TopoFabric, "pull_metrics",
                        lambda self, metrics: None)
    monkeypatch.setattr(NIC, "pull_metrics", lambda self, metrics: None)
    monkeypatch.setattr(NIC, "_obs_send", _obs_send)
    monkeypatch.setattr(Fabric, "_route", _pushing(Fabric._route))
    monkeypatch.setattr(reference_kernel, "spawn",
                        _pushing_spawn(reference_kernel.spawn))
    monkeypatch.setattr(TopoFabric, "_count_xrack",
                        _pushing(TopoFabric._count_xrack, xrack=True))
    monkeypatch.setattr(Observability, "verb", verb)
    monkeypatch.setattr(Observability, "latency", latency)
    monkeypatch.setattr(Tracer, "emit", emit)
