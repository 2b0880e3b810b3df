"""Every ``KNOWN_TIES`` cell is proven to be a tie, not a fast-path bug.

The fast and slow kernels may pop two *same-instant* agenda entries in
different orders (DESIGN.md §9), and a FIFO observes that order: an
egress link serves two same-instant injections from one node in pop
order, a ToR uplink serves two hosts that release their egress links at
the same instant in pop order, a receive queue hands two same-instant
arrivals to its server in pop order, and everything downstream of the
pair can legitimately move.  A cross-kernel digest mismatch is such a
tie — and only then may it be listed in
:data:`repro.verify.metamorphic.KNOWN_TIES` — when the two kernels'
fabric injection logs ``(injected_at, src, dst, nbytes, arrives_at)``
are equal row for row up to a first difference that is explained by
such a pair:

* **link tie** — the differing row has a sibling injected at the same
  instant from the same node; or
* **uplink tie** — the differing row crossed racks, and at the instant
  it left its host's egress link another host of the rack released
  towards the same uplink (the second log, ``(released_at, uplink,
  host)``, one row per cross-rack payload); or
* **receiver tie** — the differing rows are one node answering two
  peers in swapped order, and those two peers' transfers reached that
  node at the same instant, in the part of the log both kernels share.

A first difference with none of them means an analytic stage computed a
different instant than the generator: a bug.

Two more tables are proven the same way: ``LOCK_BENCH_TIES``, the cells
of ``BENCH_locks.json``'s chaos column (not scenario-table rows, so not
in ``KNOWN_TIES``), and ``UPLINK_TIE``, the worked example of the third
kind.
"""

import pytest

from repro.dlm.tournament import lock_tournament
from repro.net.fabric import Fabric
from repro.scenarios import judged_run
from repro.sim import pin_kernel
from repro.verify.metamorphic import KNOWN_TIES

from tests.net.test_fifo_egress import (TOPOLOGIES, _faulted_schedule,
                                        _replay)


def injection_log(monkeypatch, run):
    """``run()`` with every fabric injection logged at the one routing
    hook (``_route``; its generator twin ``_spawn`` on the slow kernel)
    and every cross-rack payload logged again where it reaches its
    uplink (``_up_key``, which both forms call at the egress release
    instant).  Returns the two sorted logs and ``run``'s result."""
    rows, ups = [], []
    init = Fabric.__init__

    def logged_init(self, *args, **kwargs):
        # wrapped on the instance, so TopoFabric's own hooks are logged
        # once and their super() calls not again
        init(self, *args, **kwargs)
        route, spawn = self._route, self._spawn
        up_key = getattr(self, "_up_key", None)

        def log(t0, src, dst, nbytes, at):
            # a multicast (dst None) sorts as destination -1
            rows.append((t0, src, -1 if dst is None else dst, nbytes, at))

        def logged_route(src, dst, nbytes, arrive):
            t0 = self.env.now

            def arrived(exc):
                log(t0, src, dst, nbytes, self.env.now)
                arrive(exc)

            at = route(src, dst, nbytes, arrived)
            if at >= 0.0:   # known at injection: arrive() is not called
                log(t0, src, dst, nbytes, at)
            return at

        def logged_spawn(src, dst, nbytes):
            t0 = self.env.now
            done = spawn(src, dst, nbytes)
            done.add_callback(
                lambda _e: log(t0, src, dst, nbytes, self.env.now))
            return done

        def logged_up_key(src, dst):
            key = up_key(src, dst)
            ups.append((self.env.now, key, src))
            return key

        self._route, self._spawn = logged_route, logged_spawn
        if up_key is not None:
            self._up_key = logged_up_key

    with monkeypatch.context() as m:
        m.setattr(Fabric, "__init__", logged_init)
        result = run()
    return sorted(rows), sorted(ups), result


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b)) if len(a) != len(b) else None


def uplink_pair(row, ups):
    """``(instant, uplink, other hosts)`` when the transfer of ``row``
    reached its uplink at the same instant as another host's."""
    t0, src, _dst, _nbytes, arrives = row
    for released, key, host in ups:
        if host == src and t0 <= released <= arrives:
            others = {h for r, k, h in ups
                      if r == released and k == key and h != src}
            if others:
                return released, key, others
    return None


def tie_evidence(fast, slow, i, fast_ups=(), slow_ups=()):
    """Why rows ``fast[i]`` / ``slow[i]`` may differ; None if nothing
    in the logs licenses it."""
    f, s = fast[i], slow[i]
    if all(sum(r[:2] == row[:2] for r in rows) >= 2
           for rows, row in ((fast, f), (slow, s))):
        return f"link tie: node {f[1]} injects twice at t={f[0]!r}"
    pairs = [uplink_pair(f, fast_ups), uplink_pair(s, slow_ups)]
    if all(pairs):
        at, (rack, spine), others = pairs[0]
        return (f"uplink tie: hosts {sorted(others | {f[1]})} of rack "
                f"{rack} reach uplink {spine} at t={at!r}")
    if f[:2] == s[:2] and f[2] != s[2]:
        # one server, two replies, swapped: the latest instant in the
        # shared prefix at which both requesters' transfers landed on it
        at = {}
        for _t0, src, dst, _n, arrives in fast[:i]:
            if dst == f[1] and src in (f[2], s[2]) and arrives <= f[0]:
                at.setdefault(arrives, set()).add(src)
        for arrives, srcs in sorted(at.items(), reverse=True):
            if srcs == {f[2], s[2]}:
                return (f"receiver tie: nodes {f[2]} and {s[2]} both "
                        f"reach node {f[1]} at t={arrives!r}")
    return None


def scenario_log(monkeypatch, scenario, n_nodes, seed, kernel):
    rows, ups, (record, _obs) = injection_log(
        monkeypatch,
        lambda: judged_run(scenario, seed, n_nodes or None, kernel))
    return rows, ups, record["trace_sha"]


@pytest.mark.parametrize("cell", sorted(KNOWN_TIES),
                         ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_known_tie_starts_at_a_same_instant_pair(monkeypatch, cell):
    fast, fast_ups, fast_sha = scenario_log(monkeypatch, *cell, "fast")
    slow, slow_ups, slow_sha = scenario_log(monkeypatch, *cell, "slow")
    assert fast_sha != slow_sha, f"{cell} no longer differs: stale entry"
    i = first_difference(fast, slow)
    assert i is not None, f"{cell}: digests differ, injection logs do not"
    assert fast[:i] == slow[:i]
    why = tie_evidence(fast, slow, i, fast_ups, slow_ups)
    assert why is not None, (
        f"{cell}: first divergence {fast[i]} / {slow[i]} follows no "
        f"same-instant pair — a fast-path bug, not a tie")
    assert why.split(":")[0] == KNOWN_TIES[cell].split(":")[0], why


def test_log_is_identical_where_nothing_ties(monkeypatch):
    """The method itself: on a cell whose digests agree, the two
    kernels' injection logs are equal row for row — the flat
    ``cache-hybcc``, and ``lab`` on four racks of four with a crash,
    whose cross-rack traffic is logged at both stages."""
    for scenario, n_nodes, n_rows in (("cache-hybcc", 0, 100),
                                      ("lab", 16, 1000)):
        fast, fast_ups, fast_sha = scenario_log(monkeypatch, scenario,
                                                n_nodes, 0, "fast")
        slow, slow_ups, slow_sha = scenario_log(monkeypatch, scenario,
                                                n_nodes, 0, "slow")
        assert fast_sha == slow_sha
        assert fast == slow and len(fast) > n_rows
        assert fast_ups == slow_ups
    assert len(fast_ups) > 1000


#: ``BENCH_locks.json``'s chaos column — 256 Zipf(1.2) clients on 8
#: nodes through two crashes, seed 0 — is where the kernels part under
#: faults: scheme -> (a horizon just past the first divergence, its
#: kind).  While a fault injector pinned every transfer to the
#: generators the two kernels agreed there trivially; the fault-free
#: herd cells of the same file have been ties since the egress link
#: became analytic.  ``srsl`` still agrees.
LOCK_BENCH_TIES = {"dqnl": (1400.0, "link tie"),
                   "ncosed": (3800.0, "link tie"),
                   "mcs": (2200.0, "link tie"),
                   "alock": (1400.0, "link tie")}


@pytest.mark.parametrize("scheme", sorted(LOCK_BENCH_TIES))
def test_lock_bench_chaos_cell_starts_at_a_same_instant_pair(monkeypatch,
                                                             scheme):
    horizon_us, kind = LOCK_BENCH_TIES[scheme]

    def run(kernel):
        with pin_kernel(kernel):
            return lock_tournament(scheme, n_clients=256, alpha=1.2,
                                   chaos="crash", seed=0,
                                   horizon_us=horizon_us)

    fast, fast_ups, _ = injection_log(monkeypatch, lambda: run("fast"))
    slow, slow_ups, _ = injection_log(monkeypatch, lambda: run("slow"))
    i = first_difference(fast, slow)
    assert i is not None, f"{scheme} no longer differs: stale entry"
    assert fast[:i] == slow[:i] and i > 1000
    why = tie_evidence(fast, slow, i, fast_ups, slow_ups)
    assert why is not None, (
        f"{scheme}: first divergence {fast[i]} / {slow[i]} follows no "
        f"same-instant pair — a fast-path bug, not a tie")
    assert why.split(":")[0] == kind, why


#: the one faulted open-loop schedule in 660 (``tests/net/
#: test_fifo_egress.py``, seeds 0-219 on each topology) whose
#: completions differ between the kernels
UPLINK_TIE = ("two-rack", 26)


def test_uplink_tie_is_licensed_and_nothing_else_moves(monkeypatch):
    """Hosts 0 and 1 of rack 0 answer two verbs from rack 1 whose
    requests came back to back through rack 1's uplink, so their
    header-sized responses leave the two egress links at the same float
    and meet on rack 0's uplink: the kernels serve them in opposite
    orders and the two completions swap instants.  The logs prove it is
    that and nothing else."""
    topology, seed = UPLINK_TIE
    make, far = TOPOLOGIES[topology]
    bursts, deep, plan = _faulted_schedule(seed, far)
    logs = {}

    def run(kernel):
        with pin_kernel(kernel):
            cluster = make(seed)
        return _replay(cluster, bursts, deep, plan)[0]

    for kernel in ("fast", "slow"):
        logs[kernel] = injection_log(monkeypatch, lambda: run(kernel))
    (fast, fast_ups, fast_run), (slow, slow_ups, slow_run) = (
        logs["fast"], logs["slow"])
    assert fast_run["outcome"] != slow_run["outcome"], "stale: no tie left"
    i = first_difference(fast, slow)
    assert fast[:i] == slow[:i]
    why = tie_evidence(fast, slow, i, fast_ups, slow_ups)
    assert why is not None and why.startswith("uplink tie"), why
    # the pair swaps its two instants; no other completion, counter,
    # leftover message or total differs
    moved = {op for op in slow_run["outcome"]
             if fast_run["outcome"][op] != slow_run["outcome"][op]}
    assert len(moved) == 2
    assert (sorted(fast_run["outcome"][op][0] for op in moved)
            == sorted(slow_run["outcome"][op][0] for op in moved))
    for what in ("now", "counters", "pending", "moved"):
        assert fast_run[what] == slow_run[what], what


def test_an_unpaired_difference_is_not_licensed():
    """A row that moves with no same-instant sibling anywhere is what a
    wrong booking would look like: no evidence, no licence."""
    fast = [(0.0, 0, 4, 64, 9.0), (1.0, 1, 5, 64, 12.0)]
    slow = [(0.0, 0, 4, 64, 9.0), (1.0, 1, 5, 64, 12.5)]
    ups = [(2.0, (0, 0), 0), (3.0, (0, 0), 1)]
    assert tie_evidence(fast, slow, 1, ups, ups) is None
    tied = [(2.0, (0, 0), 0), (3.0, (0, 0), 1), (3.0, (0, 0), 2)]
    assert tie_evidence(fast, slow, 1, tied, tied).startswith("uplink tie")
