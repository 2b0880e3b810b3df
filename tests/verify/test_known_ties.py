"""Every ``KNOWN_TIES`` cell is proven to be a tie, not a fast-path bug.

The product kernel and the reference kernel
(``tests/sim/reference_kernel.py``) may pop two *same-instant* agenda
entries in different orders (DESIGN.md §9), and a FIFO observes that
order: an
egress link serves two same-instant injections from one node in pop
order, a ToR uplink serves two hosts that release their egress links at
the same instant in pop order, a receive queue hands two same-instant
arrivals to its server in pop order, and everything downstream of the
pair can legitimately move.  A cross-kernel digest mismatch is such a
tie — and only then may it be listed in
:data:`tests.verify.test_kernel_fold.KNOWN_TIES` — when the two kernels'
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

Three more tables are proven the same way: ``LOCK_BENCH_TIES``, the
crash-column cells of ``benchmarks/results/beyond_lock_arena.json``
(the ``lock-arena`` figure; not scenario-table rows, so not in
``KNOWN_TIES``), ``FIG6_TIE``, the first Fig 6 cell the kernels part
on, and ``UPLINK_TIE``, the worked example of the third kind.
"""

import os

import pytest

from repro.datacenter import DataCenter
from repro.dlm import tournament
from repro.dlm.tournament import lock_tournament
from repro.net.fabric import Fabric

from tests.net.test_fifo_egress import (TOPOLOGIES, _faulted_schedule,
                                        _replay)
from tests.sim import reference_kernel
from tests.sim.reference_kernel import judged_run, pin_kernel
from tests.verify.test_kernel_fold import KNOWN_TIES


def injection_log(monkeypatch, run):
    """``run()`` with every fabric injection logged at the one routing
    hook (``_route``; its generator twin ``spawn`` on the reference
    kernel) and every cross-rack payload logged again where it reaches
    its uplink (``_up_key``, which both forms call at the egress release
    instant).  Returns the two sorted logs and ``run``'s result."""
    rows, ups = [], []
    init = Fabric.__init__
    spawn = reference_kernel.spawn

    def log(t0, src, dst, nbytes, at):
        rows.append((t0, src, dst, nbytes, at))

    def logged_spawn(fabric, src, dst, nbytes):
        t0 = fabric.env.now
        done = spawn(fabric, src, dst, nbytes)
        done.add_callback(
            lambda _e: log(t0, src, dst, nbytes, fabric.env.now))
        return done

    def logged_init(self, *args, **kwargs):
        # wrapped on the instance, so TopoFabric's own hooks are logged
        # once and their super() calls not again
        init(self, *args, **kwargs)
        route = self._route
        up_key = getattr(self, "_up_key", None)

        def logged_route(src, dst, nbytes, arrive):
            t0 = self.env.now

            def arrived(exc, at):
                # at the arrival, or earlier with its instant ``at``
                log(t0, src, dst, nbytes, self.env.now if at < 0.0 else at)
                arrive(exc, at)

            at = route(src, dst, nbytes, arrived)
            if at >= 0.0:   # known at injection: arrive() is not called
                log(t0, src, dst, nbytes, at)
            return at

        def logged_up_key(src, dst):
            key = up_key(src, dst)
            ups.append((self.env.now, key, src))
            return key

        self._route = logged_route
        if up_key is not None:
            self._up_key = logged_up_key

    with monkeypatch.context() as m:
        m.setattr(Fabric, "__init__", logged_init)
        m.setattr(reference_kernel, "spawn", logged_spawn)
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


#: The crash column of ``benchmarks/results/beyond_lock_arena.json`` —
#: 256 Zipf(1.2) clients on 8 nodes through two crashes, seed 0 — is
#: where the kernels part under faults: scheme -> (a horizon just past
#: the first divergence, its kind).  While a fault injector pinned every
#: transfer to the generators the two kernels agreed there trivially;
#: the fault-free herd cells of the same figure have been ties since the
#: egress link became analytic.  ``srsl`` still agrees.
LOCK_BENCH_TIES = {"dqnl": (1400.0, "link tie"),
                   "ncosed": (3800.0, "link tie"),
                   "mcs": (2200.0, "link tie"),
                   "alock": (1400.0, "link tie")}


@pytest.mark.parametrize("scheme", sorted(LOCK_BENCH_TIES))
def test_lock_bench_chaos_cell_starts_at_a_same_instant_pair(monkeypatch,
                                                             scheme):
    horizon_us, kind = LOCK_BENCH_TIES[scheme]

    monkeypatch.setattr(tournament, "HORIZON_US", horizon_us)

    def run(kernel):
        with pin_kernel(kernel):
            return lock_tournament(scheme, n_clients=256, alpha=1.2,
                                   chaos="crash", seed=0)

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


#: Fig 6's first cell (2 proxies, 8 kB documents, MTACC) that differs
#: between the kernels — 169 773 TPS on the product, 169 760 on the
#: reference — and the kind of its first divergence.  Six more cells of
#: the figure differ, by at most 0.08 %.  The two logged runs take
#: seconds, so this proof runs in CI's ``figures`` job, not tier-1
#: (``REPRO_REFERENCE_FIGURES=1``, as ``tests/test_reference_figures.py``).
FIG6_TIE = ({"n_proxies": 2, "scheme": "MTACC", "doc_bytes": 8_192},
            (169_773, 169_760), "link tie")


@pytest.mark.skipif(os.environ.get("REPRO_REFERENCE_FIGURES") != "1",
                    reason="a figures-job proof (REPRO_REFERENCE_FIGURES=1)")
def test_fig6_cell_starts_at_a_same_instant_pair(monkeypatch):
    cell, tps, kind = FIG6_TIE

    def run(kernel):
        # the cell exactly as ``repro.bench.figures.build_fig6`` builds it
        with pin_kernel(kernel):
            dc = DataCenter(n_docs=1_200, cache_bytes=8 * 1024 * 1024,
                            n_sessions=24 * cell["n_proxies"], seed=1,
                            **cell)
            return round(dc.run_tps(warmup_us=100_000.0,
                                    measure_us=150_000.0))

    fast, fast_ups, fast_tps = injection_log(monkeypatch, lambda: run("fast"))
    slow, slow_ups, slow_tps = injection_log(monkeypatch, lambda: run("slow"))
    assert (fast_tps, slow_tps) == tps
    i = first_difference(fast, slow)
    assert i is not None and fast[:i] == slow[:i] and i > 1000
    why = tie_evidence(fast, slow, i, fast_ups, slow_ups)
    assert why is not None, (
        f"fig6 {cell}: first divergence {fast[i]} / {slow[i]} follows no "
        f"same-instant pair — a fast-path bug, not a tie")
    assert why.split(":")[0] == kind, why


#: the first faulted open-loop schedule (``tests/net/
#: test_fifo_egress.py``) whose completions differ between the kernels:
#: none of seeds 0-219 on any topology does, and of seeds 0-1199 on two
#: and four racks only two-rack 284 and 539 do
UPLINK_TIE = ("two-rack", 284)


def test_uplink_tie_is_licensed_and_nothing_else_moves(monkeypatch):
    """Hosts 4 and 5 of rack 1 answer two CASes from node 3 of rack 0
    whose requests came back to back through rack 0's uplink, so their
    header-sized responses leave the two egress links at the same float
    and meet on rack 1's uplink: the kernels serve them in opposite
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
