"""Every ``KNOWN_TIES`` cell is proven to be a tie, not a fast-path bug.

The fast and slow kernels may pop two *same-instant* agenda entries in
different orders (DESIGN.md §9), and a FIFO observes that order: an
egress link serves two same-instant injections from one node in pop
order, a receive queue hands two same-instant arrivals to its server in
pop order, and everything downstream of the pair can legitimately move.
A cross-kernel digest mismatch is such a tie — and only then may it be
listed in :data:`repro.verify.metamorphic.KNOWN_TIES` — when the two
kernels' fabric injection logs ``(injected_at, src, dst, nbytes,
arrives_at)`` are equal row for row up to a first difference that is
explained by such a pair:

* **link tie** — the differing row has a sibling injected at the same
  instant from the same node; or
* **receiver tie** — the differing rows are one node answering two
  peers in swapped order, and those two peers' transfers reached that
  node at the same instant, in the part of the log both kernels share.

A first difference with neither means the analytic link computed a
different instant than the generator: a bug.
"""

import pytest

from repro.net.fabric import Fabric
from repro.scenarios import judged_run
from repro.verify.metamorphic import KNOWN_TIES


def injection_log(monkeypatch, scenario, n_nodes, seed, kernel):
    """Run ``scenario`` with every ``Fabric`` injection logged; returns
    the sorted rows and the run's canonical digest.  (Cross-rack
    ``TopoFabric`` transfers bypass these three methods; they are never
    analytic, so they cannot be where the kernels part.)"""
    rows = []
    transfer, fast_send, send_process = (
        Fabric.transfer, Fabric.fast_send, Fabric.send_process)

    def log(fabric, t0, src, dst, nbytes):
        rows.append((t0, src, dst, nbytes, fabric.env.now))

    def logged_transfer(self, src, dst, nbytes):
        t0 = self.env.now
        done = transfer(self, src, dst, nbytes)
        done.add_callback(lambda _e: log(self, t0, src, dst, nbytes))
        return done

    def logged_fast_send(self, src, dst, nbytes):
        at = fast_send(self, src, dst, nbytes)
        if at >= 0.0:  # refused: the caller's send_process logs it
            rows.append((self.env.now, src, dst, nbytes, at))
        return at

    def logged_send_process(self, src, dst, nbytes, arrive):
        t0 = self.env.now

        def arrived():
            log(self, t0, src, dst, nbytes)
            arrive()

        send_process(self, src, dst, nbytes, arrived)

    with monkeypatch.context() as m:
        m.setattr(Fabric, "transfer", logged_transfer)
        m.setattr(Fabric, "fast_send", logged_fast_send)
        m.setattr(Fabric, "send_process", logged_send_process)
        record, _obs = judged_run(scenario, seed, n_nodes or None, kernel)
    return sorted(rows), record["trace_sha"]


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b)) if len(a) != len(b) else None


def tie_evidence(fast, slow, i):
    """Why rows ``fast[i]`` / ``slow[i]`` may differ; None if nothing
    in the logs licenses it."""
    f, s = fast[i], slow[i]
    if all(sum(r[:2] == row[:2] for r in rows) >= 2
           for rows, row in ((fast, f), (slow, s))):
        return f"link tie: node {f[1]} injects twice at t={f[0]!r}"
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


@pytest.mark.parametrize("cell", sorted(KNOWN_TIES),
                         ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_known_tie_starts_at_a_same_instant_pair(monkeypatch, cell):
    scenario, n_nodes, seed = cell
    fast, fast_sha = injection_log(monkeypatch, scenario, n_nodes, seed,
                                   "fast")
    slow, slow_sha = injection_log(monkeypatch, scenario, n_nodes, seed,
                                   "slow")
    assert fast_sha != slow_sha, f"{cell} no longer differs: stale entry"
    i = first_difference(fast, slow)
    assert i is not None, f"{cell}: digests differ, injection logs do not"
    assert fast[:i] == slow[:i]
    why = tie_evidence(fast, slow, i)
    assert why is not None, (
        f"{cell}: first divergence {fast[i]} / {slow[i]} follows no "
        f"same-instant pair — a fast-path bug, not a tie")
    assert why.split(":")[0] == KNOWN_TIES[cell].split(":")[0], why


def test_log_is_identical_where_nothing_ties(monkeypatch):
    """The method itself: on a cell whose digests agree, the two
    kernels' injection logs are equal row for row."""
    fast, fast_sha = injection_log(monkeypatch, "cache-hybcc", 0, 0, "fast")
    slow, slow_sha = injection_log(monkeypatch, "cache-hybcc", 0, 0, "slow")
    assert fast_sha == slow_sha
    assert fast == slow and len(fast) > 100
