"""Beyond the paper: the lock arena, the rack/spine fabric, and OCC vs 2PL.

Not paper figures — the extensions of ``DESIGN.md`` §13, §16 and §17,
measured on the simulated clock (deterministic per seed) and cited by
EXPERIMENTS.md and DESIGN.md from the JSON written here:

* ``beyond_lock_arena.json`` — five lock designs draining one Zipf(1.2)
  schedule at 64 / 256 / 1024 clients, plus the crash column at 256;
* ``beyond_topology.json`` — read RTT within vs across racks, N-CoSED
  lock throughput with every lock on one home vs sharded;
* ``beyond_txn_contention.json`` — the ``txn`` lab sweep, OCC vs 2PL
  over 2 / 8 / 32 keys.

A lock cell is *complete* when every offered acquire was granted or
failed before the horizon.  An incomplete cell's rates are marked as
such and it wins no level: a rate over the acquires that happened to
finish says nothing about the ones that did not.
"""

import os

from repro.bench import BenchTable
from repro.dlm.tournament import SCHEMES, lock_tournament
from repro.lab import ResultStore, Runner, merge_tables, packaged_sweep
from repro.topo.scenarios import measure_lock_throughput, measure_verb_latency

from conftest import run_once

DESIGNS = {"srsl": "SRSL", "dqnl": "DQNL", "ncosed": "N-CoSED",
           "mcs": "MCS", "alock": "ALock"}
LEVELS = (64, 256, 1024)
CRASH_LEVEL = 256
ALPHA = 1.2
ROUNDS = 6


def _rate(value: float, complete: bool):
    value = round(float(value), 1)
    return value if complete else f"incomplete ({value:,.1f})"


def build_lock_arena() -> BenchTable:
    table = BenchTable(
        "lock arena: grants per simulated second, Zipf(1.2), 16 locks on "
        "8 nodes",
        ["clients", "chaos", "design", "grants/offered", "failures",
         "ops_per_s", "p99_wait_us", "ops_per_s_t95", "t95_grant_us",
         "winner"],
        paper_ref="beyond Fig. 5: SRSL/DQNL/N-CoSED vs RDMA-MCS and ALock")
    cells = [(n, "none") for n in LEVELS] + [(CRASH_LEVEL, "crash")]
    for n_clients, chaos in cells:
        offered = n_clients * ROUNDS
        row_stats = []
        for scheme in SCHEMES:
            stats = lock_tournament(scheme, n_clients=n_clients,
                                    alpha=ALPHA, chaos=chaos, seed=0,
                                    rounds=ROUNDS)
            complete = stats["grants"] + stats["failures"] == offered
            row_stats.append((scheme, stats, complete))
        finished = [(s, st) for s, st, ok in row_stats if ok]
        winner = (max(finished, key=lambda c: c[1]["ops_per_s"])[0]
                  if chaos == "none" and finished else None)
        for scheme, stats, complete in row_stats:
            table.add(n_clients, chaos, DESIGNS[scheme],
                      f"{stats['grants']}/{offered}", stats["failures"],
                      _rate(stats["ops_per_s"], complete),
                      round(float(stats["p99_wait_us"]), 1),
                      _rate(stats["ops_per_s_t95"], complete),
                      round(float(stats["t95_grant_us"]), 1),
                      "yes" if scheme == winner else "")
    return table


def test_lock_arena(benchmark, results_dir):
    table = run_once(benchmark, build_lock_arena)
    table.show()
    table.save_json(os.path.join(results_dir, "beyond_lock_arena.json"))
    cells = {(row[0], row[1], row[2]): row for row in table.rows}

    def grants(design):
        return int(cells[(CRASH_LEVEL, "crash", design)][3].split("/")[0])

    # the lease-fenced designs recover the crashed holders' locks; SRSL's
    # clients wait on a dead server for good
    for design in ("N-CoSED", "MCS", "ALock"):
        assert grants(design) > grants("SRSL"), design
    # the N-CoSED herd on the hot word: the slowest design at 1024
    # clients, its 95th-percentile grant the last to land
    slowest = max(DESIGNS.values(),
                  key=lambda d: cells[(1024, "none", d)][8])
    assert slowest == "N-CoSED"


def build_topology() -> BenchTable:
    verbs = measure_verb_latency(seed=0)
    locks = measure_lock_throughput(seed=0)
    table = BenchTable(
        "rack/spine fabric: 2 racks x 4 hosts, 4:1 oversubscribed",
        ["measure", "baseline", "variant", "ratio"],
        paper_ref="§2 data-center fabric; §4.2 locks sharded over it")
    table.add("read RTT us: intra- vs cross-rack", verbs["intra_rack_us"],
              verbs["cross_rack_us"],
              round(verbs["cross_rack_us"] / verbs["intra_rack_us"], 3))
    table.add("N-CoSED lock ops/s: single home vs sharded",
              locks["single_home_ops_per_s"], locks["sharded_ops_per_s"],
              locks["speedup"])
    return table


def test_topology(benchmark, results_dir):
    table = run_once(benchmark, build_topology)
    table.show()
    table.save_json(os.path.join(results_dir, "beyond_topology.json"))
    rtt, locks = table.rows
    assert rtt[3] >= 1.5  # the oversubscribed spine stretches an RTT
    assert locks[2] > locks[1]  # a ring of homes beats one NIC


def build_txn_contention() -> BenchTable:
    sweep = packaged_sweep("txn")
    store = ResultStore(None)
    report = Runner(sweep, store, workers=0).run()
    assert not report["failed"], report["failures"]
    return merge_tables(sweep, store)[0]


def test_txn_contention(benchmark, results_dir):
    table = run_once(benchmark, build_txn_contention)
    table.show()
    table.save_json(os.path.join(results_dir, "beyond_txn_contention.json"))
    col = {name: i for i, name in enumerate(table.columns)}
    occ = {row[col["n_keys"]]: row[col["abort_rate"]]
           for row in table.rows if row[col["variant"]] == "occ"}
    # fewer keys, hotter keys, more failed validations
    assert occ[2] > occ[8] > occ[32]
    # 2PL waits for its locks instead of aborting
    assert all(row[col["attempt_aborts"]] == 0 for row in table.rows
               if row[col["variant"]] == "2pl")
    assert all(row[col["conserved"]] for row in table.rows)
