#!/usr/bin/env python
"""STORM-style distributed SELECT queries over a partitioned record
store, with traditional socket coordination vs DDSS-backed shared state
(the paper's Fig. 3b scenario).

Run:  python examples/storm_queries.py
"""

from repro.bench import BenchTable, improvement_pct
from repro.net import Cluster
from repro.apps.storm import StormEngine


def mean_query_time(n_records, use_ddss, n_queries=8):
    cluster = Cluster(n_nodes=5, seed=3)
    engine = StormEngine(cluster, n_records=n_records, use_ddss=use_ddss)

    def workload(env):
        t0 = env.now
        for q in range(n_queries):
            count, total = yield engine.run_query(0, 2500 + 500 * q)
        return (env.now - t0) / n_queries

    p = cluster.env.process(workload(cluster.env))
    cluster.env.run_until_event(p, limit=1e10)
    return p.value


def main():
    # correctness first: both substrates compute identical answers
    cluster = Cluster(n_nodes=5, seed=3)
    engine = StormEngine(cluster, n_records=20_000, use_ddss=True)
    ev = engine.run_query(1000, 6000)
    cluster.env.run_until_event(ev)
    count, total = ev.value
    assert (count, total) == engine.expected(1000, 6000)
    print(f"query [1000, 6000): count={count} sum={total} "
          f"(verified against direct evaluation)\n")

    table = BenchTable(
        "STORM mean query time (us), 4 storage nodes",
        ["records", "traditional", "ddss", "improvement_%"],
        paper_ref="Fig 3b: ~19% improvement with DDSS")
    for n in (1_000, 10_000, 100_000, 1_000_000):
        trad = mean_query_time(n, use_ddss=False)
        ddss = mean_query_time(n, use_ddss=True)
        table.add(n, round(trad, 1), round(ddss, 1),
                  round(improvement_pct(trad, ddss), 1))
    table.show()
    print("\nCoordination (metadata exchange, dispatch, result"
          " collection) dominates\nsmall datasets; the scan dominates"
          " large ones, so the DDSS advantage\nshrinks as record counts"
          " grow — the paper's ~19% sits mid-sweep.")


if __name__ == "__main__":
    main()
