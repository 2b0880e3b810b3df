"""The scenario table and the one judged run.

(a) every table row is clean, non-vacuous and deterministic;
(b) a scenario whose primary oracle sees nothing is ``vacuous`` through
    every path that judges — the CLI shims, both lab sweeps, and the
    schedule shrinker;
(c) bad CLI input is ``error: …`` + exit 2, never a traceback.
"""

from dataclasses import replace

import pytest

from repro.chaos import find_failing, run_campaign, schedule_fails
from repro.cli import main
from repro.errors import ConfigError
from repro.net import Cluster
from repro.scenarios import (SCENARIOS, Scenario, judged_run, lab_run,
                             run_suite)
from repro.verify import metamorphic_sweep

RECORD_KEYS = {"scenario", "seed", "n_nodes", "kernel", "events",
               "sim_now_us", "oracles", "sanitizers", "violations",
               "violation_msgs", "trace_sha", "stats", "verdict"}


# -- (a) the table ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_row_is_clean_non_vacuous_and_deterministic(name):
    sc = SCENARIOS[name]
    assert sc.name == name
    record = lab_run(name)  # default n_nodes, no faults, fast kernel
    assert set(record) == RECORD_KEYS
    assert record["verdict"] == "ok", record["violation_msgs"]
    assert record["sanitizers"] == [] and record["violations"] == 0
    assert record["n_nodes"] == sc.n_nodes
    if sc.primary is not None:
        assert record["oracles"][sc.primary]["checked"] > 0
    if name != "lab":  # ~3 s of wall: built once
        assert lab_run(name)["trace_sha"] == record["trace_sha"]


def test_different_seed_is_a_different_trace():
    assert (lab_run("ncosed", seed=0)["trace_sha"]
            != lab_run("ncosed", seed=1)["trace_sha"])


def test_schedule_needs_a_fault_space():
    with pytest.raises(ConfigError, match="takes no fault schedule"):
        judged_run("ncosed", schedule=[{"kind": "drop", "rate": 0.1,
                                        "start": 0.0, "until": 9.0}])
    with pytest.raises(ConfigError, match="takes no fault schedule"):
        SCENARIOS["ncosed"].space()


def test_unconserved_stats_are_a_violation():
    sc = SCENARIOS["txn-occ"]

    def lossy(seed, n_nodes):
        obs, stats = sc.build(seed, n_nodes)
        return obs, dict(stats, conserved=False)

    record, _obs = judged_run(replace(sc, build=lossy))
    assert record["verdict"] == "violation" and record["violations"] == 1
    assert "conservation" in record["violation_msgs"][0]


# -- (b) vacuous, everywhere -------------------------------------------------

def _quiet(seed, n_nodes, schedule=(), fence=True, **_kw):
    """A scenario that runs and emits nothing any oracle consumes."""
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    obs = cluster.observe(sanitize=True, strict=False)
    cluster.env.run(until=10.0)
    return obs


QUIET = Scenario("quiet", _quiet, 3, "locks", "zero traffic",
                 horizon_us=1_000.0)


@pytest.fixture
def quiet(monkeypatch):
    monkeypatch.setitem(SCENARIOS, "quiet", QUIET)
    monkeypatch.setitem(SCENARIOS, "txn-occ",
                        replace(QUIET, name="txn-occ", primary="txn"))


@pytest.mark.parametrize("argv", [
    ["check", "run", "quiet"],
    ["check", "meta", "quiet", "--seeds", "0"],
    ["chaos", "replay", "quiet", "--index", "0"],
    ["chaos", "run", "quiet", "--schedules", "1"],
    ["obs", "run", "quiet"],
    ["txn", "run"],
    ["topo", "run", "quiet"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_reports_vacuous_and_exits_nonzero(quiet, capsys, argv):
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "vacuous" in out.lower()
    assert "verdict=ok" not in out


def test_vacuous_is_decided_in_the_record(quiet):
    record = lab_run("quiet")
    assert record["verdict"] == "vacuous" and record["violations"] == 0
    assert run_suite(["quiet", "flow"])["verdict"] == "vacuous"
    meta = metamorphic_sweep(checks=["quiet"], seeds=(0,))
    assert meta["verdict"] == "violation"
    assert {v["verdict"] for v in meta["violations"]} == {"vacuous"}
    campaign = run_campaign(("quiet",), seed=0, n_schedules=1)
    assert campaign["verdict"] == "violation"


def test_shrinker_never_counts_a_silenced_workload_as_failing(quiet):
    bad, record = schedule_fails("quiet", [], 0)
    assert record["verdict"] == "vacuous" and not bad
    assert find_failing("quiet", seed=0, n_schedules=2) is None


# -- (c) fail loud, never a traceback ----------------------------------------

@pytest.mark.parametrize("argv", [
    ["chaos", "replay", "locks", "--schedule", "{tmp}/nope.json"],
    ["chaos", "report", "{tmp}/nope.json"],
    ["check", "trace", "{tmp}/nope.json"],
    ["check", "meta", "--seeds", "a,b"],
    ["check", "run", "ncosed", "--seed", "-1"],
    ["obs", "run", "flow", "--json", "{tmp}/no/such/dir/x.json"],
    ["chaos", "replay", "locks", "--schedule", "{tmp}/corrupt.json"],
    ["chaos", "replay", "locks", "--schedule", "{tmp}/noschedule.json"],
    ["txn", "run", "--n-keys", "1"],
    ["topo", "run", "nope"],
], ids=lambda argv: "-".join(a for a in argv if "{" not in a))
def test_bad_input_is_an_error_line_and_exit_2(tmp_path, capsys, argv):
    (tmp_path / "corrupt.json").write_text("{not json")
    (tmp_path / "noschedule.json").write_text('"a string"')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's own validators
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "Traceback" not in err
