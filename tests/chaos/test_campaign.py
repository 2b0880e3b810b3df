"""Campaign determinism, seeded-bug finding + shrinking, and the
``repro chaos`` CLI surface."""

import json
import os

import pytest

from repro.chaos import (find_failing, run_campaign, schedule_fails,
                         shrink_schedule)
from repro.cli import main
from repro.errors import ConfigError
from repro.scenarios import lab_run

# seed 2 of locks-nofence fails at index 3 with a single-fault schedule
# (a minority partition) — cheap enough to re-run in tests
BUG_SEED = 2
BUG_INDEX = 3


class TestRunRecord:
    def test_record_shape_and_verdict(self):
        rec = lab_run("locks", seed=3, index=0)
        assert rec["verdict"] == "ok" and rec["violations"] == 0
        assert rec["scenario"] == "locks" and rec["index"] == 0
        assert rec["fence"] is True
        assert rec["events"] > 0
        assert len(rec["trace_sha"]) == 16  # canonical digest prefix
        assert len(rec["faults"]) == len(rec["schedule"])
        json.dumps(rec)  # records must stay JSON-able end to end

    def test_same_seed_same_record(self):
        a = lab_run("locks", seed=3, index=1)
        b = lab_run("locks", seed=3, index=1)
        assert a == b
        assert a["trace_sha"] == b["trace_sha"]


class TestCampaign:
    def test_clean_campaign_is_deterministic(self):
        kw = dict(scenarios=("locks",), seed=11, n_schedules=2)
        a = run_campaign(**kw)
        b = run_campaign(**kw)
        assert a["verdict"] == "ok"
        assert a["violations"] == [] and a["findings"] == []
        assert json.dumps(a, sort_keys=True) == json.dumps(b,
                                                           sort_keys=True)

    def test_seeded_bug_lands_in_findings_not_violations(self):
        v = run_campaign(scenarios=("locks-nofence",), seed=BUG_SEED,
                         n_schedules=BUG_INDEX + 1)
        assert v["verdict"] == "ok"  # findings are expected, not failures
        assert v["violations"] == []
        hits = [f for f in v["findings"] if f["index"] == BUG_INDEX]
        assert hits
        assert any("split-brain" in m for f in hits for m in f["msgs"])

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ConfigError, match="nope"):
            run_campaign(scenarios=("nope",), seed=0, n_schedules=1)


class TestShrink:
    def test_shrinks_seeded_bug_to_minimal_reproducer(self):
        hit = find_failing("locks-nofence", BUG_SEED,
                           n_schedules=BUG_INDEX + 1)
        assert hit is not None and hit["index"] == BUG_INDEX
        rep = shrink_schedule("locks-nofence", hit["schedule"], BUG_SEED)
        assert rep["failed"] is True
        assert rep["kept_faults"] <= 3  # acceptance: <= 3-fault reproducer
        assert rep["kept_faults"] <= rep["original_faults"]
        assert len(rep["labels"]) == rep["kept_faults"]
        # the reproducer itself must still fail when replayed
        bad, _rec = schedule_fails("locks-nofence", rep["schedule"],
                                   BUG_SEED)
        assert bad

    def test_passing_schedule_reports_not_failed(self):
        rep = shrink_schedule("locks", [], 0)  # no faults: clean run
        assert rep["failed"] is False

    @pytest.mark.parametrize("max_probes", [0, -1])
    def test_no_probe_budget_is_a_config_error(self, max_probes):
        # zero probes cannot show the schedule fails, so the report
        # would wrongly say it passes
        with pytest.raises(ConfigError, match="max_probes"):
            shrink_schedule("locks-nofence", [], BUG_SEED,
                            max_probes=max_probes)


class TestChaosCli:
    def test_list_names_scenarios(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        assert "locks" in out and "ddss-repl" in out
        assert "SEEDED BUG" in out
        assert "ncosed" not in out  # no fault space: not a chaos row

    def test_run_report_cycle(self, tmp_path, capsys):
        verdict_path = str(tmp_path / "verdict.json")
        assert main(["chaos", "run", "locks", "--seed", "11",
                     "--schedules", "2", "--json", verdict_path]) == 0
        out = capsys.readouterr().out
        assert "verdict=ok" in out
        doc = json.loads((tmp_path / "verdict.json").read_text())
        assert doc["format"] == "repro-chaos-v1" and doc["runs"] == 2

        assert main(["chaos", "report", verdict_path]) == 0
        assert "verdict=ok" in capsys.readouterr().out

    def test_replay_prints_record_and_writes_json(self, tmp_path, capsys):
        rec_path = str(tmp_path / "rec.json")
        assert main(["chaos", "replay", "locks", "--seed", "3",
                     "--index", "0", "--json", rec_path]) == 0
        assert "verdict" in capsys.readouterr().out
        assert os.path.exists(rec_path)

    def test_replay_from_reproducer_file_exits_nonzero(self, tmp_path,
                                                       capsys):
        # a shrink report is a valid --schedule input for replay
        hit = find_failing("locks-nofence", BUG_SEED,
                           n_schedules=BUG_INDEX + 1)
        sched_path = str(tmp_path / "repro.json")
        with open(sched_path, "w") as fh:
            json.dump({"schedule": hit["schedule"]}, fh)
        rc = main(["chaos", "replay", "locks-nofence", "--seed",
                   str(BUG_SEED), "--schedule", sched_path])
        assert rc == 1  # violations replay exits non-zero
        assert "split-brain" in capsys.readouterr().out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["chaos", "replay", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_without_a_fault_space_is_an_error(self, capsys):
        assert main(["chaos", "replay", "ncosed"]) == 2
        assert "takes no fault schedule" in capsys.readouterr().err
