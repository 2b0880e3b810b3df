"""Resume-after-kill, one attempt per run, worker crashes, timeouts."""

import os
import time

import pytest

from repro.lab import SWEEPS, ResultStore, Runner, Sweep, merge_tables

from tests.lab.records import record_lines

FLAKY_ERROR = "RuntimeError('first attempt always fails')"


class TestResume:
    def test_partial_store_only_missing_runs_execute(self, tmp_path):
        sweep = SWEEPS["smoke8"]
        full = ResultStore(str(tmp_path / "full"))
        Runner(sweep, full, workers=0).run()
        records = full.records()

        # pre-populate a partial store with 5 of the 8 records
        done = sorted(records, key=lambda r: r["run_id"])[:5]
        partial = ResultStore(str(tmp_path / "partial"))
        partial.write_sweep(sweep)
        for r in done:
            partial.append(r)

        runner = Runner(sweep, partial, workers=0)
        missing = {r["run_id"] for r in records} - \
            {r["run_id"] for r in done}
        # exactly the 3 missing runs are pending, and only they execute
        assert {s.run_id for s in runner.pending_specs()} == missing
        report = runner.run()
        assert report["skipped"] == 5
        assert report["completed"] == 3
        assert partial.completed_ids() == {r["run_id"] for r in records}

    def test_resumed_store_matches_uninterrupted_run(self, tmp_path):
        sweep = SWEEPS["smoke8"]
        full = ResultStore(str(tmp_path / "full"))
        Runner(sweep, full, workers=0).run()

        partial = ResultStore(str(tmp_path / "partial"))
        partial.write_sweep(sweep)
        for r in sorted(full.records(), key=lambda r: r["run_id"])[:4]:
            partial.append(r)
        Runner(sweep, partial, workers=2).run()

        assert record_lines(partial) == record_lines(full)
        a = [t.to_dict() for t in merge_tables(sweep, full)]
        b = [t.to_dict() for t in merge_tables(sweep, partial)]
        assert a == b

    def test_interrupt_drains_then_resume_completes(self, tmp_path):
        """A KeyboardInterrupt mid-sweep keeps completed records; a
        second invocation finishes only the remainder."""
        counter = str(tmp_path / "counter")
        sweep = Sweep(name="inter",
                      scenario="tests.lab.crashers:interruptor",
                      grid={"i": list(range(6))},
                      base={"after": 3, "counter": counter})
        store = ResultStore(str(tmp_path / "store"))
        runner = Runner(sweep, store, workers=0)
        report = runner.run()
        assert report["interrupted"]
        assert report["completed"] == 3
        assert len(store.completed_ids()) == 3

        os.remove(counter)  # only 3 runs remain: none reaches `after`
        report2 = Runner(sweep, store, workers=0).run()
        assert not report2["interrupted"]
        assert report2["skipped"] == 3
        assert len(store.completed_ids()) == 6


class TestFailsOnce:
    """Every run is a seeded simulation: a run that raises gets no
    second attempt, is named in the report, writes no record, and the
    next ``run()`` (``repro lab resume``) executes it again."""

    def _fails_once_then_resumes(self, tmp_path, scenario, workers,
                                 cause, result):
        sweep = Sweep(name=scenario,
                      scenario=f"tests.lab.crashers:{scenario}",
                      base={"sentinel": str(tmp_path / "sentinel")})
        store = ResultStore(str(tmp_path / "store"))
        report = Runner(sweep, store, workers=workers).run()
        assert (report["failed"], report["completed"]) == (1, 0)
        (failure,) = report["failures"]
        assert cause in failure["error"]
        assert failure["params"] == sweep.base and failure["seed"] == 0
        assert store.records() == []

        again = Runner(sweep, store, workers=workers).run()
        assert (again["failed"], again["completed"]) == (0, 1)
        assert store.records()[0]["result"] == result

    def test_flaky_serial_fails_once_named(self, tmp_path):
        self._fails_once_then_resumes(tmp_path, "flaky", 0, FLAKY_ERROR,
                                      {"ok": True, "seed_seen": 0})

    def test_flaky_in_pool_fails_once_named(self, tmp_path):
        self._fails_once_then_resumes(tmp_path, "flaky", 2, FLAKY_ERROR,
                                      {"ok": True, "seed_seen": 0})

    def test_worker_crash_fails_once_named(self, tmp_path):
        """os._exit in a worker breaks the pool: the run in flight fails
        once and the next run gets a fresh pool."""
        self._fails_once_then_resumes(
            tmp_path, "crasher", 2, "worker crashed (pool broken)",
            {"survived": True})

    def test_crash_spares_runs_not_yet_submitted(self, tmp_path):
        """One worker, so one run in flight at a time: the crash fails
        that run only and a fresh pool executes the other three."""
        sweep = Sweep(name="crash-grid",
                      scenario="tests.lab.crashers:crasher",
                      grid={"i": [0, 1, 2, 3]},
                      base={"sentinel": str(tmp_path / "sentinel")})
        store = ResultStore(str(tmp_path / "store"))
        report = Runner(sweep, store, workers=1).run()
        assert (report["failed"], report["completed"]) == (1, 3)
        (failure,) = report["failures"]
        assert failure["error"] == "worker crashed (pool broken)"

    @pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                        reason="needs SIGALRM")
    def test_per_run_timeout_fails_run(self, tmp_path):
        sweep = Sweep(name="slow", scenario="tests.lab.crashers:sleeper",
                      base={"sleep_s": 5.0})
        store = ResultStore(str(tmp_path / "store"))
        t0 = time.perf_counter()
        report = Runner(sweep, store, workers=0, timeout_s=0.2).run()
        assert time.perf_counter() - t0 < 2.0  # fired at 0.2 s, not 1 s
        assert report["failed"] == 1
        assert "TimeoutError" in report["failures"][0]["error"]
        assert "exceeded 0.2s" in report["failures"][0]["error"]
