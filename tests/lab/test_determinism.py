"""Serial-vs-parallel determinism: the lab's core guarantee.

The same sweep executed with ``workers=0`` (in-process) and
``workers=4`` (process pool) must produce byte-identical per-run JSON
records and identical merged tables — parallelism is an execution
detail, never an experimental variable.
"""

from repro.lab import SWEEPS, Runner, ResultStore, merge_tables


def _run(sweep, tmp_path, workers):
    store = ResultStore(str(tmp_path / f"w{workers}"))
    report = Runner(sweep, store, workers=workers).run()
    assert report["failed"] == 0
    assert report["completed"] == report["total"]
    return store


class TestDeterminism:
    def test_records_byte_identical_workers_0_vs_4(self, tmp_path):
        sweep = SWEEPS["smoke8"]
        serial = _run(sweep, tmp_path, 0)
        parallel = _run(sweep, tmp_path, 4)
        s_lines = serial.record_lines()
        p_lines = parallel.record_lines()
        assert set(s_lines) == set(p_lines)
        for run_id, line in s_lines.items():
            assert p_lines[run_id] == line

    def test_merged_tables_identical(self, tmp_path):
        sweep = SWEEPS["smoke8"]
        serial = _run(sweep, tmp_path, 0)
        parallel = _run(sweep, tmp_path, 4)
        s_tables = [t.to_dict() for t in merge_tables(sweep, serial)]
        p_tables = [t.to_dict() for t in merge_tables(sweep, parallel)]
        assert s_tables == p_tables

    def test_rerun_serial_is_stable(self, tmp_path):
        """Two independent serial runs serialize identically (no
        wall-clock or pid leakage into the records)."""
        sweep = SWEEPS["smoke8"]
        a = _run(sweep, tmp_path / "a", 0)
        b = _run(sweep, tmp_path / "b", 0)
        assert a.record_lines() == b.record_lines()

    def test_records_carry_no_wall_time_or_pid(self, tmp_path):
        store = _run(SWEEPS["smoke8"], tmp_path, 4)
        for line in store.record_lines().values():
            assert "wall_s" not in line
            assert "pid" not in line
