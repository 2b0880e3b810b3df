"""Lock-design arena: tournament harness, bench report, CLI, sweep."""

import json

import pytest

from repro.cli import main
from repro.dlm.tournament import (SCHEMES, lock_tournament,
                                   rate_at_quantile)
from repro.errors import ConfigError, LockError


class TestTournament:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cell_is_oracle_clean(self, scheme):
        stats = lock_tournament(scheme, n_clients=16, alpha=1.0,
                                seed=0, rounds=3)
        assert stats["violations"] == 0
        assert stats["grants"] == 48
        assert stats["failures"] == 0
        assert stats["ops_per_s"] > 0
        assert 0.0 < stats["jain"] <= 1.0

    def test_deterministic(self):
        a = lock_tournament("mcs", n_clients=16, seed=2, rounds=3)
        b = lock_tournament("mcs", n_clients=16, seed=2, rounds=3)
        assert a == b

    def test_offered_schedule_is_scheme_independent(self):
        # same seed, different scheme: identical workload => identical
        # grant totals once every client finishes within the horizon
        a = lock_tournament("srsl", n_clients=16, seed=5, rounds=3)
        b = lock_tournament("dqnl", n_clients=16, seed=5, rounds=3)
        assert a["grants"] == b["grants"]

    @pytest.mark.parametrize("scheme", ["ncosed", "mcs", "alock"])
    def test_chaos_cell_reclaims_and_stays_clean(self, scheme):
        stats = lock_tournament(scheme, n_clients=16, alpha=1.0,
                                chaos="crash", seed=0, rounds=4)
        assert stats["violations"] == 0
        assert stats["grants"] > 0

    def test_unknown_scheme_or_chaos_rejected(self):
        with pytest.raises(LockError):
            lock_tournament("zk", n_clients=4)
        with pytest.raises(LockError):
            lock_tournament("srsl", n_clients=4, chaos="flood")

    def test_no_clients_rejected_and_no_grants_is_vacuous(self):
        with pytest.raises(ConfigError, match="n_clients"):
            lock_tournament("ncosed", n_clients=0)
        # clients that arrive after the horizon grant nothing
        stats = lock_tournament("ncosed", n_clients=4, horizon_us=1e-3)
        assert stats["grants"] == 0 and stats["verdict"] == "vacuous"
        assert lock_tournament("ncosed", n_clients=4,
                               rounds=1)["verdict"] == "ok"


class TestStragglerProofRate:
    """``grants / last_grant_time`` halved MCS's chaos rate for one
    grant that landed after recovery instead of never (PR 13)."""

    #: 1480 grants over ~10 ms, drawn once: the shape of a chaos cell
    TIMES = [10_000.0 * ((i * 2654435761) % 1480) / 1480 + 3.0
             for i in range(1480)]

    @staticmethod
    def naive(times):
        return len(times) / (max(times) / 1e6)

    def test_one_late_grant_moves_the_t95_rate_under_five_percent(self):
        t95, rate = rate_at_quantile(self.TIMES)
        late = self.TIMES + [25_000.0]  # lands after the restart
        t95_late, rate_late = rate_at_quantile(late)
        assert abs(rate_late - rate) / rate < 0.05
        assert abs(t95_late - t95) / t95 < 0.05
        # ...where the naive rate loses more than half
        assert self.naive(late) < 0.5 * self.naive(self.TIMES)

    def test_permutation_and_scale(self):
        t95, rate = rate_at_quantile(self.TIMES)
        assert rate_at_quantile(sorted(self.TIMES)) == (t95, rate)
        t95_2x, rate_2x = rate_at_quantile([2 * t for t in self.TIMES])
        assert t95_2x == 2 * t95
        assert rate_2x == pytest.approx(rate / 2)

    def test_empty_and_exact_quantile(self):
        assert rate_at_quantile([]) == (0.0, 0.0)
        # 19 of 20 grants by t=19: the 20th may be arbitrarily late
        times = [float(t) for t in range(1, 20)] + [1e9]
        assert rate_at_quantile(times) == (19.0, 19 / 19e-6)

    def test_cell_reports_it_beside_the_plain_rate(self):
        stats = lock_tournament("mcs", n_clients=16, alpha=1.0,
                                chaos="crash", seed=0, rounds=4)
        assert 0 < stats["t95_grant_us"] <= stats["makespan_us"]
        assert stats["ops_per_s_t95"] >= 0.95 * stats["ops_per_s"]


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.bench.locks import run_locks_suite

        return run_locks_suite(seed=0, levels=(8, 16), alpha=1.0)

    def test_crossover_table_shape(self, report):
        res = report["results"]
        assert res["crossover"]["levels"] == [8, 16]
        for n in (8, 16):
            assert res["crossover"]["winners"][str(n)] in SCHEMES
            for scheme in SCHEMES:
                cell = res["tournament"][f"{scheme}@{n}"]
                assert cell["violations"] == 0
                assert cell["ops_per_s"] > 0
        assert set(res["chaos"]) == set(SCHEMES)
        for scheme in SCHEMES:
            # the straggler-proof rate is a chaos-section column only
            assert res["chaos"][scheme]["ops_per_s_t95"] > 0
            assert "ops_per_s_t95" not in res["tournament"][f"{scheme}@8"]
        assert set(res["rates"]) == {f"{s}_ops_per_s" for s in SCHEMES}

    def test_write_report_archives(self, report, tmp_path):
        from repro.bench.harness import write_report

        out = tmp_path / "BENCH_locks.json"
        paths = write_report(report, str(out), str(tmp_path / "res"),
                             "locks")
        assert len(paths) == 2
        assert "/res/locks-" in paths[1]
        doc = json.loads(out.read_text())
        assert doc["suite"] == "locks"


class TestLocksCLI:
    def test_ls(self, capsys):
        assert main(["locks", "ls"]) == 0
        out = capsys.readouterr().out
        for scheme in SCHEMES:
            assert scheme in out

    def test_run_writes_stats_json(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        assert main(["locks", "run", "mcs", "--clients", "12",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict=ok" in out
        doc = json.loads(path.read_text())
        assert doc["scheme"] == "mcs" and doc["violations"] == 0

    def test_run_without_clients_is_a_usage_error(self, capsys):
        assert main(["locks", "run", "ncosed", "--clients", "0"]) == 2
        captured = capsys.readouterr()
        assert "n_clients" in captured.err
        assert "verdict=ok" not in captured.out

    def test_bench_deterministic_and_gated(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["locks", "bench", "--levels", "8", "16", "--alpha",
                "1.0", "--no-archive"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b),
                            "--baseline", str(a)]) == 0
        assert a.read_text() == b.read_text()
        assert "regression gate passed" in capsys.readouterr().out

    def test_bench_missing_baseline_skips_gate(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["locks", "bench", "--levels", "8", "--alpha",
                     "1.0", "--no-archive", "--out", str(out),
                     "--baseline", str(tmp_path / "nope.json")]) == 0
        assert "regression gate skipped" in capsys.readouterr().out


class TestLabSweep:
    def test_locks_packaged(self):
        from repro.lab.scenarios import SWEEPS, packaged_sweep

        assert "locks" in SWEEPS
        sweep = packaged_sweep("locks")
        assert sweep.grid["scheme"] == list(SCHEMES)

    def test_locks_point_runs(self):
        from repro.lab.scenarios import locks_point

        r = locks_point(scheme="alock", n_clients=12, alpha=1.0, seed=0)
        assert r["violations"] == 0 and r["grants"] > 0
