"""Lock-design arena: tournament harness, CLI, sweep."""

import json

import pytest

from repro.cli import main
from repro.dlm import DESIGNS
from repro.dlm.tournament import lock_tournament, rate_at_quantile
from repro.errors import ConfigError, LockError


class TestTournament:
    @pytest.mark.parametrize("scheme", DESIGNS)
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

    def test_a_judged_finding_fails_the_cell(self, monkeypatch):
        # the cell is judged by repro.verify.judge: an oracle finding
        # is a violation, and no stats come back
        from repro.verify import LockOracle

        monkeypatch.setattr(LockOracle, "finish", lambda self: self.flag(
            None, None, "planted: two holders"))
        with pytest.raises(LockError, match=r"UNSAFE: 1 violation\(s\); "
                           r"first: planted: two holders"):
            lock_tournament("srsl", n_clients=4, rounds=1)

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


class TestLocksCLI:
    def test_ls(self, capsys):
        assert main(["locks", "ls"]) == 0
        out = capsys.readouterr().out
        for scheme, design in DESIGNS.items():
            assert f"{scheme:8s} {design.description}" in out

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
