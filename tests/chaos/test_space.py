"""ChaosSpace sampling (deterministic, order-independent), schedule
compilation, and the schedule -> ha.expect derivation rules."""

import json

import pytest

from repro.chaos import ChaosSpace, ha_expectations, plan_from_schedule
from repro.chaos.space import ALL_KINDS, schedule_key
from repro.errors import ConfigError
from repro.net import Cluster

N = 5
HORIZON = 30_000.0


def space(**kw):
    return ChaosSpace(N, HORIZON, **kw)


class TestSampling:
    def test_same_seed_index_is_identical(self):
        a = space().sample(3, 7)
        b = space().sample(3, 7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_order_independent(self):
        # sampling index 5 cold must equal sampling it after 0..4
        cold = space().sample(9, 5)
        warm_space = space()
        for i in range(5):
            warm_space.sample(9, i)
        assert warm_space.sample(9, 5) == cold

    def test_indexes_differ(self):
        dumps = {json.dumps(space().sample(0, i), sort_keys=True)
                 for i in range(10)}
        assert len(dumps) > 5  # not all schedules collapse to one

    def test_fields_within_bounds(self):
        sp = space(max_faults=4)
        for index in range(30):
            schedule = sp.sample(1, index)
            assert 1 <= len(schedule) <= 4
            for f in schedule:
                assert f["kind"] in ALL_KINDS
                if f["kind"] == "crash":
                    assert f["node"] != 0  # protected front-end
                    assert 0 < f["at"] < HORIZON
                elif f["kind"] == "partition":
                    flat = sorted(n for g in f["groups"] for n in g)
                    assert flat == list(range(N))
                    assert all(f["groups"])  # no empty side
                    assert 0 < f["start"] < f["until"] <= 0.92 * HORIZON
                else:
                    assert 0 < f["start"] < f["until"] <= 0.92 * HORIZON

    def test_kind_restriction_respected(self):
        sp = space(kinds=("partition",))
        kinds = {f["kind"] for i in range(10) for f in sp.sample(0, i)}
        assert kinds == {"partition"}

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosSpace(2, HORIZON)
        with pytest.raises(ConfigError):
            ChaosSpace(N, 0.0)
        with pytest.raises(ConfigError):
            ChaosSpace(N, HORIZON, max_faults=0)
        with pytest.raises(ConfigError):
            ChaosSpace(N, HORIZON, kinds=("partition", "meteor"))


class TestCompilation:
    ONE_OF_EACH = [
        {"kind": "crash", "node": 1, "at": 2_000.0, "restart_at": 9_000.0},
        {"kind": "partition", "groups": [[0, 1], [2, 3, 4]],
         "start": 3_000.0, "until": 8_000.0, "oneway": False},
        {"kind": "slow", "node": 2, "factor": 5.0,
         "start": 1_000.0, "until": 4_000.0},
        {"kind": "stall", "node": 3, "start": 2_000.0, "until": 6_000.0},
        {"kind": "drop", "rate": 0.1, "start": 500.0, "until": 2_500.0},
        {"kind": "dup", "rate": 0.3, "start": 600.0, "until": 2_000.0},
    ]

    def test_every_kind_compiles_and_installs(self):
        plan = plan_from_schedule(self.ONE_OF_EACH)
        assert (plan.crashes and plan.partitions and plan.slow_nodes
                and plan.credit_stalls)
        assert ({f.kind for f in plan.message_faults}
                == {"drop", "duplicate"})
        Cluster(n_nodes=N, seed=0).install_faults(plan)  # validates

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="meteor"):
            plan_from_schedule([{"kind": "meteor", "at": 1.0}])

    def test_schedule_keys_are_readable(self):
        labels = [schedule_key(f) for f in self.ONE_OF_EACH]
        assert labels[0] == "crash(node=1@2000.0->restart@9000.0)"
        assert labels[1] == "partition(01|234@[3000.0,8000.0))"
        assert "slow(node=2x5.0" in labels[2]
        assert "stall(node=3" in labels[3]
        assert "drop(rate=0.1" in labels[4]
        assert labels[5] == "dup(rate=0.3@[600.0,2000.0))"
        oneway = dict(self.ONE_OF_EACH[1], oneway=True)
        assert "->" in schedule_key(oneway)


def part(groups, start=6_000.0, until=20_000.0, oneway=False):
    return {"kind": "partition", "groups": groups, "start": start,
            "until": until, "oneway": oneway}


class TestHaExpectations:
    BOUND = 3_000.0

    def derive(self, schedule):
        return ha_expectations(schedule, n_nodes=N, n_locks=4,
                               bound_us=self.BOUND)

    def test_majority_front_expects_failover(self):
        exps = self.derive([part([[0, 1, 2], [3, 4]])])
        assert len(exps) == 1
        e = exps[0]
        assert e["kind"] == "failover"
        assert e["victims"] == [3]  # node 4 hosts no lock (n_locks=4)
        assert e["after"] == 6_000.0 and e["by"] == 9_000.0

    def test_minority_front_expects_no_failover(self):
        exps = self.derive([part([[0, 1], [2, 3, 4]])])
        assert len(exps) == 1
        e = exps[0]
        assert e["kind"] == "no-failover"
        assert e["victims"] == [2, 3, 4]
        assert e["until"] == 20_000.0

    def test_oneway_and_partial_cuts_stay_silent(self):
        assert self.derive([part([[0, 1, 2], [3, 4]], oneway=True)]) == []
        # group pair not covering all nodes: node 4 bridges both sides
        assert self.derive([part([[0, 1, 2], [3]])]) == []

    def test_failover_needs_clean_neighbourhood(self):
        clean = part([[0, 1, 2], [3, 4]])
        # a second partition inside the detection bound voids it
        assert self.derive([clean,
                            part([[0, 3], [1, 2, 4]], start=7_000.0,
                                 until=9_000.0)]) == []
        # a gray failure starting inside the bound voids it too
        assert self.derive([clean,
                            {"kind": "slow", "node": 2, "factor": 8.0,
                             "start": 6_500.0, "until": 9_000.0}]) == []
        # too early (phi history not warmed up) voids it
        assert self.derive([part([[0, 1, 2], [3, 4]],
                                 start=1_000.0, until=9_000.0)]) == []
        # window shorter than the bound is unjudgeable
        assert self.derive([part([[0, 1, 2], [3, 4]],
                                 until=7_000.0)]) == []

    def test_crashed_victims_are_excluded(self):
        # node 3 crashes later: its missing failover proves nothing
        exps = self.derive([part([[0, 1, 2], [3, 4]]),
                            {"kind": "crash", "node": 3, "at": 25_000.0,
                             "restart_at": None}])
        assert exps == []  # 3 crashed, 4 hosts no lock: no victims left
