"""Seeded mutations against the lock oracle: every injected protocol
break on a synthetic trace must be flagged, and the clean version of the
same trace must pass."""

from repro.obs.events import TraceEvent
from repro.verify import LockOracle, TraceView, replay_fresh


def _ev(t, node, etype, **fields):
    return TraceEvent(t, node, etype, fields)


def _lk(t, node, what, token, mode="EXCLUSIVE", mgr="ncosed-0",
        lock=0, **extra):
    f = {"mgr": mgr, "lock": lock, "token": token}
    if what in ("request", "enqueue", "grant"):
        f["mode"] = mode
    f.update(extra)
    return _ev(t, node, f"lock.{what}", **f)


def _replay(events):
    oracles, violations = replay_fresh(TraceView(events), [LockOracle])
    return oracles[0], violations


def _msgs(violations):
    return " | ".join(v["msg"] for v in violations)


class TestCleanTraces:
    def test_fifo_chain_passes(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(2.0, 1, "grant", 7),
            _lk(3.0, 2, "request", 9),
            _lk(4.0, 2, "enqueue", 9, prev=7, ep=0),
            _lk(5.0, 1, "release", 7),
            _lk(6.0, 2, "grant", 9),
            _lk(7.0, 2, "release", 9),
        ]
        oracle, violations = _replay(events)
        assert violations == []
        assert oracle.checked == len(events)

    def test_shared_batch_passes(self):
        events = [
            _lk(0.0, 1, "request", 7, mode="SHARED"),
            _lk(0.5, 2, "request", 9, mode="SHARED"),
            _lk(1.0, 1, "enqueue", 7, mode="SHARED", prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, mode="SHARED", prev=7, ep=0),
            _lk(2.0, 1, "grant", 7, mode="SHARED"),
            _lk(2.5, 2, "grant", 9, mode="SHARED"),
            _lk(3.0, 1, "release", 7),
            _lk(3.5, 2, "release", 9),
        ]
        _oracle, violations = _replay(events)
        assert violations == []


class TestMutualExclusion:
    def test_double_exclusive_grant_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(0.5, 2, "request", 9),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, prev=7, ep=0),
            _lk(2.0, 1, "grant", 7),
            # mutation: 9 granted while 7 still holds
            _lk(3.0, 2, "grant", 9),
        ]
        _oracle, violations = _replay(events)
        assert "exclusive grant" in _msgs(violations)
        assert "while held by" in _msgs(violations)

    def test_shared_grant_under_exclusive_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(0.5, 2, "request", 9, mode="SHARED"),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, mode="SHARED", prev=7, ep=0),
            _lk(2.0, 1, "grant", 7),
            _lk(3.0, 2, "grant", 9, mode="SHARED"),
        ]
        _oracle, violations = _replay(events)
        assert "shared grant" in _msgs(violations)

    def test_release_by_non_holder_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(2.0, 1, "grant", 7),
            _lk(3.0, 2, "release", 9),
        ]
        _oracle, violations = _replay(events)
        assert "release of lock by non-holder token 9" in _msgs(violations)


class TestFairness:
    def test_overtake_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(0.5, 2, "request", 9),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, prev=7, ep=0),
            # mutation: 9 jumps the queue — its predecessor 7 was
            # never granted
            _lk(2.0, 2, "grant", 9),
        ]
        _oracle, violations = _replay(events)
        assert "FIFO violation: token 9 granted before its queue " \
               "predecessor 7" in _msgs(violations)

    def test_grant_without_enqueue_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(2.0, 1, "grant", 7),
        ]
        _oracle, violations = _replay(events)
        assert "no matching enqueue" in _msgs(violations)

    def test_retry_may_consume_earlier_attempts_grant(self):
        # FT recovery: 9's first wait aborts, it re-enqueues behind 11,
        # then legally consumes the hand-off earned by its first
        # attempt (prev=7, which released).  Must NOT be flagged.
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(0.5, 2, "request", 9),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, prev=7, ep=0),
            _lk(2.0, 1, "grant", 7),
            _lk(2.5, 3, "request", 11),
            _lk(3.0, 3, "enqueue", 11, prev=9, ep=0),
            _lk(3.5, 1, "release", 7),
            _lk(4.0, 2, "enqueue", 9, prev=11, ep=0),  # the retry
            _lk(4.5, 2, "grant", 9),
            _lk(5.0, 2, "release", 9),
            _lk(5.5, 3, "grant", 11),
            _lk(6.0, 3, "release", 11),
        ]
        _oracle, violations = _replay(events)
        assert violations == []

    def test_srsl_positional_order_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7, mgr="srsl-0"),
            _lk(0.5, 2, "request", 9, mgr="srsl-0"),
            _lk(1.0, 1, "enqueue", 7, mgr="srsl-0", prev=0, ep=0),
            _lk(1.5, 2, "enqueue", 9, mgr="srsl-0", prev=0, ep=0),
            # mutation: server granted the younger queue entry first
            _lk(2.0, 2, "grant", 9, mgr="srsl-0"),
            _lk(2.5, 2, "release", 9, mgr="srsl-0"),
            _lk(3.0, 1, "grant", 7, mgr="srsl-0"),
        ]
        _oracle, violations = _replay(events)
        assert "SRSL FIFO violation: token 9" in _msgs(violations)


class TestEpochFencing:
    def test_stale_epoch_grant_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _ev(2.0, 0, "lock.reclaim", mgr="ncosed-0", lock=0,
                old_ep=0, new_ep=1),
            # mutation: a grant fenced to the dead epoch slips through
            _lk(3.0, 1, "grant", 7, ep=0),
        ]
        _oracle, violations = _replay(events)
        assert "fenced to stale epoch 0" in _msgs(violations)

    def test_reclaim_epoch_skip_flagged(self):
        events = [
            _ev(1.0, 0, "lock.reclaim", mgr="ncosed-0", lock=0,
                old_ep=0, new_ep=2),
        ]
        _oracle, violations = _replay(events)
        assert "reclaim skipped epochs: 0 -> 2" in _msgs(violations)

    def test_zombie_surviving_reclaim_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(2.0, 1, "grant", 7, ep=0),
            _ev(3.0, 0, "lock.reclaim", mgr="ncosed-0", lock=0,
                old_ep=0, new_ep=1),
            # mutation: no lock.revoke for 7 ever arrives
        ]
        _oracle, violations = _replay(events)
        assert "token 7" in _msgs(violations)
        assert "survived a reclaim without a revoke" in _msgs(violations)

    def test_revoked_holder_not_a_zombie(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _lk(1.0, 1, "enqueue", 7, prev=0, ep=0),
            _lk(2.0, 1, "grant", 7, ep=0),
            _ev(3.0, 0, "lock.reclaim", mgr="ncosed-0", lock=0,
                old_ep=0, new_ep=1),
            _lk(4.0, 1, "revoke", 7),
        ]
        _oracle, violations = _replay(events)
        assert violations == []


class TestMCSQueueOrder:
    def _trace(self, third_prev):
        # 7 (tail empty), 9 behind 7, 11 behind `third_prev`
        return [
            _lk(0.0, 1, "request", 7, mgr="mcs-0"),
            _lk(0.5, 2, "request", 9, mgr="mcs-0"),
            _lk(1.0, 3, "request", 11, mgr="mcs-0"),
            _lk(1.5, 1, "enqueue", 7, mgr="mcs-0", prev=0, ep=0),
            _lk(2.0, 2, "enqueue", 9, mgr="mcs-0", prev=7, ep=0),
            _lk(2.5, 3, "enqueue", 11, mgr="mcs-0", prev=third_prev,
                ep=0),
            _lk(3.0, 1, "grant", 7, mgr="mcs-0", ep=0),
            _lk(3.5, 1, "release", 7, mgr="mcs-0"),
            _lk(4.0, 2, "grant", 9, mgr="mcs-0", ep=0),
            _lk(4.5, 2, "release", 9, mgr="mcs-0"),
            _lk(5.0, 3, "grant", 11, mgr="mcs-0", ep=0),
            _lk(5.5, 3, "release", 11, mgr="mcs-0"),
        ]

    def test_queue_order_clean(self):
        _oracle, violations = _replay(self._trace(third_prev=9))
        assert violations == []

    def test_grant_order_diverging_from_queue_order_flagged(self):
        # 11 queued behind 7 (already granted AND released, so the
        # generic FIFO check passes) yet is granted right after 9 —
        # queue order 7,9 ... but grant order says 11 skipped the
        # spot its CAS earned.  Only the MCS-specific check sees it.
        _oracle, violations = _replay(self._trace(third_prev=7))
        assert "MCS queue-order violation: grant to token 11" \
            in _msgs(violations)
        assert "previous epoch-0 grant went to 9" in _msgs(violations)


def _alk(t, node, what, token, **extra):
    return _lk(t, node, what, token, mgr="alock-0", **extra)


def _alk_pass(t, node, token, cohort, chain, budget=3):
    """request+enqueue+grant triple for one pass-off link."""
    return [
        _alk(t, node, "request", token),
        _alk(t + 0.1, node, "enqueue", token, prev=0, ep=0,
             cohort=cohort),
        _alk(t + 0.2, node, "grant", token, ep=0, cohort=cohort,
             chain=chain, budget=budget),
    ]


class TestALockCohortDiscipline:
    def test_in_budget_chain_clean(self):
        events = (_alk_pass(0.0, 1, 7, "L", 0)
                  + [_alk(1.0, 1, "release", 7)]
                  + _alk_pass(2.0, 1, 9, "L", 1)
                  + [_alk(3.0, 1, "release", 9)]
                  + _alk_pass(4.0, 2, 11, "R", 0)   # new tournament
                  + [_alk(5.0, 2, "release", 11)])
        _oracle, violations = _replay(events)
        assert violations == []

    def test_budget_overrun_flagged(self):
        events = []
        for i, token in enumerate((7, 9, 11, 13)):   # chain 0..3, budget 3
            events += _alk_pass(10.0 * i, 1, token, "L", i)
            events.append(_alk(10.0 * i + 5.0, 1, "release", token))
        _oracle, violations = _replay(events)
        assert ("cohort pass-off chain position 3 reached the cohort "
                "budget 3") in _msgs(violations)

    def test_cross_cohort_pass_flagged(self):
        events = (_alk_pass(0.0, 1, 7, "L", 0)
                  + [_alk(1.0, 1, "release", 7)]
                  + _alk_pass(2.0, 2, 9, "R", 1))   # chain=1 across cohorts
        _oracle, violations = _replay(events)
        assert "in-budget pass-off crossed cohorts (L -> R)" \
            in _msgs(violations)

    def test_chain_jump_flagged(self):
        events = (_alk_pass(0.0, 1, 7, "L", 0)
                  + [_alk(1.0, 1, "release", 7)]
                  + _alk_pass(2.0, 1, 9, "L", 2))   # 0 -> 2, no chain=1
        _oracle, violations = _replay(events)
        assert "pass-off chain jumped from 0 to 2" in _msgs(violations)

    def test_orphan_chain_continuation_flagged(self):
        _oracle, violations = _replay(_alk_pass(0.0, 1, 7, "L", 1))
        assert ("chain continuation (chain=1) without a same-epoch "
                "predecessor grant") in _msgs(violations)

    def test_missing_arena_fields_flagged(self):
        events = [
            _alk(0.0, 1, "request", 7),
            _alk(0.5, 1, "enqueue", 7, prev=0, ep=0),
            _alk(1.0, 1, "grant", 7, ep=0),   # no cohort/chain/budget
        ]
        _oracle, violations = _replay(events)
        assert "without cohort/chain/budget fields" in _msgs(violations)

    def test_consecutive_wins_past_waiting_rival_flagged(self):
        # rival cohort-R leader queues at t=0; cohort L wins the
        # tournament at t=100 AND again at t=200 with R still waiting
        events = [
            _alk(0.0, 2, "request", 9),
            _alk(0.1, 2, "enqueue", 9, prev=0, ep=0, cohort="R"),
            _alk(100.0, 1, "request", 7),
            _alk(100.1, 1, "enqueue", 7, prev=0, ep=0, cohort="L"),
            _alk(100.2, 1, "grant", 7, ep=0, cohort="L", chain=0,
                 budget=3),
            _alk(150.0, 1, "release", 7),
            _alk(200.0, 1, "request", 11),
            _alk(200.1, 1, "enqueue", 11, prev=0, ep=0, cohort="L"),
            _alk(200.2, 1, "grant", 11, ep=0, cohort="L", chain=0,
                 budget=3),
        ]
        _oracle, violations = _replay(events)
        assert ("cohort L won consecutive tournaments past waiting "
                "rival-cohort leader(s) [9]") in _msgs(violations)

    def test_rival_winning_second_tournament_clean(self):
        # same setup but the rival DOES win the second tournament
        events = [
            _alk(0.0, 2, "request", 9),
            _alk(0.1, 2, "enqueue", 9, prev=0, ep=0, cohort="R"),
            _alk(100.0, 1, "request", 7),
            _alk(100.1, 1, "enqueue", 7, prev=0, ep=0, cohort="L"),
            _alk(100.2, 1, "grant", 7, ep=0, cohort="L", chain=0,
                 budget=3),
            _alk(150.0, 1, "release", 7),
            _alk(200.0, 2, "grant", 9, ep=0, cohort="R", chain=0,
                 budget=3),
            _alk(250.0, 2, "release", 9),
        ]
        _oracle, violations = _replay(events)
        assert violations == []


class TestWordChecks:
    def test_unknown_tail_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _ev(1.0, 1, "lock.word", mgr="ncosed-0", lock=0,
                word=(999 << 24) | 1),
        ]
        _oracle, violations = _replay(events)
        assert "tail 999 is not a known token" in _msgs(violations)

    def test_future_epoch_word_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _ev(1.0, 1, "lock.word", mgr="ncosed-0", lock=0,
                word=(5 << 48) | (7 << 24) | 1),
        ]
        _oracle, violations = _replay(events)
        assert "future epoch 5" in _msgs(violations)

    def test_count_above_population_flagged(self):
        events = [
            _lk(0.0, 1, "request", 7),
            _ev(1.0, 1, "lock.word", mgr="ncosed-0", lock=0, word=2),
        ]
        _oracle, violations = _replay(events)
        assert "shared count 2 exceeds" in _msgs(violations)
