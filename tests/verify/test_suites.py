"""The check drivers end to end: scenario replays stay clean under
both kernels (the product and ``tests/sim/reference_kernel.py``),
shrinking produces small reproducers, the metamorphic sweep and the
kernel fold judge their grids, and the CLI wires it all up.  (Every
table row's clean/non-vacuous/deterministic contract:
tests/test_scenarios.py; the fold's full grids:
tests/verify/test_kernel_fold.py.)
"""

import json
import re
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs.events import TraceEvent
from repro.scenarios import SCENARIOS, judged_run, run_suite
from repro.txn import build_txn_scenario
from repro.verify import (LockOracle, TraceView, canonical_trace_sha,
                          check_trace, metamorphic_sweep, shrink)

from tests.sim.reference_kernel import KERNELS, lab_run, pin_kernel, run_check
from tests.verify.test_kernel_fold import KNOWN_TIES, fold, meta_cells

FAST_CHECKS = ("ncosed", "dqnl", "srsl", "ddss", "cache-bcc",
               "txn-occ", "txn-2pl")


class TestPackagedChecks:
    def test_slow_kernel_agrees(self):
        for name in ("ncosed", "ddss"):
            r = run_check(name, seed=0, kernel="slow")
            assert r["verdict"] == "ok", r

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_check("nope")

    @pytest.mark.parametrize("kernel", ["warp", "heap"])
    def test_unknown_kernel_rejected(self, kernel):
        """Of the test-side selector: the product has no kernel knob."""
        with pytest.raises(ConfigError, match=r"unknown kernel.*fast\|slow"):
            run_check("ncosed", kernel=kernel)

    def test_run_suite_summary(self):
        rep = run_suite(["ncosed", "cache-bcc"], seed=0)
        assert rep["verdict"] == "ok"
        assert rep["failed"] == []
        assert len(rep["results"]) == 2


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", FAST_CHECKS)
    def test_canonical_sha_matches_across_kernels(self, name):
        """The product kernel against the naive reference."""
        fast = lab_run(name, seed=0, kernel="fast")
        slow = lab_run(name, seed=0, kernel="slow")
        assert fast["verdict"] == slow["verdict"] == "ok"
        assert fast["trace_sha"] == slow["trace_sha"]
        assert fast["events"] == slow["events"]

    def test_canonical_sha_ignores_same_instant_cross_node_order(self):
        a = TraceEvent(1.0, 0, "cache.miss", {"doc": 1})
        b = TraceEvent(1.0, 1, "cache.miss", {"doc": 2})
        doc1 = {"sim_now_us": 2.0, "emitted": 2,
                "events": [list(a), list(b)]}
        doc2 = {"sim_now_us": 2.0, "emitted": 2,
                "events": [list(b), list(a)]}
        assert canonical_trace_sha(doc1) == canonical_trace_sha(doc2)

    def test_canonical_sha_ignores_same_instant_same_node_order(self):
        """Two co-located independent chains sharing an instant (the
        txn-2pl seed 0 shape: a grant and another worker's verb)."""
        evs = [TraceEvent(1.0, 2, "lock.grant", {"lock": 3, "token": 7}),
               TraceEvent(1.0, 2, "verb.complete", {"op": "cas", "dst": 0}),
               TraceEvent(1.0, 2, "verb.issue", {"op": "read", "dst": 1}),
               TraceEvent(1.0, 2, "verb.issue", {"op": "read", "dst": 0})]
        shas = {canonical_trace_sha({"sim_now_us": 2.0, "emitted": 4,
                                     "events": [list(evs[i]) for i in order]})
                for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1))}
        assert len(shas) == 1

    def test_canonical_sha_sees_field_changes(self):
        a = TraceEvent(1.0, 0, "cache.miss", {"doc": 1})
        shas = {canonical_trace_sha({"sim_now_us": 2.0, "emitted": 2,
                                     "events": [list(a), list(b)]})
                for b in (TraceEvent(1.0, 0, "cache.miss", {"doc": 2}),
                          TraceEvent(1.0, 0, "cache.miss", {"doc": 3}),
                          TraceEvent(1.5, 0, "cache.miss", {"doc": 2}),
                          TraceEvent(1.0, 1, "cache.miss", {"doc": 2}),
                          TraceEvent(1.0, 0, "cache.hit", {"doc": 2}))}
        assert len(shas) == 5


class TestTxnMetamorphic:
    """Kernel × seed sweep over the transaction scenario: the fast and
    slow event kernels must produce byte-identical canonical trace
    exports (same-instant order normalized, as everywhere else in the
    suite) and identical commit/abort tallies."""

    @pytest.mark.parametrize("variant", ["occ", "2pl", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernels_agree_on_trace_and_outcomes(self, variant, seed):
        runs = {}
        for kernel in ("fast", "slow"):
            with pin_kernel(kernel):
                obs, stats = build_txn_scenario(
                    variant, seed=seed, n_nodes=3, n_keys=3,
                    n_workers=4, txns_per_worker=3)
            doc = obs.trace_dict()
            counts = Counter(e[2] for e in doc["events"])
            runs[kernel] = {
                "sha": canonical_trace_sha(doc),
                "emitted": doc["emitted"],
                "txn.commit": counts["txn.commit"],
                "txn.abort": counts["txn.abort"],
                "commits": stats["commits"],
                "aborts": stats["aborts"],
                "conserved": stats["conserved"],
            }
        assert runs["fast"] == runs["slow"]
        assert runs["fast"]["txn.commit"] > 0
        assert runs["fast"]["conserved"]

    def test_metamorphic_sweep_covers_txn_checks(self):
        rep = metamorphic_sweep(checks=["txn-occ", "txn-2pl"],
                                seeds=(0,), node_counts=(0,), workers=0)
        assert rep["verdict"] == "ok" and rep["runs"] == 2
        fold_rep = fold(meta_cells(["txn-occ", "txn-2pl"], [0])[0])
        assert fold_rep["pairs"] == 2 and fold_rep["mismatches"] == []


class TestShrink:
    def test_clean_trace_shrinks_to_none(self):
        events = [TraceEvent(1.0, 1, "lock.request",
                             {"mgr": "ncosed-0", "lock": 0, "token": 7,
                              "mode": "EXCLUSIVE"})]
        assert shrink(events, [LockOracle]) is None

    def test_reproducer_is_smaller_and_still_fails(self):
        def lk(t, what, token, lock=0, **extra):
            f = {"mgr": "ncosed-0", "lock": lock, "token": token,
                 "mode": "EXCLUSIVE"}
            f.update(extra)
            return TraceEvent(t, 1, f"lock.{what}", f)

        # clean traffic on lock 1 is noise; the double grant is on lock 0
        events = []
        for i in range(8):
            tok = 100 + i
            events += [lk(10.0 * i, "request", tok, lock=1),
                       lk(10.0 * i + 1, "enqueue", tok, lock=1,
                          prev=0, ep=0),
                       lk(10.0 * i + 2, "grant", tok, lock=1),
                       lk(10.0 * i + 3, "release", tok, lock=1)]
        events += [lk(100.0, "request", 7),
                   lk(101.0, "request", 9),
                   lk(102.0, "enqueue", 7, prev=0, ep=0),
                   lk(103.0, "enqueue", 9, prev=7, ep=0),
                   lk(104.0, "grant", 7),
                   lk(105.0, "grant", 9),  # the injected double grant
                   lk(106.0, "release", 7)]

        rep = shrink(events, [LockOracle])
        assert rep is not None
        assert rep["original_events"] == len(events)
        assert rep["kept_events"] < rep["original_events"]
        # the noise on lock 1 must be gone from the reproducer
        assert all(ev.fields["lock"] == 0 for ev in rep["events"])
        assert "exclusive grant" in rep["violation"]["msg"]


class TestTraceRoundtrip:
    def test_exported_trace_replays_clean(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["check", "run", "ncosed", "--export", str(path)]) == 0
        r = check_trace(str(path))
        assert r["verdict"] == "ok"
        assert r["trace"] == str(path)
        assert r["oracles"]["locks"]["checked"] > 0

    def test_non_trace_json_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigError, match="repro-trace-v1"):
            check_trace(str(path))

    @pytest.mark.parametrize("name", ["ncosed", "txn-occ", "shard"])
    def test_file_digest_is_the_runs_digest(self, tmp_path, name):
        record, obs = judged_run(name)
        path = tmp_path / "trace.json"
        obs.export_trace_json(str(path))
        assert check_trace(str(path))["trace_sha"] == record["trace_sha"]


#: malformed repro-trace-v1 documents -> what the error must name
MALFORMED = [
    ({"format": "repro-trace-v1", "emitted": 2,
      "events": [[1.0, 0, "cache.miss", {"doc": 1}], [1.0, 2]]},
     r"event #1 .*\[1\.0, 2\]"),
    ({"format": "repro-trace-v1", "emitted": 0}, "'events'"),
    ([["format", "repro-trace-v1"]], "is a list, not an object"),
    ({"format": "repro-trace-v1", "emitted": 1, "events": [
        ["x", 0, "ha.expect", {}]]}, r"event #0 needs a finite t.*'x'"),
    ({"format": "repro-trace-v1", "emitted": 1, "events": [
        [1.0, "0", "lock.grant", {}]]}, r"event #0 needs .*int node.*'0'"),
    ({"format": "repro-trace-v1", "emitted": 1, "events": [
        [1.0, 0, 7, {}]]}, r"event #0 needs .*str etype.*7"),
]
MALFORMED_IDS = ["short-row", "no-events", "top-level-list", "str-t",
                 "str-node", "int-etype"]

#: loadable traces whose fields an oracle cannot read -> the error
UNREADABLE = [
    ([[1.0, 0, "lock.request", {}]],
     r"event #0 \(lock\.request\) .*KeyError 'mgr'"),
    ([[1.0, 0, "cache.miss", {"doc": 1}],
      [2.0, 1, "ddss.put.done", {"key": 3}]],
     r"event #1 \(ddss\.put\.done\) .*KeyError"),
]


class TestMalformedTrace:
    @pytest.mark.parametrize("doc, match", MALFORMED, ids=MALFORMED_IDS)
    def test_load_names_the_problem(self, tmp_path, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=match):
            TraceView.load(str(path))

    @pytest.mark.parametrize("doc, match", MALFORMED, ids=MALFORMED_IDS)
    def test_cli_exits_2(self, tmp_path, capsys, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(match, err)

    def test_non_finite_t_refused(self):
        for t in (float("inf"), float("nan")):
            doc = {"format": "repro-trace-v1",
                   "events": [[t, 0, "cache.miss", {"doc": 1}]]}
            with pytest.raises(ConfigError, match="needs a finite t"):
                TraceView.from_dict(doc)

    @pytest.mark.parametrize("events, match", UNREADABLE,
                             ids=["lock-request", "ddss-put-done"])
    def test_unreadable_fields_exit_2(self, tmp_path, capsys, events, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-trace-v1",
                                    "emitted": len(events),
                                    "events": events}))
        with pytest.raises(ConfigError, match=match):
            check_trace(str(path))
        assert main(["check", "trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(match, err)

    def test_unknown_etype_still_loads(self, tmp_path):
        """A trace from before the ``topo.xrack`` row was dropped is
        still checkable: no oracle routes an unknown etype."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "repro-trace-v1", "emitted": 1, "events": [
                [1.0, 0, "topo.xrack",
                 {"dst": 2, "srack": 0, "drack": 1, "nbytes": 64}]]}))
        assert check_trace(str(path))["verdict"] == "ok"


class TestMetamorphic:
    def test_sweep_smoke(self):
        rep = metamorphic_sweep(checks=["ncosed"], seeds=(0, 1),
                                node_counts=(0, 3), workers=0)
        assert rep["verdict"] == "ok"
        assert rep["runs"] == 4  # seeds x node counts, one kernel
        assert rep["violations"] == [] and rep["run_failures"] == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            metamorphic_sweep(checks=["nope"], seeds=(0,))

    def test_known_tie_is_reported_not_failed(self):
        cell = sorted(KNOWN_TIES)[0]
        rep = fold(meta_cells([cell[0]], [cell[2]])[0])
        assert rep["ties"] == [cell]
        assert rep["mismatches"] == [] and rep["stale"] == []

    def test_unlisted_tie_fails(self):
        cell = sorted(KNOWN_TIES)[0]
        rep = fold(meta_cells([cell[0]], [cell[2]])[0], known={})
        assert rep["mismatches"] == [cell] and rep["ties"] == []

    def test_stale_entry_fails(self):
        """A listed cell whose kernels agree again must be deleted, not
        left to excuse a future divergence; cells that did not run are
        not judged."""
        rep = fold(meta_cells(["srsl"], [0])[0],
                   known={("srsl", 0, 0): "link tie: made up",
                          ("srsl", 0, 99): "link tie: not in this run"})
        assert rep["stale"] == [("srsl", 0, 0)] and rep["pairs"] == 1


class TestCheckCli:
    def test_list(self, capsys):
        assert main(["check", "list"]) == 0
        assert capsys.readouterr().out.split() == sorted(SCENARIOS)

    def test_run_writes_verdict_json(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        assert main(["check", "run", "ncosed",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "ok"
        assert doc["results"][0]["scenario"] == "ncosed"
        assert doc["results"][0]["trace_sha"]
        out = capsys.readouterr().out
        assert "verdict=ok" in out
        assert "1/1 checks ok" in out

    def test_run_both_kernels(self, capsys):
        """The CLI's run on the product and on the reference kernel."""
        for kernel in KERNELS:
            with pin_kernel(kernel):
                assert main(["check", "run", "srsl"]) == 0
        out = capsys.readouterr().out
        assert out.count("[srsl] seed=0") == 2
        assert out.count("1/1 checks ok") == 2

    def test_kernel_choices_are_fast_and_slow(self, capsys):
        """The product ships one kernel: no command takes a choice of
        the fast or the slow one."""
        for flag in (["--kernel", "slow"], ["--both-kernels"]):
            for command in (["check", "run", "srsl"], ["chaos", "run"],
                            ["locks", "run"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + flag)
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_name_is_usage_error(self, capsys):
        assert main(["check", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_trace_requires_path(self, capsys):
        assert main(["check", "trace"]) == 2

    def test_trace_subcommand(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["check", "run", "ncosed", "--export", str(path)]) == 0
        assert main(["check", "trace", str(path)]) == 0
        assert "verdict=ok" in capsys.readouterr().out

    def test_meta_subcommand(self, tmp_path, capsys):
        path = tmp_path / "meta.json"
        assert main(["check", "meta", "srsl", "--seeds", "0",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["verdict"] == "ok"
        assert doc["runs"] == 1
        assert "violations=0" in capsys.readouterr().out
