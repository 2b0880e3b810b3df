"""Specs, run-id hashing, seed derivation and the result store."""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.lab import (ResultStore, RunSpec, Sweep, canonical_json,
                       record_for, resolve_dotted)
from repro.sim import spawn_child

from tests.lab.records import record_lines


class TestRunSpec:
    def test_run_id_is_content_hash(self):
        a = RunSpec("m:f", {"x": 1}, seed=0, repeat=0)
        b = RunSpec("m:f", {"x": 1}, seed=0, repeat=0)
        assert a.run_id == b.run_id
        assert a.run_id != RunSpec("m:f", {"x": 2}).run_id
        assert a.run_id != RunSpec("m:f", {"x": 1}, seed=1).run_id
        assert a.run_id != RunSpec("m:f", {"x": 1}, repeat=1).run_id

    def test_run_id_independent_of_param_insertion_order(self):
        a = RunSpec("m:f", {"x": 1, "y": 2})
        b = RunSpec("m:f", {"y": 2, "x": 1})
        assert a.run_id == b.run_id

    def test_effective_seed_repeat0_is_root(self):
        assert RunSpec("m:f", seed=7).effective_seed == 7

    def test_effective_seed_repeats_decorrelated(self):
        seeds = {RunSpec("m:f", seed=7, repeat=r).effective_seed
                 for r in range(10)}
        assert len(seeds) == 10
        assert RunSpec("m:f", seed=7, repeat=3).effective_seed == \
            spawn_child(7, 3)

    def test_roundtrip(self):
        spec = RunSpec("m:f", {"x": 1}, seed=2, repeat=3)
        assert RunSpec.from_dict(spec.to_dict()) == spec


class TestSpawnChild:
    def test_deterministic(self):
        assert spawn_child(1, 5) == spawn_child(1, 5)

    def test_neighbours_diverge(self):
        xs = [spawn_child(0, i) for i in range(100)]
        assert len(set(xs)) == 100
        # children differ from naive seed+i arithmetic in every case
        assert all(x != i for i, x in enumerate(xs))

    def test_seed_sensitivity(self):
        assert spawn_child(0, 1) != spawn_child(1, 1)


class TestSweep:
    def test_expand_grid_cross_product(self):
        sweep = Sweep(name="s", scenario="m:f",
                      grid={"a": [1, 2], "b": ["x", "y"]},
                      seeds=(0, 1), repeats=2)
        specs = sweep.expand()
        assert len(specs) == 2 * 2 * 2 * 2
        assert len({s.run_id for s in specs}) == len(specs)

    def test_base_params_merged(self):
        sweep = Sweep(name="s", scenario="m:f", grid={"a": [1]},
                      base={"c": 9})
        assert sweep.expand()[0].params == {"a": 1, "c": 9}

    def test_base_grid_overlap_rejected(self):
        with pytest.raises(ConfigError):
            Sweep(name="s", scenario="m:f", grid={"a": [1]},
                  base={"a": 2})

    def test_spec_hash_stable_roundtrip(self):
        sweep = Sweep(name="s", scenario="m:f", grid={"a": [1, 2]})
        clone = Sweep.from_dict(sweep.to_dict())
        assert clone.spec_hash() == sweep.spec_hash()

    def test_adding_grid_point_preserves_existing_ids(self):
        small = Sweep(name="s", scenario="m:f", grid={"a": [1, 2]})
        big = Sweep(name="s", scenario="m:f", grid={"a": [1, 2, 3]})
        small_ids = {s.run_id for s in small.expand()}
        big_ids = {s.run_id for s in big.expand()}
        assert small_ids < big_ids


class TestResolveDotted:
    def test_colon_and_dot_forms(self):
        assert resolve_dotted("repro.lab:smoke") is \
            resolve_dotted("repro.lab.smoke")

    @pytest.mark.parametrize("path", ["nope", "repro.lab:nope",
                                      "no.such.module:f"])
    def test_bad_paths_rejected(self, path):
        with pytest.raises(ConfigError):
            resolve_dotted(path)


class TestResultStore:
    def test_append_and_completed_ids(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        spec = RunSpec("m:f", {"x": 1})
        store.append(record_for(spec, {"v": 1}))
        assert store.completed_ids() == {spec.run_id}
        assert store.records()[0]["result"] == {"v": 1}

    def test_truncated_tail_line_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        spec = RunSpec("m:f", {"x": 1})
        store.append(record_for(spec, {"v": 1}))
        with open(os.path.join(store.path, store.RECORDS), "a") as fh:
            fh.write('{"run_id": "deadbeef", "resu')  # killed mid-write
        assert store.completed_ids() == {spec.run_id}

    def test_duplicate_run_last_write_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        spec = RunSpec("m:f", {"x": 1})
        store.append(record_for(spec, {"v": 1}))
        store.append(record_for(spec, {"v": 2}))
        assert len(store.records()) == 1
        assert store.records()[0]["result"] == {"v": 2}

    def test_sweep_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        sweep = Sweep(name="s", scenario="m:f", grid={"a": [1]})
        store.write_sweep(sweep)
        assert store.has_sweep()
        assert store.load_sweep().spec_hash() == sweep.spec_hash()

    def test_memory_store(self):
        store = ResultStore(None)
        spec = RunSpec("m:f")
        store.append(record_for(spec, {}))
        assert store.completed_ids() == {spec.run_id}
        assert not store.has_sweep()

    def test_record_lines_are_canonical(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        spec = RunSpec("m:f", {"b": 2, "a": 1})
        store.append(record_for(spec, {"v": 1}))
        line = record_lines(store)[spec.run_id]
        assert line == canonical_json(json.loads(line))


class TestStoreCorruption:
    """Interior corruption must raise; only a torn tail is forgiven."""

    def _store_with(self, tmp_path, n=3):
        store = ResultStore(str(tmp_path / "s"))
        specs = [RunSpec("m:f", {"x": i}) for i in range(n)]
        for i, spec in enumerate(specs):
            store.append(record_for(spec, {"v": i}))
        return store, specs

    def test_interior_corruption_raises(self, tmp_path):
        store, _ = self._store_with(tmp_path)
        path = os.path.join(store.path, store.RECORDS)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[1] = lines[1][:10] + "#corrupt#" + lines[1][10:]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=r"corrupt record .*:2"):
            store.records()

    def test_truncated_final_line_forgiven(self, tmp_path):
        store, specs = self._store_with(tmp_path)
        path = os.path.join(store.path, store.RECORDS)
        with open(path, "a") as fh:
            fh.write('{"run_id": "deadbeef", "resu')  # killed mid-write
        assert store.completed_ids() == {s.run_id for s in specs}

    def test_torn_tail_before_trailing_whitespace_forgiven(self, tmp_path):
        store, specs = self._store_with(tmp_path)
        path = os.path.join(store.path, store.RECORDS)
        with open(path, "a") as fh:
            fh.write('{"run_id": "dead\n\n  \n')
        assert store.completed_ids() == {s.run_id for s in specs}
