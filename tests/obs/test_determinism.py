"""Determinism regression: identical seeds produce byte-identical JSON
metric exports (satellite of the obs tentpole).

The export has sorted keys, simulated timestamps only (no wall clock),
and names drawn from per-Environment id streams (no ``id()``/hash
order) — so two runs of the same scenario from the same seed serialize
to the same bytes, and the export is stable across processes too.
(Same seed => same ``trace_sha`` for every table row:
tests/test_scenarios.py.)
"""

import json

import pytest

from repro.scenarios import judged_run


def export(name, seed):
    return judged_run(name, seed)[1].export_json()


@pytest.mark.parametrize("name", ["ncosed", "ddss", "flow",
                                  "ncosed-chaos"])
def test_same_seed_byte_identical_export(name):
    assert export(name, 3) == export(name, 3)


def test_different_seed_diverges():
    assert export("ncosed", 0) != export("ncosed", 1)


def test_export_roundtrips_as_json(tmp_path):
    path = tmp_path / "obs.json"
    obs = judged_run("ncosed", seed=2)[1]
    text = obs.export_json(str(path))
    on_disk = path.read_text(encoding="utf-8")
    assert on_disk == text + "\n"
    data = json.loads(on_disk)
    assert data["metrics"]["counters"]["dlm.grants"] > 0
    assert data["events"]["emitted"] == obs.trace.emitted
    assert set(data) == {"sim_now_us", "events", "metrics"}


def test_export_keys_sorted():
    data = json.loads(export("flow", 0))
    counters = list(data["metrics"]["counters"])
    assert counters == sorted(counters)
