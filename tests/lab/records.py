"""The canonical bytes of a lab store's records, for determinism checks."""

from repro.lab.spec import canonical_json


def record_lines(store):
    """``run_id -> canonical serialized record``."""
    return {r["run_id"]: canonical_json(r) for r in store.records()}
