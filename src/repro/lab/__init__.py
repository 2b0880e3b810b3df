"""``repro.lab`` — a deterministic map over an experiment grid, with a
resumable result store.

The paper's evaluation is a matrix of independent seeded simulations
(transport × coherence model × caching scheme × lock protocol × load);
this package runs such a matrix and keeps its results:

* :class:`Sweep` / :class:`RunSpec` — declarative grid over a scenario
  callable, with content-hashed run ids (:mod:`repro.lab.spec`);
* :class:`Runner` — one attempt per run, in-process or on a process
  pool, in a seeded dispatch order, with per-run timeouts and Ctrl-C
  draining (:mod:`repro.lab.runner`);
* :class:`ResultStore` — append-only JSONL records that make killed
  sweeps resumable (:mod:`repro.lab.store`);
* :func:`merge_tables` — fold records back into
  :class:`~repro.bench.harness.BenchTable`\\ s (:mod:`repro.lab.merge`);
* :data:`SWEEPS` — the packaged sweeps: CI's 16-node topology grid and
  the lab's own smoke sweep.

The chaos campaigns and the metamorphic check fan out through it.  A
store that cannot be read back — a ``sweep.json`` or a record of the
wrong shape — raises :class:`~repro.errors.ConfigError` naming the file
and the field.

CLI::

    python -m repro lab ls
    python -m repro lab run smoke8 --workers 4
    python -m repro lab resume smoke8
    python -m repro lab show smoke8
"""

from typing import Any, Dict

from .merge import merge_tables
from .runner import Runner, execute_run
from .spec import RunSpec, Sweep, canonical_json, resolve_dotted
from .store import DEFAULT_ROOT, ResultStore, record_for, store_for

__all__ = [
    "DEFAULT_ROOT",
    "RunSpec",
    "Runner",
    "ResultStore",
    "SWEEPS",
    "Sweep",
    "canonical_json",
    "execute_run",
    "merge_tables",
    "record_for",
    "resolve_dotted",
    "smoke",
    "store_for",
]


def smoke(x: int = 1, seed: int = 0) -> Dict[str, Any]:
    """Tiny deterministic scenario for tests and CI smoke sweeps."""
    from ..sim import Environment, RngStreams

    env = Environment()
    rng = RngStreams(seed).get("lab-smoke")

    def proc(env):
        total = 0.0
        for _ in range(10 * x):
            d = float(rng.exponential(5.0))
            yield env.timeout(d)
            total += d
        return total

    p = env.process(proc(env))
    env.run()
    return {"sim_us": round(env.now, 6), "total": round(p.value, 6)}


SWEEPS: Dict[str, Sweep] = {sweep.name: sweep for sweep in (
    # bounded 16-node topology grid: rack count x oversubscription
    Sweep(name="topo16", scenario="repro.topo.scenarios:topo_lab",
          grid={"racks": [2, 4], "oversub": [1.0, 4.0]}),
    # 8 fast runs: wiring checks, not performance
    Sweep(name="smoke8", scenario="repro.lab:smoke",
          grid={"x": [1, 2]}, seeds=(0, 1), repeats=2),
)}
