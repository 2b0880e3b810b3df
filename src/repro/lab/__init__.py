"""``repro.lab`` — parallel experiment orchestrator with a resumable
result store.

The paper's evaluation is a matrix of independent simulations
(transport × coherence model × caching scheme × lock protocol × load);
this package makes that matrix tractable:

* :class:`Sweep` / :class:`RunSpec` — declarative grid over a scenario
  callable, with content-hashed run ids (:mod:`repro.lab.spec`);
* :class:`Runner` — process-pool fan-out with seeded shard scheduling,
  per-run timeouts, crash retry and Ctrl-C draining
  (:mod:`repro.lab.runner`);
* :class:`ResultStore` — append-only JSONL records that make killed
  sweeps resumable (:mod:`repro.lab.store`);
* :func:`merge_tables` — fold records back into
  :class:`~repro.bench.harness.BenchTable`\\ s (:mod:`repro.lab.merge`);
* packaged sweeps + scenario callables (:mod:`repro.lab.scenarios`).

The ablation and txn-contention figure tests under ``benchmarks/`` run
their sweeps through it.  A store that cannot be read back — a
``sweep.json`` or a record of the wrong shape — raises
:class:`~repro.errors.ConfigError` naming the file and the field.

CLI::

    python -m repro lab ls
    python -m repro lab run smoke8 --workers 4
    python -m repro lab resume smoke8
    python -m repro lab show smoke8
"""

from .merge import merge_tables, merged_records
from .runner import RetryPolicy, Runner, execute_run
from .scenarios import SWEEPS, packaged_sweep
from .spec import RunSpec, Sweep, canonical_json, resolve_dotted
from .store import DEFAULT_ROOT, ResultStore, record_for, store_for

__all__ = [
    "DEFAULT_ROOT",
    "RetryPolicy",
    "RunSpec",
    "Runner",
    "ResultStore",
    "SWEEPS",
    "Sweep",
    "canonical_json",
    "execute_run",
    "merge_tables",
    "merged_records",
    "packaged_sweep",
    "record_for",
    "resolve_dotted",
    "store_for",
]
