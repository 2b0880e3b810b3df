"""Workload generators used by the evaluation (Zipf traces, file sets,
a RUBiS-like auction mix, and thread-churn traces for the monitoring
experiments)."""

from repro import _lazy

_EXPORTS = {"FileSet": "repro.workloads.filesets",
            "RubisMix": "repro.workloads.rubis",
            "RubisTxn": "repro.workloads.rubis",
            "ThreadChurn": "repro.workloads.threads",
            "TpccMix": "repro.workloads.tpcc",
            "balance": "repro.workloads.tpcc",
            "new_order_txn": "repro.workloads.tpcc",
            "pack_balance": "repro.workloads.tpcc",
            "transfer_txn": "repro.workloads.tpcc",
            "ZipfGenerator": "repro.workloads.zipf",
            "zipf_pmf": "repro.workloads.zipf"}
__getattr__ = _lazy(globals(), _EXPORTS)
__all__ = list(_EXPORTS)
