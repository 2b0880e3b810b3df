"""Workload generators used by the evaluation (Zipf traces, file sets,
a RUBiS-like auction mix, and thread-churn traces for the monitoring
experiments)."""

from repro.workloads.filesets import FileSet
from repro.workloads.rubis import RubisMix, RubisTxn
from repro.workloads.threads import ThreadChurn
from repro.workloads.tpcc import (TpccMix, balance, new_order_txn,
                                  pack_balance, transfer_txn)
from repro.workloads.zipf import ZipfGenerator, zipf_pmf

__all__ = [
    "FileSet",
    "RubisMix",
    "RubisTxn",
    "ThreadChurn",
    "TpccMix",
    "ZipfGenerator",
    "balance",
    "new_order_txn",
    "pack_balance",
    "transfer_txn",
    "zipf_pmf",
]
