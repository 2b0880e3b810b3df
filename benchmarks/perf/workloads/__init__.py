"""Workload registry: name -> module under this package, in run order."""

MODULES = {
    "verbs-small": "verbs_small",
    "locks-zipf": "locks_zipf",
    "ddss-rw": "ddss_rw",
    "txn-closed": "txn_closed",
    "webcache": "webcache",
    "topo-checked": "topo_checked",
}
