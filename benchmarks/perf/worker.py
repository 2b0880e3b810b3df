"""Child process: runs one workload and prints its result as one JSON
line.  Started by ``run.py`` with ``PYTHONHASHSEED=0`` and
``PYTHONPATH=benchmarks:src``; exits 3 naming the check that failed."""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from perf.harness import CheckFailed, run_workload
from perf.workloads import MODULES


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    mod = importlib.import_module(f"perf.workloads.{MODULES[args.workload]}")
    # interpreter start + every import the workload needs, in CPU seconds
    import_s = time.process_time()
    try:
        result = run_workload(mod, args.seed, args.seconds, import_s,
                              args.spans or None)
    except CheckFailed as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
