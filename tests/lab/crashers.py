"""Deliberately misbehaving scenarios for the lab failure/crash tests.

These are importable by dotted name from pool workers (the ``tests``
package is on ``sys.path`` when pytest runs from the repo root).
``flaky`` and ``crasher`` use a caller-supplied sentinel path to
misbehave only on their first call, so a resumed sweep completes.
"""

import os
import time


def flaky(sentinel: str, seed: int = 0):
    """Raise on the first attempt, succeed afterwards."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempted\n")
        raise RuntimeError("first attempt always fails")
    return {"ok": True, "seed_seen": seed}


def crasher(sentinel: str, i: int = 0, seed: int = 0):
    """Kill the worker process outright on the first attempt."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("attempted\n")
        os._exit(17)
    return {"survived": True}


def sleeper(sleep_s: float, seed: int = 0):
    """Exceed any per-run timeout shorter than ``sleep_s``."""
    time.sleep(sleep_s)
    return {"slept": sleep_s}


def interruptor(after: int, counter: str, i: int = 0, seed: int = 0):
    """Raise KeyboardInterrupt once ``after`` runs have completed."""
    n = 0
    if os.path.exists(counter):
        with open(counter) as fh:
            n = int(fh.read() or 0)
    if n >= after:
        raise KeyboardInterrupt()
    with open(counter, "w") as fh:
        fh.write(str(n + 1))
    return {"n": n}
