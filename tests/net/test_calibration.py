"""DESIGN.md §6 is the one calibration table: each row, measured
uncontended on two ``infiniband()`` nodes under both kernels (the
product and ``tests/sim/reference_kernel.py``), equals the table at the
precision it is printed to."""

import re
from pathlib import Path

import pytest

from repro.net import Cluster, NetworkParams

from tests.sim.reference_kernel import KERNELS, pin_kernel

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

#: table row -> how to post it from node 0 against node 1's region
OPS = {
    "one-way 64 B send": lambda nic, key: nic.send_wait(1, size=64),
    "8 B read": lambda nic, key: nic.read_key(key, 0, 8),
    "8 B write": lambda nic, key: nic.write_key(key, bytes(8)),
    "CAS": lambda nic, key: nic.cas_key(key, 0, 0, 1),
    "4 KiB read": lambda nic, key: nic.read_key(key, 0, 4096),
}


def calibration_table():
    """``{operation: printed latency}`` from DESIGN.md §6."""
    section = DESIGN.read_text(encoding="utf-8").split("## 6.")[1]
    section = section.split("\n## ")[0]
    return dict(re.findall(r"^\s*\| ([^|]+?) \| ([\d.]+) µs \|$", section,
                           re.M))


def test_table_has_every_operation():
    assert list(calibration_table()) == list(OPS)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("op", OPS)
def test_operation_costs_what_the_table_says(kernel, op):
    printed = calibration_table()[op]
    with pin_kernel(kernel):
        cluster = Cluster(n_nodes=2, params=NetworkParams.infiniband())
    key = cluster.nodes[1].memory.register(4096, name="calib").remote_key()
    cluster.env.run_until_event(OPS[op](cluster.nodes[0].nic, key))
    decimals = len(printed.partition(".")[2])
    assert f"{cluster.env.now:.{decimals}f}" == printed
