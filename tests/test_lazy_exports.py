"""Packages re-export lazily: importing one loads only what it needs.

``repro``, ``repro.transport`` and ``repro.workloads`` serve their
public names through ``repro._lazy`` (a PEP 562 ``__getattr__``), so a
light import such as the fabric's does not drag in the protocol stack.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.transport
import repro.workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded(statement):
    """The ``repro`` modules a fresh interpreter holds after
    ``statement``."""
    code = (f"{statement}\nimport sys\n"
            "print(' '.join(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH":
                         str(SRC)}, capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


def test_importing_the_net_loads_no_protocol():
    loaded = _loaded("import repro.net")
    assert "repro.net.nic" in loaded
    heavy = {m for m in loaded
             if m.split(".")[1:2] in (["ddss"], ["dlm"], ["txn"],
                                       ["transport"])}
    assert not heavy


def test_rpc_loads_no_sdp():
    loaded = _loaded("from repro.transport import rpc")
    assert "repro.transport.rpc" in loaded
    assert not loaded & {"repro.transport.sdp",
                         "repro.transport.flowcontrol"}


@pytest.mark.parametrize("package", [repro, repro.transport,
                                     repro.workloads])
def test_every_export_resolves_to_its_module(package):
    for name in package.__all__:
        value = getattr(package, name)
        if name != "__version__":
            assert value.__module__.startswith(package._EXPORTS[name])
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope


def test_from_imports_keep_working():
    from repro import Cluster
    from repro.net.cluster import Cluster as defined
    from repro.workloads import TpccMix
    from repro.workloads.tpcc import TpccMix as tpcc
    assert Cluster is defined and TpccMix is tpcc
