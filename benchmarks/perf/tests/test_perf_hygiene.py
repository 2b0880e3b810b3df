"""What the benchmark may touch in ``src/repro``: names in a package
root's ``__all__`` and nothing private, so ROADMAP items 2-4 can move
internals without breaking it."""

import ast
import importlib
import os

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: package roots the benchmark may import from
ALLOWED = {"repro.net", "repro.topo", "repro.dlm", "repro.ddss",
           "repro.txn", "repro.shard", "repro.monitor", "repro.reconfig",
           "repro.faults", "repro.datacenter", "repro.workloads",
           "repro.obs", "repro.verify", "repro.errors"}
#: the one documented private read: (file, attribute)
PRIVATE_READS = {("harness.py", "_seq")}


def sources():
    for root, _dirs, files in os.walk(PERF):
        if os.path.basename(root) in ("tests", "results", "__pycache__"):
            continue
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


@pytest.mark.parametrize("path", sorted(sources()),
                         ids=lambda p: os.path.relpath(p, PERF))
def test_imports_and_private_access(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), (
                    f"{path}: use 'from repro.<pkg> import name'")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "repro":
            assert node.module in ALLOWED, (
                f"{path}: import from {node.module} (not a permitted "
                f"package root; cli, bench, lab and *.scenarios will move)")
            public = importlib.import_module(node.module).__all__
            for alias in node.names:
                assert alias.name in public, (
                    f"{path}: {node.module}.{alias.name} is not in __all__")
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and \
                not node.attr.startswith("__")
            own = isinstance(node.value, ast.Name) and \
                node.value.id in ("self", "cls")
            assert not private or own, (
                f"{path}:{node.lineno}: private attribute .{node.attr}")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("getattr", "setattr", "hasattr"):
            for arg in node.args[1:2]:
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str) and \
                        arg.value.startswith("_"):
                    assert (os.path.basename(path),
                            arg.value) in PRIVATE_READS, (
                        f"{path}:{node.lineno}: getattr of {arg.value}")


def test_the_private_read_is_still_there():
    with open(os.path.join(PERF, "harness.py"), encoding="utf-8") as fh:
        assert 'getattr(cluster.env, "_seq", None)' in fh.read()
