"""The dynamic reach census (``.github/reach-census.py``): it flags a
def whose code never started and spares one that ran, and it runs every
product entry point: each ``repro`` line of the CI workflow, the figure
suite, the perf workloads and the examples."""

import importlib.util
import runpy
import sys
import textwrap
from pathlib import Path

from tests.test_ci_commands import ARGVS

REPO = Path(__file__).resolve().parents[1]
CENSUS = runpy.run_path(str(REPO / ".github" / "reach-census.py"))

MODULE = '''
import functools


def called():
    def inner():
        return 1
    return inner()


def never():
    return 2


class Box:
    @functools.lru_cache(maxsize=None)
    def size(self):
        return 3

    def unused(self):
        def nested():
            return 5
        return nested()
'''


def test_flags_the_defs_that_never_ran(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(MODULE))
    spec = importlib.util.spec_from_file_location("pkg.mod", pkg / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    sys.settrace(CENSUS["_trace"])
    try:
        spec.loader.exec_module(mod)
        mod.called()
        mod.Box().size()  # a decorated def counts from its decorator
    finally:
        sys.settrace(previous)
    assert CENSUS["unreached"](pkg, CENSUS["SEEN"].values()) == [
        "pkg.mod:never", "pkg.mod:Box.unused",
        "pkg.mod:Box.unused.<locals>.nested"]


def test_runs_every_product_entry_point():
    found = CENSUS["entries"](REPO)
    by_kind = {}
    for _label, kind, args, cwd in found:
        by_kind.setdefault(kind, []).append((args, cwd))
    repro = by_kind["repro"]
    # every CI line once, as written, in the workflow's directory
    assert [a for a, cwd in repro if cwd == 0 and a != ["run", "all"]] == \
        [a for i, a in enumerate(ARGVS) if a not in ARGVS[:i]]
    assert (["run", "all"], 0) in repro
    # a pooled line again with its work in this process
    pooled = [a for a in ARGVS if "--workers" in a]
    assert pooled and [a for a, cwd in repro if cwd == 1] == [
        a[:a.index("--workers") + 1] + ["0"] + a[a.index("--workers") + 2:]
        for i, a in enumerate(pooled) if a not in pooled[:i]]
    assert [a[1] for a, _ in by_kind["perf"]] == [
        "verbs-small", "locks-zipf", "ddss-rw", "txn-closed", "webcache",
        "topo-checked"]
    assert sorted(Path(a).name for a, _ in by_kind["example"]) == sorted(
        p.name for p in (REPO / "examples").glob("*.py"))
    assert len(by_kind["example"]) == 6
