"""Every ``python -m repro …`` line in the CI workflow must parse
against the real parser and name things that exist, so a rename that
breaks CI fails tier-1 locally instead of a job nobody can run.

The workflow is read as text (PyYAML is not a test dependency): ``run:``
blocks are collected by indentation, ``>`` blocks are folded, ``\\``
continuations joined.  CI keeps its commands loop-free for this reason.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser
from repro.lab import SWEEPS
from repro.scenarios import SCENARIOS

CI = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"


def run_blocks(text):
    """The shell text of every ``run:`` step."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", lines[i])
        i += 1
        if not m:
            continue
        indent, style = len(m.group(1)), m.group(2).strip()
        if style not in (">", "|"):
            yield style
            continue
        block = []
        while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent):
            block.append(lines[i].strip())
            i += 1
        yield (" " if style == ">" else "\n").join(block)


def repro_argvs(text):
    for block in run_blocks(text):
        for line in block.replace("\\\n", " ").splitlines():
            _, found, rest = line.partition("python -m repro ")
            if found:
                yield shlex.split(re.split(r";|&&|\|", rest)[0])


ARGVS = list(repro_argvs(CI.read_text(encoding="utf-8")))


def exported_traces():
    """Trace files the workflow's ``obs run --trace`` lines write."""
    parser = build_parser()
    return {parser.parse_args(argv).trace for argv in ARGVS
            if argv[:2] == ["obs", "run"]} - {None}


def test_extractor_sees_the_workflow():
    commands = {argv[0] for argv in ARGVS}
    assert len(ARGVS) >= 25
    assert commands >= {"obs", "bench", "lab", "check", "chaos", "txn",
                        "topo", "locks"}
    assert not any("$" in word for argv in ARGVS for word in argv)


def test_tier1_step_fails_on_leaked_resources():
    tier1 = [shlex.split(block) for block in run_blocks(CI.read_text(
        encoding="utf-8")) if "pytest -x -q" in block]
    assert len(tier1) == 1
    argv = tier1[0]
    assert argv[1:5] == ["python", "-X", "dev", "-m"]
    assert {"error::ResourceWarning",
            "error::pytest.PytestUnraisableExceptionWarning"} <= set(argv)


def test_every_exported_trace_is_replayed():
    parser = build_parser()
    replayed = {path for argv in ARGVS if argv[:2] == ["check", "trace"]
                for path in parser.parse_args(argv).names}
    assert len(exported_traces()) == 4
    assert replayed == exported_traces()


@pytest.mark.parametrize("argv, dest, default", [
    (["bench"], "out", "BENCH_engine.json"),
    (["topo", "bench"], "out", "BENCH_topo.json"),
    (["locks", "bench"], "out", "BENCH_locks.json"),
    (["txn", "bench"], "out", "BENCH_txn.json"),
    (["bench"], "workers", 0),
    (["check", "meta"], "workers", 0),
    (["lab", "run", "smoke8"], "workers", 0),
    (["lab", "bench"], "workers", 4),
    (["topo", "run"], "n_nodes", None),
    (["txn", "run"], "n_nodes", 4),
])
def test_shared_flags_keep_per_command_defaults(argv, dest, default):
    """Parent parsers share Action objects between commands."""
    assert getattr(build_parser().parse_args(argv), dest) == default


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_ci_command_parses_and_resolves(argv):
    args = build_parser().parse_args(argv)  # SystemExit = CI is broken
    names, table = [], SCENARIOS
    if args.command in ("obs", "topo") and args.action == "run":
        names = [args.scenario]
    elif args.command == "check" and args.action in ("run", "meta"):
        names = [n for n in args.names if n != "all"]
    elif args.command == "check" and args.action == "trace":
        # replays only files an earlier line exported
        names, table = args.names, exported_traces()
    elif args.command == "chaos" and args.action != "report":
        names = args.names
        for name in names:
            assert SCENARIOS[name].space()
    elif args.command == "txn":
        names = [f"txn-{args.variant}"]
    elif args.command == "lab" and args.action != "ls":
        names, table = [args.sweep], SWEEPS
    elif args.command == "run":
        names, table = args.ids, EXPERIMENTS
    assert [n for n in names if n not in table] == []
