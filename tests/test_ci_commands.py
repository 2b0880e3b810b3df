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

from repro.bench.figures import FIGURES
from repro.cli import build_parser
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
    """Trace files the workflow's ``check run --export`` lines write."""
    parser = build_parser()
    return {parser.parse_args(argv).export for argv in ARGVS
            if argv[:2] == ["check", "run"]} - {None}


def test_extractor_sees_the_workflow():
    commands = {argv[0] for argv in ARGVS}
    assert len(ARGVS) == 19
    assert commands == {"lab", "check", "chaos", "locks"}
    assert not any("$" in word for argv in ARGVS for word in argv)


def test_tier1_step_fails_on_leaked_resources():
    tier1 = [shlex.split(block) for block in run_blocks(CI.read_text(
        encoding="utf-8")) if "pytest -x -q" in block]
    assert len(tier1) == 1
    argv = tier1[0]
    assert argv[1:5] == ["python", "-X", "dev", "-m"]
    assert {"error::ResourceWarning",
            "error::pytest.PytestUnraisableExceptionWarning"} <= set(argv)


def test_perf_job_measures_its_own_baseline():
    """One perf signal: ``run.py`` at a pinned seed on the merge base
    and on HEAD, twice, the second pair in the opposite order, and
    ``compare.py`` within each pair; nothing reads a committed baseline,
    and only the HEAD runs can fail the job."""
    text = CI.read_text(encoding="utf-8")
    assert "BENCH_" not in text
    blocks = [" ".join(b.replace("\\\n", " ").split())
              for b in run_blocks(text) if "benchmarks/perf/" in b]
    runs = [b for b in blocks if "perf/run.py" in b]
    assert len(runs) == 4
    assert all("--seed 7 --seconds 1" in b for b in runs)
    sides = ["base" if "perf-base" in b else "head" for b in runs]
    assert sides == ["base", "head", "head", "base"]
    assert all("../perf-base-src/" in b and "||" in b
               for b, side in zip(runs, sides) if side == "base")
    assert [b for b, side in zip(runs, sides) if side == "head"] == [
        f"python3 benchmarks/perf/run.py --seed 7 --seconds 1 --out {out}"
        for out in ("perf-head", "perf-head-2")]
    (compare,) = [b for b in blocks if "perf/compare.py" in b]
    assert "perf-base/result.json perf-head/result.json" in compare
    assert "perf-base-2/result.json perf-head-2/result.json" in compare


def test_figures_job_gates_the_committed_results():
    """The whole figure suite runs, then the results it rewrote must
    equal the committed ones."""
    blocks = list(run_blocks(CI.read_text(encoding="utf-8")))
    suite = blocks.index(
        "PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -q"
        " --benchmark-json=figures-bench.json")
    assert blocks[suite + 1] == "git diff --exit-code benchmarks/results/"
    # and the step summary reads the seconds per row the suite wrote
    assert 'open("figures-bench.json")' in blocks[suite + 2]


def test_every_exported_trace_is_replayed():
    parser = build_parser()
    replayed = {path for argv in ARGVS if argv[:2] == ["check", "trace"]
                for path in parser.parse_args(argv).names}
    assert len(exported_traces()) == 5
    assert replayed == exported_traces()


#: environment variable -> the job steps that widen a test file to its
#: full grid with it; every cross-kernel comparison runs through the
#: test-side reference kernel, since the product takes no kernel choice
WIDENED = {
    "REPRO_CPU_TWIN_ALL": ["tests/sim/test_cpu_twin.py"],
    "REPRO_KERNEL_FOLD_ALL": ["tests/verify/test_kernel_fold.py",
                              "tests/verify/test_kernel_fold.py"],
    "REPRO_REFERENCE_FIGURES": ["tests/test_reference_figures.py"],
}


def test_cross_kernel_checks_run_through_the_reference():
    text = CI.read_text(encoding="utf-8")
    assert "--both-kernels" not in text and "--kernel" not in text
    widened = {}
    for block in run_blocks(text):
        argv = shlex.split(block)
        if argv[0].endswith("=1") and "pytest" in argv:
            files = [w for w in argv if w.startswith("tests/")]
            assert all((CI.parents[2] / f).is_file() for f in files), files
            widened.setdefault(argv[0][:-2], []).append(files[0])
            if "-k" in argv:
                source = (CI.parents[2] / files[-1]).read_text(
                    encoding="utf-8")
                for word in re.findall(r"\w+", argv[argv.index("-k") + 1]):
                    assert word == "or" or word in source, word
    assert widened == WIDENED


@pytest.mark.parametrize("argv, dest, default", [
    (["check", "meta"], "workers", 0),
    (["lab", "run", "smoke8"], "workers", 0),
])
def test_shared_flags_keep_per_command_defaults(argv, dest, default):
    """Parent parsers share Action objects between commands."""
    assert getattr(build_parser().parse_args(argv), dest) == default


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_ci_command_parses_and_resolves(argv):
    args = build_parser().parse_args(argv)  # SystemExit = CI is broken
    names, table = [], SCENARIOS
    if args.command == "check" and args.action in ("run", "meta"):
        names = [n for n in args.names if n != "all"]
    elif args.command == "check" and args.action == "trace":
        # replays only files an earlier line exported
        names, table = args.names, exported_traces()
    elif args.command == "chaos" and args.action != "report":
        names = args.names
        for name in names:
            assert SCENARIOS[name].space()
    elif args.command == "lab" and args.action != "ls":
        names, table = [args.sweep], SWEEPS
    elif args.command == "run":
        names, table = [n for n in args.ids if n != "all"], FIGURES
    assert [n for n in names if n not in table] == []
