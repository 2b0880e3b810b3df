"""List every function under ``src/repro`` that no product run executes.

    python3 .github/reach-census.py OUT

Run it from the root of the tree to census.  In this one process, under
``sys.settrace``, it runs:

- every ``python -m repro`` line of ``.github/workflows/ci.yml``, as
  ``tests/test_ci_commands.py`` extracts them, each distinct line once
  and in order, in one scratch directory (a line reads what an earlier
  one wrote, as in CI's checkout);
- each line with ``--workers N`` again at ``--workers 0``, in a second
  scratch directory: the line as written runs the pool, and its
  children's work is traced only when it runs in this process;
- ``repro run all``;
- each ``benchmarks/perf`` workload for half a second at seed 7;
- every ``examples/*.py``.

It prints each entry point's exit status (``chaos replay`` exits 1: it
replays a schedule that must still fail), then writes ``module:qualname``
of every ``def`` whose code never started, one a line, to OUT.  A class
body is not a def; a nested def is ``outer.<locals>.inner``.
"""

import ast
import contextlib
import os
import runpy
import sys
import tempfile
import threading
import traceback
from pathlib import Path

SEEN = {}


def _trace(frame, event, arg):
    # the global trace hook sees only "call": note the code, trace no lines
    SEEN[id(frame.f_code)] = frame.f_code


def entries(root):
    """``(label, kind, args, cwd)`` for every entry point of the tree at
    ``root``, in run order; ``cwd`` 0 is the workflow's directory, 1 the
    in-process one.  Needs ``repro`` importable."""
    extractor = runpy.run_path(str(root / "tests" / "test_ci_commands.py"))
    workloads = runpy.run_path(
        str(root / "benchmarks" / "perf" / "workloads" / "__init__.py"))
    lines = []
    for argv in extractor["ARGVS"]:
        if argv not in lines:
            lines.append(argv)
    found = [("repro " + " ".join(a), "repro", a, 0) for a in lines]
    for argv in lines:
        if "--workers" in argv:
            i = argv.index("--workers") + 1
            inproc = argv[:i] + ["0"] + argv[i + 1:]
            found.append(("repro " + " ".join(inproc), "repro", inproc, 1))
    found.append(("repro run all", "repro", ["run", "all"], 0))
    for name in workloads["MODULES"]:
        argv = ["--workload", name, "--seed", "7", "--seconds", "0.5"]
        found.append((f"perf {name}", "perf", argv, 0))
    for path in sorted((root / "examples").glob("*.py")):
        found.append((f"example {path.name}", "example", str(path), 0))
    return found


def run(kind, args):
    """Run one entry point in this process; its exit status."""
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        try:
            if kind == "repro":
                from repro.cli import main
                for word in args:  # CI makes the directories it writes to
                    if "/" in word:
                        os.makedirs(os.path.dirname(word), exist_ok=True)
                return main(args)
            if kind == "perf":
                from perf.worker import main
                return main(args)
            runpy.run_path(args, run_name="__main__")
            return 0
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the census goes on; the status says it failed
            traceback.print_exc()
            return "raised"


def _defs(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a decorated def's code starts at its first decorator
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def unreached(package, codes):
    """``module:qualname`` of every def under ``package`` (a directory)
    whose code is not among ``codes``."""
    ran = {(c.co_filename, c.co_firstlineno) for c in codes}
    out = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        out += [f"{module}:{name}" for line, name in _defs(tree, "")
                if (str(path), line) not in ran]
    return out


def main(out):
    root = Path.cwd()
    out = os.path.abspath(out)
    paths = [str(root / "src"), str(root / "benchmarks")]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)  # for pool children
    threading.settrace(_trace)
    sys.settrace(_trace)
    with tempfile.TemporaryDirectory() as ci, \
            tempfile.TemporaryDirectory() as inproc:
        for label, kind, args, cwd in entries(root):
            os.chdir((ci, inproc)[cwd])
            print(f"exit {run(kind, args)}: {label}", flush=True)
        os.chdir(root)
    sys.settrace(None)
    threading.settrace(None)
    names = unreached(root / "src" / "repro", list(SEEN.values()))
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\n" for name in names)
    print(f"{len(names)} defs under src/repro never ran; listed in {out}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
