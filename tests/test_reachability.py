"""Every ``src/`` module is reached by a figure, a scenario row, a perf
workload or a CLI verb, or it is deleted (ROADMAP ``measured-or-gone``).

Reachability is read off the source with :mod:`ast` alone, so nothing is
imported.  ``from pkg import Name`` follows the re-export to the module
that defines ``Name``: importing a package does not reach every
submodule.  A package ``__init__`` that defines code (``repro.obs``'s
``Observability``, ``repro.dlm``'s ``DESIGNS``, ``repro.lab``'s
``smoke``) follows the imports that code uses, and the parent packages
of a reached module count as reached.  Examples are documentation, not
roots.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
# ``python -m repro`` runs the CLI through ``repro.__main__``
ROOTS = ("repro.__main__", "repro.cli", "repro.bench.figures",
         "repro.scenarios")


def _imports(nodes, name, is_pkg):
    """``(module, imported name or None)`` for each import under ``nodes``."""
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module
            if node.level:
                base = name.split(".")[:len(name.split(".")) + is_pkg
                                      - node.level]
                mod = ".".join(base + ([mod] if mod else []))
            yield from ((mod, a.name) for a in node.names)


def _graph():
    """module -> the modules it reaches directly, and the perf roots."""
    trees = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_pkg = parts[-1] == "__init__"
        trees[".".join(parts[:-1] if is_pkg else parts)] = (
            ast.parse(path.read_text(encoding="utf-8")), is_pkg)
    # a package's top-level ``from x import a as b``: b -> (x, a)
    exports = {name: {a.asname or a.name: imp
                      for stmt in tree.body
                      if isinstance(stmt, ast.ImportFrom)
                      for a, imp in zip(stmt.names,
                                        _imports([stmt], name, True))}
               for name, (tree, is_pkg) in trees.items() if is_pkg}

    def resolve(mod, attr):
        if attr in exports.get(mod, {}):
            return resolve(*exports[mod][attr])
        if f"{mod}.{attr}" in trees:
            return f"{mod}.{attr}"
        return mod

    def edges(name, nodes, is_pkg):
        return {resolve(mod, attr) if attr else mod
                for mod, attr in _imports(nodes, name, is_pkg)
                if mod and mod.split(".")[0] == "repro"}

    graph = {}
    for name, (tree, is_pkg) in trees.items():
        if not is_pkg:
            graph[name] = edges(name, [tree], False)
            continue
        # an ``__init__`` reaches only what its own code uses
        code = [s for s in tree.body
                if not isinstance(s, (ast.Import, ast.ImportFrom, ast.Expr))
                and not (isinstance(s, ast.Assign)
                         and getattr(s.targets[0], "id", "") == "__all__")]
        used = {n.id for s in code for n in ast.walk(s)
                if isinstance(n, ast.Name)}
        graph[name] = edges(name, code, True) | {
            resolve(*exports[name][n]) for n in used & exports[name].keys()}
    perf = set()
    for path in (REPO / "benchmarks" / "perf").rglob("*.py"):
        if "tests" not in path.relative_to(REPO).parts:
            perf |= edges("benchmarks.perf", [ast.parse(path.read_text(
                encoding="utf-8"))], True)
    return graph, perf


@pytest.fixture(scope="module")
def unreached():
    """The modules no root reaches."""
    graph, perf = _graph()
    seen, todo = set(), [*ROOTS, *perf]
    while todo:
        mod = todo.pop()
        parts = mod.split(".")
        for i in range(1, len(parts) + 1):
            parent = ".".join(parts[:i])
            if parent in graph and parent not in seen:
                seen.add(parent)
                todo.extend(graph[parent])
    return graph.keys() - seen


def test_every_module_is_reached(unreached):
    missing = sorted(unreached)
    assert not missing, (
        f"{len(missing)} module(s) reached by no figure, scenario row, "
        f"perf workload or CLI verb: {', '.join(missing)}")

