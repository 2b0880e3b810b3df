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
import re
from collections import Counter
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


def _lazy_exports(tree):
    """A package's lazy re-exports (``_EXPORTS = {name: module}``, served
    by ``repro._lazy``): ``{name: (module, name)}``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) \
                and getattr(stmt.targets[0], "id", "") == "_EXPORTS":
            return {k.value: (v.value, k.value)
                    for k, v in zip(stmt.value.keys, stmt.value.values)}
    return {}


def _graph():
    """module -> the modules it reaches directly, and the perf roots."""
    trees = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_pkg = parts[-1] == "__init__"
        trees[".".join(parts[:-1] if is_pkg else parts)] = (
            ast.parse(path.read_text(encoding="utf-8")), is_pkg)
    # a package's top-level ``from x import a as b``: b -> (x, a), and
    # its lazy re-exports
    exports = {name: {**{a.asname or a.name: imp
                         for stmt in tree.body
                         if isinstance(stmt, ast.ImportFrom)
                         for a, imp in zip(stmt.names,
                                           _imports([stmt], name, True))},
                      **_lazy_exports(tree)}
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


# -- def census (ROADMAP ``measured-or-gone``, def level) --------------------
#
# Every class, function, method and property under ``src/repro`` is named
# by the product code, or it is deleted.  A use is a ``Name`` or
# ``Attribute`` load of the def's name, a ``"pkg.mod:attr"`` string (the
# lab sweeps' ``scenario=``), or a ``getattr`` whose name is a literal or
# starts with one (``"_on_" + kind`` in the oracles, ``f"_sample_{kind}"``
# in ``ChaosSpace``), which uses every name with that prefix.  Names are
# matched, not resolved.  The def's own statement, imports, re-exports,
# ``__all__`` and docstrings are not uses, dunders are exempt, and a use
# inside a def that is itself unused does not count: the guard names a
# dead def together with the helpers only it calls.

_DOTTED = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)")


def _product_files(src, callers):
    """``(path, relative to, under src)`` for every product source file:
    ``src`` and each caller root, a caller's ``tests`` excluded."""
    files = [(p, src, True) for p in sorted(src.rglob("*.py"))]
    for root in callers:
        if root != src:
            files += [(p, root.parent, False)
                      for p in sorted(root.rglob("*.py"))
                      if "tests" not in p.relative_to(root).parts]
    return files


def _getattr_name(call):
    """``(name, is prefix)`` a ``getattr``/``hasattr`` call looks up."""
    if getattr(call.func, "id", None) not in ("getattr", "hasattr") \
            or len(call.args) < 2:
        return None
    e = call.args[1]
    if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Add):
        e, prefix = e.left, True
    elif isinstance(e, ast.JoinedStr) and e.values:
        e, prefix = e.values[0], True
    else:
        prefix = False
    if isinstance(e, ast.Constant) and isinstance(e.value, str):
        return e.value, prefix
    return None


def dead_defs(src, callers):
    """``["module:Qual.name"]`` for every def under ``src`` the product
    code under ``src`` and ``callers`` never names."""
    defs = {}      # key -> name, for defs under src
    uses = []      # (name, is prefix, keys of the defs around the use)

    def visit(node, mod, qual, around, scoped):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            key = f"{mod}:{qual}{node.name}"
            if scoped and not (node.name.startswith("__")
                               and node.name.endswith("__")):
                defs[key] = node.name
            around, qual = around + (key,), f"{qual}{node.name}."
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.append((node.id, False, around))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            uses.append((node.attr, False, around))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            m = _DOTTED.fullmatch(node.value)
            if m:
                uses.extend((n, False, around) for n in m.group(1).split("."))
        elif isinstance(node, ast.Call) and _getattr_name(node):
            uses.append((*_getattr_name(node), around))
        for child in ast.iter_child_nodes(node):
            visit(child, mod, qual, around, scoped)

    for path, rel_to, scoped in _product_files(src, callers):
        parts = path.relative_to(rel_to).with_suffix("").parts
        mod = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), mod, "", (),
              scoped)
    dead = set()
    while True:
        live = [(name, prefix, around) for name, prefix, around in uses
                if dead.isdisjoint(around)]
        # a def is used when its name has a live use outside its own
        # statement, or a live prefix dispatch outside it covers it
        total = Counter(name for name, prefix, _ in live if not prefix)
        own = Counter(key for name, prefix, around in live if not prefix
                      for key in around if defs.get(key) == name)
        prefixes = [(name, around) for name, prefix, around in live
                    if prefix]
        more = {key for key, name in defs.items() if key not in dead
                and total[name] == own[key]
                and not any(name.startswith(n) and key not in around
                            for n, around in prefixes)}
        if not more:
            return sorted(dead)
        dead |= more


def test_every_def_is_used():
    dead = dead_defs(SRC, (SRC, REPO / "examples", REPO / "benchmarks" / "perf"))
    assert not dead, (
        f"{len(dead)} def(s) that no product code names; delete each "
        f"(with what only it calls): {', '.join(dead)}")


# -- option census (ROADMAP ``option-census``) -------------------------------
#
# A defaulted parameter of a module-level or class-level def under
# ``src/repro`` is an option (an ``__init__``'s is a constructor option).
# It stays an option only while the product code (``src/``,
# ``benchmarks/perf`` but not its tests, and ``examples/``) sets it to
# at least two values; otherwise it is a module constant.  Defs nested
# in a function are out of scope: their defaults capture loop values.
# The census reads the call sites with :mod:`ast` alone and resolves
# each call to the function it runs:
#
# * a name, an attribute of a module or class, or a local alias of one;
# * ``super().__init__`` and ``Base.__init__(self, ...)``;
# * ``self.X`` / ``type(self).X`` class attributes over the class's
#   ancestors and subclasses (``CONN_CLS``);
# * a subscript of, or a loop over, a module-level table, which reaches
#   every class the table names (``DESIGNS[...].manager``,
#   ``MONITOR_SCHEMES[...]``);
# * a call through a parameter, which reaches what the callers pass for
#   it; a ``functools.partial`` binds as a call whose later call adds
#   no keyword;
# * a method that forwards its ``**kwargs`` (``Cluster.observe``), when
#   no other forwarding method has its name.
#
# A def other than an ``__init__`` is counted only while every mention of
# its name in the product code is a call the census resolves; one that
# *escapes* (named by a ``"pkg.mod:attr"`` string or a ``getattr``,
# stored as a value, or called on a receiver the census cannot type:
# ``nic.rdma_read``) has every parameter ``VARIED``.
#
# A value is a literal, a constant expression or a module-level name
# bound to one; anything else is ``VARIED``.  A parameter passed on by
# name or by ``**kwargs`` from an ``__init__``, a forwarding function or
# a counted def takes the values its own callers pass; one passed on
# from any other caller is ``VARIED``.  A ``**`` of a dict literal (or
# of a conditional between two) binds its keys; any other ``**`` binds
# none.  A call or a ``**`` the census cannot read adds no value, so a
# miss can only flag an option, never hide one.

VARIED = "<varied>"
_REQUIRED = "<required>"
_FOLDABLE = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.Tuple, ast.Load,
             ast.operator, ast.unaryop)


class _Scope:
    """A module, class or function body: the names it binds."""

    def __init__(self, mod, node, parent, cls=None, fn=None):
        self.mod, self.node, self.parent = mod, node, parent
        self.cls, self.fn = cls, fn
        self.binds, self.loops, self.params = {}, {}, set()
        self.defs = {}  # classes and functions defined in a function body
        if fn is None:
            return
        a = node.args
        self.params = {p.arg for p in (*a.posonlyargs, *a.args,
                                       *a.kwonlyargs)}
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        self.binds.setdefault(t.id, []).append(stmt.value)
            elif isinstance(stmt, (ast.For, ast.comprehension)):
                for t in ast.walk(stmt.target):
                    if isinstance(t, ast.Name):
                        self.loops.setdefault(t.id, []).append(stmt.iter)


class _Fn:
    """One function or method: how a call binds to its parameters."""

    def __init__(self, node, scope, method, nested):
        self.node, self.scope, self.nested = node, scope, nested
        a = node.args
        pos = (*a.posonlyargs, *a.args)
        self.positional = [p.arg for p in pos]
        self.named = set(self.positional) | {p.arg for p in a.kwonlyargs}
        self.kwarg = a.kwarg.arg if a.kwarg else None
        self.defaults = dict(zip(self.positional[len(pos)
                                                 - len(a.defaults):],
                                 a.defaults))
        self.defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs,
                                                        a.kw_defaults)
                             if d is not None)
        decos = {getattr(d, "id", None) for d in node.decorator_list}
        self.bound = method and "staticmethod" not in decos
        self.classmethod = "classmethod" in decos


class _Site:
    """One call of a function, bound: explicit ``{param: expr}`` plus
    the forwarding function whose ``**kwargs`` it passes on, if any."""

    def __init__(self, explicit, splat, scope, path):
        self.explicit, self.splat = explicit, splat
        self.scope, self.path = scope, path


class _Census:
    def __init__(self, src, callers):
        self.base = src.parent
        self.mods, self.scopes, self.scoped = {}, {}, set()
        parsed = []
        for path, rel_to, scoped in _product_files(src, callers):
            parts = path.relative_to(rel_to).with_suffix("").parts
            is_pkg = parts[-1] == "__init__"
            mod = ".".join(parts[:-1] if is_pkg else parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parsed.append((mod, tree, path))
            self.mods[mod] = self._symbols(tree, mod, is_pkg)
            if scoped:
                self.scoped.add(mod)
        self.classes, self.fns, self.calls, self.stores = {}, {}, [], []
        self.mentions, self.named = {}, []  # name loads; getattr/strings
        for mod, tree, path in parsed:
            self.scopes[mod] = _Scope(mod, tree, None)
            self._walk(tree.body, self.scopes[mod], path, "")
        self.forwarders = {k for k, f in self.fns.items() if f.kwarg and any(
            kw.arg is None and getattr(kw.value, "id", None) == f.kwarg
            for n in ast.walk(f.node) if isinstance(n, ast.Call)
            for kw in n.keywords)}
        self.index = {}
        while True:  # calls through parameters need the sites found so far
            self._memo, self._busy = {}, set()
            index = {}
            for call, scope, path in self.calls:
                for key, skip, args in self._targets(call, scope):
                    index.setdefault(key, []).append(
                        (call, args, skip, scope, path))
            if index.keys() == self.index.keys() and all(
                    len(index[k]) == len(self.index[k]) for k in index):
                break
            self.index = index
        self._values, self._escaped = {}, {}
        # a mention that is a call's function (or a partial's first
        # argument) is that call's site
        self.callee = {id(call.args[0] if getattr(
            call.func, "id", getattr(call.func, "attr", None)) == "partial"
            and call.args else call.func): (call, scope)
            for call, scope, _ in self.calls}

    # -- the source ---------------------------------------------------------
    @staticmethod
    def _symbols(tree, mod, is_pkg):
        syms = {}
        for node in ast.walk(tree):  # function-local imports included
            if isinstance(node, ast.Import):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    syms.setdefault(name, ("mod", a.asname and a.name
                                           or name))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = mod.split(".")
                    up = up[:len(up) + is_pkg - node.level]
                    base = ".".join(up + ([base] if base else []))
                for a in node.names:
                    syms.setdefault(a.asname or a.name,
                                    ("from", base, a.name))
        for name, (module, attr) in _lazy_exports(tree).items():
            syms[name] = ("from", module, attr)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                syms[stmt.name] = ("class", (mod, stmt.name))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                syms[stmt.name] = ("fn", (mod, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    and stmt.value is not None:
                for t in (stmt.targets if isinstance(stmt, ast.Assign)
                          else [stmt.target]):
                    if isinstance(t, ast.Name):
                        syms[t.id] = ("val", mod, stmt.value)
        return syms

    def _walk(self, nodes, scope, path, qual):
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                key = (scope.mod, qual + node.name)
                self._walk([*node.bases, *node.keywords,
                            *node.decorator_list], scope, path, qual)
                if scope.fn is not None:
                    scope.defs[node.name] = ("class", key)
                body = _Scope(scope.mod, node, scope, cls=key)
                body.attrs, body.methods = {}, {}
                self.classes[key] = body
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for t in stmt.targets:
                            if isinstance(t, ast.Name):
                                body.attrs[t.id] = stmt.value
                self._walk(node.body, body, path, key[1] + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (scope.mod, qual + node.name)
                self._walk([node.args, *node.decorator_list], scope, path,
                           qual)
                if scope.fn is not None:
                    scope.defs[node.name] = ("fn", key)
                method = scope.fn is None and scope.cls is not None
                if method:
                    scope.methods[node.name] = key
                inner = _Scope(scope.mod, node, scope, cls=scope.cls, fn=key)
                s, nested = scope, False
                while s is not None:
                    nested, s = nested or s.fn is not None, s.parent
                self.fns[key] = _Fn(node, inner, method, nested)
                self._walk(node.body, inner, path, key[1] + ".")
            else:
                if isinstance(node, ast.Call):
                    self.calls.append((node, scope, path))
                    if _getattr_name(node):
                        self.named.append(_getattr_name(node))
                elif isinstance(node, ast.Assign):  # TABLE[key] = value
                    self.stores += [(t.value, node.value, scope)
                                    for t in node.targets
                                    if isinstance(t, ast.Subscript)]
                elif isinstance(node, (ast.Name, ast.Attribute)) and \
                        isinstance(node.ctx, ast.Load):
                    self.mentions.setdefault(getattr(
                        node, "id", getattr(node, "attr", None)),
                        []).append((node, scope))
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        _DOTTED.fullmatch(node.value):
                    self.named += [(n, False) for n in _DOTTED.fullmatch(
                        node.value).group(1).split(".")]
                self._walk(ast.iter_child_nodes(node), scope, path, qual)

    # -- what an expression names -------------------------------------------
    def _lookup(self, mod, name):
        sym = self.mods.get(mod, {}).get(name)
        if sym is None:
            sub = f"{mod}.{name}"
            return {("mod", sub)} if sub in self.mods else set()
        if sym[0] in ("class", "fn"):
            return {sym}
        if sym[0] == "mod":
            return {sym} if sym[1] in self.mods else set()
        if sym[0] == "from":
            if (sym[1], sym[2]) in self._busy:
                return set()
            self._busy.add((sym[1], sym[2]))
            try:
                return self._lookup(sym[1], sym[2])
            finally:
                self._busy.discard((sym[1], sym[2]))
        return {sym} | self._res(sym[2], self.scopes[sym[1]])

    def _mro(self, key):
        order = [key]
        cls = self.classes[key]
        for base in cls.node.bases:
            for o in self._res(base, cls.parent):
                if o[0] == "class" and o[1] in self.classes:
                    order += [k for k in self._mro(o[1]) if k not in order]
        return order

    def _init(self, key, after=False):
        mro = self._mro(key)[1 if after else 0:]
        return next((self.classes[k].methods["__init__"] for k in mro
                     if "__init__" in self.classes[k].methods), None)

    def _attr(self, key, name, down):
        found = set()
        mro = self._mro(key)
        classes = mro + ([k for k in self.classes if key in self._mro(k)]
                         if down else [])
        for i, k in enumerate(classes):
            cls = self.classes[k]
            if name in cls.methods:
                found.add(("fn", cls.methods[name]))
            elif name in cls.attrs:
                found |= self._res(cls.attrs[name], cls.parent)
            else:
                continue
            if i < len(mro) and not down:
                break
        return found

    def _res(self, e, scope):
        memo = (id(e), id(scope))
        if memo in self._memo:
            return self._memo[memo]
        if memo in self._busy:
            return set()
        self._busy.add(memo)
        try:
            out = self._res_uncached(e, scope)
        finally:
            self._busy.discard(memo)
        self._memo[memo] = out
        return out

    def _res_uncached(self, e, scope):
        if isinstance(e, ast.Name):
            s = scope
            while s.parent is not None:
                if e.id in s.defs:
                    return {s.defs[e.id]}
                if s.fn is not None and (e.id in s.binds or e.id in s.loops
                                         or e.id in s.params):
                    out = set()
                    for v in s.binds.get(e.id, ()):
                        out |= self._res(v, s)
                    for it in s.loops.get(e.id, ()):
                        out |= self._elems(it, s)
                    if e.id in s.params:
                        fn = self.fns[s.fn]
                        if fn.bound and fn.positional[:1] == [e.id]:
                            out.add(("self", s.cls))
                        else:
                            out |= self._param_objs(s.fn, e.id)
                    return out
                s = s.parent
            return self._lookup(scope.mod, e.id)
        if isinstance(e, ast.Attribute):
            if isinstance(e.value, ast.Call) and \
                    getattr(e.value.func, "id", None) == "super":
                init = scope.cls and self._init(scope.cls, after=True)
                return {("fn", init)} if init and e.attr == "__init__" \
                    else set()
            out = set()
            for o in self._res(e.value, scope):
                if o[0] == "mod":
                    out |= self._lookup(o[1], e.attr)
                elif o[0] in ("class", "self") and o[1] in self.classes:
                    out |= self._attr(o[1], e.attr, down=o[0] == "self")
                elif o[0] == "item":
                    out.add(o)
            if not out:
                out = {("fn", k) for k in self.forwarders
                       if k[1].split(".")[-1] == e.attr}
                out = out if len(out) == 1 else set()
            return out
        if isinstance(e, ast.Subscript):
            return self._elems(e.value, scope)
        if isinstance(e, ast.Call) and getattr(e.func, "id", None) \
                == "type" and len(e.args) == 1:
            return {o for o in self._res(e.args[0], scope)
                    if o[0] == "self"}
        return set()

    def _elems(self, e, scope):
        """What iterating or indexing ``e`` yields: the classes and
        functions a module-level table names."""
        if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*(self._res(x, scope) for x in e.elts))
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Attribute) \
                and e.func.attr in ("values", "items"):
            e = e.func.value
        out = set()
        for o in self._res(e, scope):
            if o[0] == "val":
                for table, value, where in self.stores:
                    if o in self._res(table, where):
                        out |= {("item", r) for r in self._res(value, where)
                                if r[0] in ("class", "fn")}
                for n in ast.walk(o[2]):
                    if isinstance(n, (ast.Name, ast.Attribute)):
                        out |= {("item", r) for r in
                                self._res(n, self.scopes[o[1]])
                                if r[0] in ("class", "fn")}
        return out

    # -- calls --------------------------------------------------------------
    def _targets(self, call, scope):
        """``(fn key, self skipped, positional args)`` per callee."""
        func, args = call.func, call.args
        if getattr(func, "id", getattr(func, "attr", None)) == "partial" \
                and args:
            func, args = args[0], args[1:]
        objs = self._res(func, scope)
        while any(o[0] == "item" for o in objs):
            objs = {o[1] if o[0] == "item" else o for o in objs}
        unbound = isinstance(func, ast.Attribute) and any(
            o[0] == "class" for o in self._res(func.value, scope))
        out = []
        for o in objs:
            if o[0] in ("class", "self") and o[1] in self.classes:
                keys = [o[1]] + ([k for k in self.classes
                                  if o[1] in self._mro(k)[1:]]
                                 if o[0] == "self" else [])
                out += [(init, 1, args) for init in
                        {self._init(k) for k in keys} - {None}]
            elif o[0] == "fn" and o[1] in self.fns:
                fn = self.fns[o[1]]
                out.append((o[1], int(fn.bound and (
                    fn.classmethod or not unbound)), args))
        return out

    def _sites(self, key):
        fn = self.fns[key]
        for call, args, skip, scope, path in self.index.get(key, ()):
            explicit = {}
            for name, arg in zip(fn.positional[skip:], args):
                if isinstance(arg, ast.Starred):
                    explicit.update((p, VARIED) for p in
                                    fn.positional[skip:][len(explicit):])
                    break
                explicit[name] = arg
            alts, splat = [{}], None
            for kw in call.keywords:
                if kw.arg is not None:
                    explicit[kw.arg] = kw.value
                    continue
                fwd = scope.fn and self.fns[scope.fn].kwarg
                if fwd and getattr(kw.value, "id", None) == fwd:
                    splat = scope.fn
                    continue
                more = self._dicts(kw.value, scope)
                if more is not None:
                    alts = [{**a, **m} for a in alts for m in more]
            for alt in alts:
                yield _Site({**alt, **explicit}, splat, scope, path)

    def _dicts(self, e, scope):
        """The ``{key: expr}`` alternatives a ``**e`` may spread."""
        if isinstance(e, ast.Dict) and all(
                isinstance(k, ast.Constant) for k in e.keys):
            return [{k.value: v for k, v in zip(e.keys, e.values)}]
        if isinstance(e, ast.IfExp):
            a, b = self._dicts(e.body, scope), self._dicts(e.orelse, scope)
            return None if a is None or b is None else a + b
        if isinstance(e, ast.Name) and scope.fn is not None and \
                len(scope.binds.get(e.id, ())) == 1 and \
                e.id not in scope.params:
            return self._dicts(scope.binds[e.id][0], scope)
        return None

    def _param_objs(self, key, name):
        fn = self.fns[key]
        out = set()
        if name in fn.defaults:
            out |= self._res(fn.defaults[name], fn.scope.parent)
        for site in self._sites(key):
            arg = site.explicit.get(name)
            if isinstance(arg, ast.AST):
                out |= self._res(arg, site.scope)
        return out

    # -- values -------------------------------------------------------------
    def _fold(self, e, scope):
        if isinstance(e, ast.Name) and scope.fn is None:
            return next((self._fold(o[2], self.scopes[o[1]])
                         for o in self._lookup(scope.mod, e.id)
                         if o[0] == "val"), VARIED)
        if isinstance(e, ast.Name):
            s = scope
            while s.parent is not None:
                if s.fn is not None and (e.id in s.binds or e.id in s.loops
                                         or e.id in s.params):
                    return VARIED
                s = s.parent
            return self._fold(e, self.scopes[scope.mod])
        if isinstance(e, ast.List):
            e = ast.Tuple(elts=e.elts, ctx=ast.Load())
        if all(isinstance(n, _FOLDABLE) for n in ast.walk(e)):
            try:
                value = eval(compile(ast.fix_missing_locations(
                    ast.Expression(e)), "<census>", "eval"), {})
                hash(value)
                return value
            except (TypeError, ValueError, ArithmeticError):
                pass
        return VARIED

    def _default(self, key, name):
        d = self.fns[key].defaults.get(name)
        if d is None:
            return _REQUIRED
        v = self._fold(d, self.fns[key].scope.parent)
        return f"<default {ast.unparse(d)}>" if v is VARIED else v

    def _escapes(self, key):
        """Whether a mention of ``key``'s name in the product code is
        anything but a call the census resolves: a def named by a string
        or a ``getattr``, stored as a value, or called on a receiver the
        census cannot type."""
        if key not in self._escaped:
            name = key[1].split(".")[-1]
            self._escaped[key] = any(
                name.startswith(n) if prefix else name == n
                for n, prefix in self.named) or any(
                id(node) not in self.callee
                or not self._targets(*self.callee[id(node)])
                for node, _ in self.mentions.get(name, ()))
        return self._escaped[key]

    def _tracked(self, key):
        """Whether every call of ``key`` is in :meth:`_sites`: a
        forwarder, an ``__init__``, or a module- or class-level def that
        does not escape."""
        if key in self.forwarders or key[0] not in self.scoped:
            return key in self.forwarders
        if key[1].endswith(".__init__"):
            return True
        return not self.fns[key].nested and not self._escapes(key)

    def _value(self, expr, scope):
        """``{(value, file that passed it)}`` for one argument."""
        if expr is VARIED:
            return {(VARIED, None)}
        v = self._fold(expr, scope)
        if v is not VARIED or not isinstance(expr, ast.Name):
            return {(v, None)}
        if scope.fn is not None and expr.id in scope.params \
                and expr.id not in scope.binds and self._tracked(scope.fn):
            return self._arriving(scope.fn, expr.id,
                                  self._default(scope.fn, expr.id))
        return {(VARIED, None)}

    def _arriving(self, key, name, default):
        """``{(value, file)}`` that reach ``name`` of ``key``'s call."""
        memo = (key, name, default)
        if memo in self._values:
            return self._values[memo]
        self._values[memo] = set()  # a cycle adds nothing
        out = set()
        for site in self._sites(key):
            if name in site.explicit:
                rel = site.path.relative_to(self.base).as_posix()
                out |= {(v, f or rel) for v, f in
                        self._value(site.explicit[name], site.scope)}
            elif site.splat and name not in self.fns[site.splat].named:
                out |= self._arriving(site.splat, name, default)
            else:  # a partial's later call binds a required parameter
                out.add((VARIED if default == _REQUIRED else default,
                         None))
        self._values[memo] = out
        return out

    def options(self):
        """``{"Class.option" | "module:def.param": (values in use, files
        that pass it)}`` for every defaulted parameter of a module- or
        class-level def under ``src``; an escaping def's are ``VARIED``."""
        out = {}
        for key, fn in sorted(self.fns.items()):
            init = key[1].endswith(".__init__")
            if key[0] not in self.scoped or fn.nested and not init:
                continue
            for name in fn.defaults:
                label = (f"{key[1][:-len('.__init__')]}.{name}" if init
                         else f"{key[0]}:{key[1]}.{name}")
                if not self._tracked(key):
                    out[label] = (frozenset({VARIED}), frozenset())
                    continue
                got = self._arriving(key, name, self._default(key, name))
                out[label] = (frozenset(v for v, _ in got),
                              frozenset(f for _, f in got if f))
        return out


def census(src, callers):
    """Every option under ``src`` with the values product callers give
    it: ``{"Class.option" | "module:def.param": (values, files that
    pass it)}``."""
    return _Census(src, callers).options()


def unused(values):
    """An option with fewer than two values in use is a constant."""
    return VARIED not in values and len(values) < 2


def settable(options):
    """``(constructor options, other defaulted parameters)`` in a
    :func:`census`: the settable values a reader must know about."""
    init = sum(":" not in name for name in options)
    return init, len(options) - init


PERF = "benchmarks/perf/workloads"
#: options only the frozen ``benchmarks/perf`` passes, each accepted at
#: one value (its constructor refuses any other), until ``one-ledger``
#: (a) drops the keyword there and the option here
FROZEN = {
    "PhiAccrualDetector.period_us": f"{PERF}/topo_checked.py",
    "PhiAccrualDetector.timeout_us": f"{PERF}/topo_checked.py",
    "QuorumGate.hold_us": f"{PERF}/topo_checked.py",
    "Observability.sanitize": f"{PERF}/topo_checked.py",
    "DataCenter.n_app": f"{PERF}/webcache.py",
}


@pytest.fixture(scope="module")
def options():
    return census(SRC, (SRC, REPO / "examples", REPO / "benchmarks" / "perf"))


def test_every_option_is_varied(options):
    fixed = {name: values for name, (values, _files) in options.items()
             if unused(values) and name not in FROZEN}
    assert not fixed, (
        f"{len(fixed)} parameter(s) that no product caller sets to a "
        "second value; make each a module constant: "
        + "; ".join(f"{name} (in use: "
                    f"{', '.join(map(repr, sorted(values, key=repr))) or 'none'})"
                    for name, values in sorted(fixed.items())))


def test_frozen_entries_are_not_stale(options):
    stale = sorted(name for name, path in FROZEN.items()
                   if name not in options or path not in options[name][1]
                   or not unused(options[name][0]))
    assert not stale, (
        "FROZEN entries no longer passed at one value by their "
        f"benchmarks/perf file: {', '.join(stale)}")


def test_census_names_unused_options(tmp_path):
    """The census on a small tree: an option no caller passes and one
    every caller passes at its default are named; one a forwarded
    ``**kwargs`` varies, and one a caller passes through by name from a
    varied ``__init__`` option, are not."""
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        "class Quiet:\n"
        "    def __init__(self, x=1):\n"
        "        self.x = x\n"
        "\n"
        "class Same:\n"
        "    def __init__(self, a, y=2):\n"
        "        self.y = y\n"
        "\n"
        "class Inner:\n"
        "    def __init__(self, z=3, w=4):\n"
        "        self.z, self.w = z, w\n"
        "\n"
        "class Outer:\n"
        "    def __init__(self, w=4, **kw):\n"
        "        self.inner = Inner(w=w, **kw)\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from pkg.mod import Inner, Outer, Quiet, Same\n"
        "\n"
        "TWO = 2\n"
        "Quiet()\n"
        "Same(0, y=2)\n"
        "Same(1, TWO)\n"
        "Inner()\n"
        "Outer(z=5, w=6)\n"
        "Outer()\n")
    got = census(tmp_path / "src", (tmp_path / "src", tmp_path / "examples"))
    assert sorted(name for name, (values, _) in got.items()
                  if unused(values)) == ["Quiet.x", "Same.y"]
    assert got["Same.y"] == ({2}, {"examples/use.py"})
    assert got["Inner.z"][0] == {3, 5}
    assert got["Inner.w"][0] == got["Outer.w"][0] == {4, 6}


def test_census_names_fixed_parameters(tmp_path):
    """The widened census on a small tree: a function parameter its only
    caller passes at one value is named; one of a function a dotted
    string names is not, and neither is one passed through from a
    caller reached only on an untyped receiver."""
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        "def fixed(n=1):\n"
        "    return n\n"
        "\n"
        "def named(seed=0):\n"
        "    return seed\n"
        "\n"
        "def inner(x=0):\n"
        "    return x\n"
        "\n"
        "def outer(x=0):\n"
        "    return inner(x=x)\n"
        "\n"
        'SWEEP = "pkg.mod:named"\n')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from pkg.mod import fixed, named\n"
        "\n"
        "fixed(n=3)\n"
        "named(seed=1)\n"
        "\n"
        "def drive(obj):\n"
        "    return obj.outer(x=2)\n")
    got = census(tmp_path / "src", (tmp_path / "src", tmp_path / "examples"))
    assert sorted(name for name, (values, _) in got.items()
                  if unused(values)) == ["pkg.mod:fixed.n"]
    assert got["pkg.mod:fixed.n"] == ({3}, {"examples/use.py"})
    assert got["pkg.mod:named.seed"][0] == got["pkg.mod:outer.x"][0] \
        == got["pkg.mod:inner.x"][0] == {VARIED}
    assert settable(got) == (0, 4)


def test_def_census_names_unused_defs(tmp_path):
    """The def guard on a small tree: a method only its module's
    ``__all__`` and a docstring mention is named, with the helper only
    it calls; a method reached only through ``getattr(self, "_on_" +
    kind)`` and a function named only by a ``"pkg.mod:fn"`` string are
    not."""
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(
        '__all__ = ["Oracle", "stale", "entry"]\n'
        "\n"
        "class Oracle:\n"
        '    """Its ``stale`` has no caller."""\n'
        "\n"
        "    def feed(self, kind):\n"
        '        return getattr(self, "_on_" + kind)()\n'
        "\n"
        "    def _on_grant(self):\n"
        "        return 1\n"
        "\n"
        "    def stale(self):\n"
        "        return self.helper()\n"
        "\n"
        "    def helper(self):\n"
        "        return 2\n"
        "\n"
        "def entry(seed):\n"
        "    return seed\n"
        "\n"
        'SWEEP = "pkg.mod:entry"\n')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(
        "from pkg.mod import Oracle\n"
        "\n"
        'Oracle().feed("grant")\n')
    assert dead_defs(tmp_path / "src", (tmp_path / "src",
                                        tmp_path / "examples")) == [
        "pkg.mod:Oracle.helper", "pkg.mod:Oracle.stale"]
