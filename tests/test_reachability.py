"""Every ``src/`` module, def, option and tested dataclass field is used
by the product code (``src/``, ``examples/``, ``benchmarks/perf`` but
not its tests), or it is deleted (ROADMAP ``measured-or-gone``).

The code is read with :mod:`ast` alone, parsed once per session, and one
resolver (:class:`_Tree`) serves every guard.  It types a local, a
parameter (what its callers pass), a def, a module-level name or an
import (through re-exports and ``_EXPORTS``); an attribute of a module
or a class; ``self``, ``type(self)`` and ``super()`` over the class's
ancestors and subclasses; a call of a class; an instance attribute read
off the class's own assignments (``self.x = Cls()``, ``self.x: T``,
``self.x[k] = Cls()``); and an entry of a module-level table, as every
class or function the table names.  Anything else, and an attribute
also set on a receiver other than ``self``, is ``ANY``.

* A **module** is reached by imports from a figure, a scenario row, a
  perf workload or a CLI verb; a package ``__init__`` reaches what its
  own code uses, and a module its parent packages.
* A **def** is used when a resolved load or call reaches it, a
  ``"pkg.mod:attr"`` string names it, or a ``getattr`` names it or a
  prefix (``"_on_" + kind``).  An attribute of an ``ANY`` receiver
  reaches every def of its name, so a miss can only keep a def.  Dunders
  are exempt; a use inside the def itself or an unused def does not
  count, so the guard names a dead def with the helpers only it calls.
* An **option**, a defaulted parameter of a module- or class-level def,
  needs two values from product callers.  Calls bind through
  ``partial``, ``**`` of a dict literal and a forwarded ``**kwargs``; a
  value is a constant expression, else ``VARIED``, and a parameter
  passed on takes what its callers pass.  A def whose name escapes (a
  string, a ``getattr``, a stored value, an untyped receiver) has every
  parameter ``VARIED``; an unread call adds no value, so a miss can only
  flag an option.
* A frozen-dataclass **field** that a branch tests on a typed receiver
  needs two values from product constructions or a
  ``dataclasses.replace`` (a computed field name varies every field).  A
  guard that only raises is a check, not a branch.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CALLERS = (SRC, REPO / "examples", REPO / "benchmarks" / "perf")
# ``python -m repro`` runs the CLI through ``repro.__main__``
ROOTS = ("repro.__main__", "repro.cli", "repro.bench.figures",
         "repro.scenarios")

ANY = ("any",)  # what an expression the resolver cannot type may be
VARIED = "<varied>"
_REQUIRED = "<required>"
_FOLDABLE = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.Tuple, ast.Load,
             ast.operator, ast.unaryop)
_DOTTED = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)")
_TABLES = (ast.Dict, ast.List, ast.Tuple, ast.Set)
#: expressions of a builtin type: nothing the product defines is on them
_BUILTIN = (*_TABLES, ast.Constant, ast.ListComp, ast.SetComp,
            ast.DictComp, ast.GeneratorExp, ast.JoinedStr, ast.Compare)
#: methods that fill a table with entries no ``t[k] = v`` shows
_GROWS = ("append", "extend", "insert", "add", "update", "setdefault",
          "appendleft")


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


def _imports(node, mod, is_pkg):
    """``(name bound, symbol, (module, name imported or None))`` for
    each name an import statement in module ``mod`` binds."""
    if isinstance(node, ast.Import):
        for a in node.names:
            name = a.asname or a.name.split(".")[0]
            yield name, ("mod", a.asname and a.name or name), (a.name, None)
        return
    base = node.module or ""
    if node.level:
        up = mod.split(".")
        up = up[:len(up) + is_pkg - node.level]
        base = ".".join(up + ([base] if base else []))
    for a in node.names:
        yield a.asname or a.name, ("from", base, a.name), (base, a.name)


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


class _Scope:
    """A module, class or function body: the names it binds, a class's
    members, and how a call binds to a function's parameters."""

    def __init__(self, mod, node, parent, cls=None, fn=None):
        self.mod, self.node, self.parent = mod, node, parent
        self.cls, self.fn = cls, fn
        self.around = parent.around | {fn or cls} if parent else frozenset()
        self.nested = parent is not None and (parent.fn is not None
                                              or parent.nested)
        self.binds, self.loops, self.params = {}, {}, set()
        self.defs = {}  # classes and functions defined in a function body
        self.attrs, self.methods, self.inst = {}, {}, {}  # a class's
        if fn is None:
            return
        a = node.args
        self.positional = [p.arg for p in (*a.posonlyargs, *a.args)]
        self.named = set(self.positional) | {p.arg for p in a.kwonlyargs}
        self.kwarg = a.kwarg.arg if a.kwarg else None
        self.vararg = a.vararg is not None
        self.params = self.named | {p.arg for p in (a.vararg, a.kwarg) if p}
        self.defaults = dict(zip(self.positional[::-1], a.defaults[::-1]))
        self.defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs,
                                                        a.kw_defaults) if d)
        decos = {getattr(d, "id", None) for d in node.decorator_list}
        self.bound = parent.fn is None and parent.cls is not None \
            and "staticmethod" not in decos  # a method
        self.classmethod = "classmethod" in decos


class _Tree:
    """One parse of the product code, and what its names resolve to."""

    def __init__(self, src, callers):
        self.base = src.parent
        self.mods, self.trees, self.scopes, self.imports = {}, {}, {}, {}
        self.loads, self.classes, self.fns, self.calls = {}, {}, {}, []
        self.mentions, self.named = {}, []  # name loads; getattr/strings
        self.tests, self.stores, self.scoped = [], [], set()
        self.generated, self._bound = set(), set()
        self.foreign = set()  # attributes set on a receiver not ``self``
        for path, rel_to, scoped in _product_files(src, callers):
            parts = path.relative_to(rel_to).with_suffix("").parts
            is_pkg = parts[-1] == "__init__"
            mod = ".".join(parts[:-1] if is_pkg else parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            self.trees[mod], self.mods[mod] = (tree, is_pkg, path), {}
            self.imports[mod], self.loads[mod] = [], set()
            if scoped:
                self.scoped.add(mod)
        for mod, (tree, _, _) in self.trees.items():
            self.scopes[mod] = _Scope(mod, tree, None)
            self._walk(tree.body, self.scopes[mod], "")
        self._memo, self._mros, self._subs, self.index = {}, {}, {}, {}
        # instance tables a ``self.x.append(v)`` fills, directly or
        # through a local bound to ``self.x``: their entries are ``ANY``
        self.grown = {getattr(v, "attr", None) for m in _GROWS
                      for n, s, _ in self.mentions.get(m, ())
                      if isinstance(n, ast.Attribute) for v in s.binds.get(
                          getattr(n.value, "id", None), [n.value])}
        self.forwarders = {k for k, f in self.fns.items() if f.kwarg and any(
            kw.arg is None and getattr(kw.value, "id", None) == f.kwarg
            for n in ast.walk(f.node) if isinstance(n, ast.Call)
            for kw in n.keywords)}
        while True:  # calls through parameters need the sites found so far
            self._memo, self._busy = {}, set()
            index = {}
            for call, scope in self.calls:
                for key, skip, args in self._targets(call, scope):
                    index.setdefault(key, []).append((call, args, skip, scope))
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
            for call, scope in self.calls}

    # -- the source ---------------------------------------------------------
    def _def(self, scope, name, sym):
        """Bind a def's name in its module, function or class body."""
        if scope.parent is None:
            self.mods[scope.mod][name] = sym
        elif scope.fn is not None:
            scope.defs[name] = sym
        elif sym[0] == "fn":
            scope.methods[name] = sym[1]

    def _walk(self, nodes, scope, qual, around=None):
        around = scope.around if around is None else around
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                key = (scope.mod, qual + node.name)
                self._walk([*node.bases, *node.keywords,
                            *node.decorator_list], scope, qual, around | {key})
                self._def(scope, node.name, ("class", key))
                body = self.classes[key] = _Scope(scope.mod, node, scope, key)
                deco = " ".join(map(ast.unparse, node.decorator_list))
                body.frozen = "frozen=True" in deco
                self._walk(node.body, body, key[1] + ".")
                if "dataclass" in deco and "__init__" not in body.methods:
                    self._generate_init(key, body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (scope.mod, qual + node.name)
                self._walk([node.args, *node.decorator_list], scope, qual,
                           around | {key})
                self._def(scope, node.name, ("fn", key))
                self.fns[key] = _Scope(scope.mod, node, scope, scope.cls, key)
                self._walk(node.body, self.fns[key], key[1] + ".")
            else:
                self._bind(node, scope)
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for name, sym, edge in _imports(
                            node, scope.mod, self.trees[scope.mod][1]):
                        self.mods[scope.mod].setdefault(name, sym)
                        self.imports[scope.mod].append(
                            (edge, scope.parent is None))
                elif isinstance(node, ast.Call):
                    self.calls.append((node, scope))
                    if _getattr_name(node):
                        self.named.append((*_getattr_name(node), around))
                elif isinstance(node, (ast.If, ast.While, ast.IfExp)) \
                        and not (isinstance(node, ast.If) and not node.orelse
                                 and isinstance(node.body[0], ast.Raise)):
                    self.tests += [(n, scope) for n in ast.walk(node.test)
                                   if isinstance(n, ast.Attribute)]
                elif isinstance(node, (ast.Name, ast.Attribute)) and \
                        isinstance(node.ctx, ast.Load):
                    name = getattr(node, "id", None) or node.attr
                    self.mentions.setdefault(name, []).append(
                        (node, scope, around))
                    if isinstance(node, ast.Name):  # what the module uses
                        self.loads[scope.mod].add(name)
                elif isinstance(node, ast.Constant) and (
                        m := _DOTTED.fullmatch(str(node.value))):
                    self.named += [(n, False, around)
                                   for n in m.group(1).split(".")]
                self._walk(ast.iter_child_nodes(node), scope, qual, around)

    def _bind(self, node, scope):
        """Record what an assignment or a loop binds: a table entry, an
        instance attribute (``self.x``), a local, a module-level name, or
        a class attribute or field."""
        local = scope.fn is not None
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            ann = getattr(node, "annotation", None)
            targets = getattr(node, "targets", None) or [node.target]
            for t, v in [(t, node.value) for t in targets if not hasattr(
                    t, "elts")] + [(e, None) for t in targets  # unpacked
                                   for e in getattr(t, "elts", ())]:
                if isinstance(t, ast.Subscript):  # TABLE[k] = v
                    self.stores.append((t.value, v, scope))
                elif isinstance(t, ast.Attribute):
                    s, name = scope, getattr(t.value, "id", None)
                    while s.fn is not None and name not in s.params:
                        s = s.parent  # the method whose ``self`` it is
                    if s.fn and s.bound and s.positional[:1] == [name]:
                        self.classes[s.cls].inst.setdefault(
                            t.attr, []).append((ann, v, scope))
                    else:  # set from outside its class: untyped
                        self.foreign.add(t.attr)
                elif not isinstance(t, ast.Name):
                    continue
                elif scope.parent is None and v is not None:
                    self.mods[scope.mod][t.id] = ("val", scope.mod, v)
                    if t.id == "_EXPORTS":  # lazy re-exports: repro._lazy
                        self.mods[scope.mod].update(
                            (k.value, ("from", e.value, k.value))
                            for k, e in zip(v.keys, v.values))
                elif local:
                    scope.binds.setdefault(t.id, []).append(v)
                    self._bound.add(id(t))
                elif scope.cls is not None and ann is None:  # not a field
                    scope.attrs[t.id] = v
        elif local and isinstance(node, (ast.For, ast.comprehension)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    scope.loops.setdefault(t.id, []).append(node.iter)
                    self._bound.add(id(t))
        elif local and isinstance(node, ast.Name) and id(node) not in \
                self._bound and isinstance(node.ctx, ast.Store):
            scope.binds.setdefault(node.id, []).append(None)
        elif local and isinstance(node, ast.Lambda):
            for a in node.args.args:
                scope.binds.setdefault(a.arg, []).append(None)

    def _generate_init(self, key, cls):
        """The ``__init__`` a dataclass generates, over its fields."""
        cls.fields = {}
        for s in cls.node.body:
            if isinstance(s, ast.AnnAssign):
                d = s.value
                if isinstance(d, ast.Call) and ast.unparse(d.func) == "field":
                    d = next((k.value for k in d.keywords
                              if k.arg == "default"), d)
                cls.fields[s.target.id] = d
        node = ast.FunctionDef("__init__", ast.arguments(
            [], [ast.arg(n) for n in ("self", *cls.fields)], None, [], [],
            None, [d for d in cls.fields.values() if d]), [], [])
        init = cls.methods["__init__"] = (key[0], f"{key[1]}.__init__")
        self.generated.add(init)
        self.fns[init] = _Scope(key[0], node, cls, key, init)

    # -- what an expression names -------------------------------------------
    def _lookup(self, mod, name):
        sym = self.mods.get(mod, {}).get(name)
        if sym is None:
            sub = f"{mod}.{name}"
            return {("mod", sub)} if sub in self.mods else {ANY}
        if sym[0] in ("class", "fn", "mod"):
            return {sym} if sym[0] != "mod" or sym[1] in self.mods else {ANY}
        if sym[0] == "from":
            if sym in self._busy:  # an import cycle
                return set()
            self._busy.add(sym)
            out = self._lookup(sym[1], sym[2])
            self._busy.discard(sym)
            return out
        return {sym} | self._res(sym[2], self.scopes[sym[1]])

    def _mro(self, key):
        if key not in self._mros:
            self._mros[key] = order = [key]
            cls = self.classes[key]
            for base in cls.node.bases:
                for o in self._res(base, cls.parent):
                    if o[0] == "class" and o[1] in self.classes:
                        order += [k for k in self._mro(o[1])
                                  if k not in order]
        return self._mros[key]

    def _sub(self, key):
        """``(key and its subclasses, and their ancestors)``."""
        if key not in self._subs:
            subs = [k for k in self.classes if key in self._mro(k)]
            self._subs[key] = subs, list(dict.fromkeys(
                b for s in subs for b in self._mro(s)))
        return self._subs[key]

    def _attr(self, key, name, down, start=0):
        """``name`` of class ``key``: the first in its MRO that has it,
        or (``down``: of a ``self``) every class around ``key``."""
        found = set()
        for k in self._sub(key)[1] if down else self._mro(key)[start:]:
            cls = self.classes[k]
            if name in cls.methods:
                found.add(("fn", cls.methods[name]))
            if name in cls.attrs:
                found |= self._res(cls.attrs[name], cls.parent)
            if name in cls.inst:
                found |= self._inst(k, name)
            if found and not down:
                break
        # set on a receiver other than ``self``: anything may be there
        return found if found and name not in self.foreign else found | {ANY}

    def _inst(self, key, name):
        """An instance attribute: the classes its annotations name, or
        what its assigned values are, and itself as a table."""
        out = {("ival", key, name)}
        for ann, value, scope in self.classes[key].inst[name]:
            if getattr(getattr(ann, "value", None), "id", "") == "Optional":
                ann = ann.slice
            typed = {("self", o[1]) for o in self._res(ann, scope)
                     if o[0] == "class"} if ann else set()
            if typed:
                return typed | {("ival", key, name)}
            if not isinstance(value, _TABLES):  # tables: see _elems
                out |= self._res(value, scope)
        return out

    @staticmethod
    def _local(name, scope):
        """The function body that binds ``name``, if one does."""
        while scope.parent is not None:
            if name in scope.defs or scope.fn is not None and (
                    name in scope.binds or name in scope.loops
                    or name in scope.params):
                return scope
            scope = scope.parent
        return None

    def _res(self, e, scope):
        if e is None:
            return {ANY}
        memo = (id(e), id(scope))
        if memo in self._memo or memo in self._busy:  # busy: a cycle
            return self._memo.get(memo, set())
        self._busy.add(memo)
        out = self._memo[memo] = self._res_uncached(e, scope)
        self._busy.discard(memo)
        return out

    def _res_uncached(self, e, scope):
        if isinstance(e, ast.Name):
            if scope.fn is None and scope.cls is not None and (
                    e.id in scope.methods or e.id in scope.attrs):
                return self._attr(scope.cls, e.id, False)  # a class body
            s = self._local(e.id, scope)
            if s is None:
                return self._lookup(scope.mod, e.id)
            if e.id in s.defs:
                return {s.defs[e.id]}
            out = set()
            for v in s.binds.get(e.id, ()):
                out |= self._res(v, s)
            for it in s.loops.get(e.id, ()):
                out |= self._elems(it, s)
            if e.id in s.params and s.bound and s.positional[:1] == [e.id]:
                out.add(("sub" if s.classmethod else "self", s.cls))
            elif e.id in s.params:
                out |= self._param_objs(s.fn, e.id) | {ANY}
            return out
        if isinstance(e, ast.Attribute):
            if getattr(getattr(e.value, "func", None), "id", "") == "super":
                return self._attr(scope.cls, e.attr, False, 1) \
                    if scope.cls else {ANY}
            out = set()
            for o in self._res(e.value, scope):
                if o[0] == "mod":
                    out |= self._lookup(o[1], e.attr)
                elif o[0] in ("class", "self", "sub") and \
                        o[1] in self.classes:
                    out |= self._attr(o[1], e.attr, o[0] != "class")
                elif o[0] == "item":
                    out.add(o)
            if not out - {ANY}:
                fwd = {("fn", k) for k in self.forwarders
                       if k[1].split(".")[-1] == e.attr}
                out |= fwd if len(fwd) == 1 else set()
            return out or {ANY}
        if isinstance(e, ast.Subscript):
            return self._elems(e.value, scope, True)
        if isinstance(e, ast.Call):
            if getattr(e.func, "id", None) == "type" and len(e.args) == 1:
                return {("sub", o[1]) for o in self._res(e.args[0], scope)
                        if o[0] == "self"} or {ANY}
            return {("self", o[1]) if o[0] in ("class", "sub") and o[1] in
                    self.classes else ANY
                    for o in self._res(e.func, scope)} or {ANY}
        return set() if isinstance(e, _BUILTIN) else {ANY}

    def _elems(self, e, scope, index=False):
        """What indexing ``e`` (``index``) or iterating it yields: what a
        module-level table names, as items, or an instance table holds."""
        if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*(self._res(x, scope) for x in e.elts))
        if getattr(getattr(e, "func", None), "attr", "") in ("values",
                                                              "items"):
            e, index = e.func.value, e.func.attr == "values"
        out = set()
        for o in self._res(e, scope) or {ANY}:
            if o[0] not in ("val", "ival") or o[0] == "ival" and (
                    not index or o[2] in self.grown):
                out.add(ANY)
                continue
            got = [self._res(v, w) for t, v, w in self.stores
                   if o in self._res(t, w)]
            if o[0] == "val":
                got += [self._res(n, self.scopes[o[1]]) for n in ast.walk(
                    o[2]) if isinstance(n, (ast.Name, ast.Attribute))]
                out |= {ANY} | {("item", r) for r in set().union(*got)
                                if r[0] in ("class", "fn")}
                continue
            for _, value, w in self.classes[o[1]].inst[o[2]]:
                got += [set() if isinstance(value, _TABLES) and None not in
                        getattr(value, "keys", ()) else {ANY}] + [
                    self._res(v, w) for v in getattr(
                        value, "elts", getattr(value, "values", ()))]
            out = out.union(*got)
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
            if o[0] in ("class", "sub") and o[1] in self.classes:
                keys = self._sub(o[1])[0] if o[0] == "sub" else [o[1]]
                out += [(init[1], 1, args) for init in set().union(*(
                    self._attr(k, "__init__", False) for k in keys))
                    if init[0] == "fn"]
            elif o[0] == "fn" and o[1] in self.fns:
                fn = self.fns[o[1]]
                out.append((o[1], int(fn.bound and (
                    fn.classmethod or not unbound)), args))
        return [t for t in out if self._takes(*t)]

    def _takes(self, key, skip, args):
        """Whether ``key`` can take ``args`` positionally: a call with
        more positional arguments than a def takes — no ``*args`` in the
        def, no starred argument in the call — is not a call of it."""
        fn = self.fns[key]
        return (fn.vararg or len(args) <= len(fn.positional) - skip
                or any(isinstance(a, ast.Starred) for a in args))

    def _sites(self, key):
        """Each call of ``key``, bound: ``(explicit {param: expr}, the
        forwarding function whose **kwargs it passes on, its scope)``."""
        fn = self.fns[key]
        for call, args, skip, scope in self.index.get(key, ()):
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
                yield {**alt, **explicit}, splat, scope

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
            out |= self._res(fn.defaults[name], fn.parent)
        for explicit, _, scope in self._sites(key):
            if isinstance(explicit.get(name), ast.AST):
                out |= self._res(explicit[name], scope)
        return out

    # -- the guards ---------------------------------------------------------
    def unreached(self, roots):
        """The modules under ``src`` that neither ``roots`` nor a
        ``benchmarks/perf`` file reaches through imports."""
        def owner(mod, attr):  # the module that defines mod's ``attr``
            sym = self.mods.get(mod, {}).get(attr, ("",))
            if sym[0] == "from" and self.trees[mod][1]:
                return owner(sym[1], sym[2])
            return f"{mod}.{attr}" if f"{mod}.{attr}" in self.mods else mod

        graph, todo = {}, list(roots)
        for mod, (_, is_pkg, path) in self.trees.items():
            # a package's top-level imports are re-exports: its
            # ``__init__`` reaches only what its own code uses
            edges = {owner(m, a) if a else m
                     for (m, a), top in self.imports[mod]
                     if m and m.split(".")[0] == "repro"
                     and not (is_pkg and top)} | {
                owner(mod, n) for n in self.loads[mod] if is_pkg
                and self.mods[mod].get(n, ("",))[0] == "from"}
            if mod in self.scoped:
                graph[mod] = edges
            elif path.is_relative_to(REPO / "benchmarks" / "perf"):
                todo += edges
        seen = set()
        while todo:
            parts = todo.pop().split(".")
            for i in range(1, len(parts) + 1):
                parent = ".".join(parts[:i])
                if parent in graph and parent not in seen:
                    seen.add(parent)
                    todo.extend(graph[parent])
        return graph.keys() - seen

    def dead(self):
        """``["module:Qual.name"]`` for every def under ``src`` that no
        resolved load or call in the product code reaches."""
        named = {}  # name -> the defs of that name
        for k in {*self.fns, *self.classes} - self.generated:
            name = k[1].split(".")[-1]
            if k[0] in self.scoped and not re.fullmatch("__.*__", name):
                named.setdefault(name, set()).add(k)
        uses = []  # (def key, keys of the defs around the use)
        for name, mentions in self.mentions.items():
            for node, scope, around in mentions:
                hit = {o[1] for o in self._res(node, scope)
                       if o[0] in ("fn", "class")}
                if isinstance(node, ast.Attribute) and \
                        ANY in self._res(node.value, scope):
                    hit |= named.get(name, set())
                uses += [(k, around) for k in hit]
        uses += [(k, around) for name, prefix, around in self.named
                 for n, keys in named.items()
                 if (n.startswith(name) if prefix else n == name)
                 for k in keys]
        dead, defs = set(), set().union(*named.values())
        while True:
            more = defs - dead - {k for k, around in uses if k not in around
                                  and dead.isdisjoint(around)}
            if not more:
                return sorted(f"{m}:{q}" for m, q in dead)
            dead |= more

    # -- values -------------------------------------------------------------
    def _fold(self, e, scope):
        if isinstance(e, ast.Name):
            return VARIED if self._local(e.id, scope) else next((
                self._fold(o[2], self.scopes[o[1]])
                for o in self._lookup(scope.mod, e.id) if o[0] == "val"),
                VARIED)
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
        v = self._fold(d, self.fns[key].parent)
        return f"<default {ast.unparse(d)}>" if v is VARIED else v

    def _escapes(self, key):
        """Whether a mention of ``key``'s name in the product code is
        anything but a call the census resolves."""
        if key not in self._escaped:
            name = key[1].split(".")[-1]
            self._escaped[key] = any(
                name.startswith(n) if prefix else name == n
                for n, prefix, _ in self.named) or any(
                id(node) not in self.callee
                or not self._targets(*self.callee[id(node)])
                for node, _, _ in self.mentions.get(name, ()))
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
        for explicit, splat, scope in self._sites(key):
            if name in explicit:
                rel = self.trees[scope.mod][2].relative_to(
                    self.base).as_posix()
                out |= {(v, f or rel) for v, f in
                        self._value(explicit[name], scope)}
            elif splat and name not in self.fns[splat].named:
                out |= self._arriving(splat, name, default)
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
            if key[0] not in self.scoped or key in self.generated \
                    or fn.nested and not init:
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

    def fields(self):
        """``{"Class.field": values in use}`` for every field of a frozen
        dataclass under ``src`` that a branch tests."""
        replaced = {kw.arg for call, _ in self.calls for kw in
                    call.keywords if call.args and getattr(call.func, "id",
                    getattr(call.func, "attr", None)) == "replace"}
        tested = {}  # field name -> the receivers a branch reads it on
        for n, scope in self.tests:
            tested.setdefault(n.attr, set()).update(self._res(n.value, scope))
        out = {}
        for key, cls in sorted(self.classes.items()):
            if key[0] not in self.scoped or not cls.frozen:
                continue
            for name in getattr(cls, "fields", ()):  # its generated __init__
                init = cls.methods["__init__"]
                if any(o[0] in ("self", "sub", "class") and o[1] in
                       self.classes and key in self._sub(o[1])[1]
                       for o in tested.get(name, ())):
                    out[f"{key[1]}.{name}"] = frozenset(
                        {VARIED} if {name, None} & replaced else {
                            v for v, _ in self._arriving(
                                init, name, self._default(init, name))})
        return out


def census(src, callers):
    """Every option under ``src``: ``{"Class.option" | "module:def.param":
    (values product callers give it, files that pass it)}``."""
    return _Tree(src, callers).options()


def fields(src, callers):
    """``{"Class.field": values}`` for each tested field: see above."""
    return _Tree(src, callers).fields()


def unused(values):
    """An option or field with under two values in use is a constant."""
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
    "Observability.strict": f"{PERF}/topo_checked.py",
    "DataCenter.n_app": f"{PERF}/webcache.py",
}


@pytest.fixture(scope="session")
def tree():
    return _Tree(SRC, CALLERS)


def test_every_module_is_reached(tree):
    missing = sorted(tree.unreached(ROOTS))
    assert not missing, (
        f"{len(missing)} module(s) reached by no figure, scenario row, "
        f"perf workload or CLI verb: {', '.join(missing)}")


def test_every_def_is_used(tree):
    dead = tree.dead()
    assert not dead, (
        f"{len(dead)} def(s) that no product code reaches; delete each "
        f"(with what only it calls): {', '.join(dead)}")


def test_every_option_is_varied(tree):
    fixed = {name: values for name, (values, _) in tree.options().items()
             if unused(values) and name not in FROZEN}
    assert not fixed, (
        f"{len(fixed)} parameter(s) that no product caller sets to a "
        "second value; make each a module constant: "
        + "; ".join(f"{name} (in use: "
                    f"{', '.join(map(repr, sorted(values, key=repr))) or 'none'})"
                    for name, values in sorted(fixed.items())))


def test_frozen_entries_are_not_stale(tree):
    options = tree.options()
    stale = sorted(name for name, path in FROZEN.items()
                   if name not in options or path not in options[name][1]
                   or not unused(options[name][0]))
    assert not stale, (
        "FROZEN entries no longer passed at one value by their "
        f"benchmarks/perf file: {', '.join(stale)}")


def test_no_branch_tests_a_constant_field(tree):
    dead = sorted(name for name, values in tree.fields().items()
                  if unused(values))
    assert not dead, (
        f"{len(dead)} frozen-dataclass field(s) that every product "
        f"construction sets to one value and a branch tests; make each "
        f"a constant and delete the dead branch: {', '.join(dead)}")


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
    assert _Tree(tmp_path / "src", (tmp_path / "src",
                                    tmp_path / "examples")).dead() == [
        "pkg.mod:Oracle.helper", "pkg.mod:Oracle.stale"]


def _tmp_tree(tmp_path, mod, use):
    """A :class:`_Tree` over ``src/pkg/mod.py`` and ``examples/use.py``."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(mod)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "use.py").write_text(use)
    return _Tree(tmp_path / "src", (tmp_path / "src", tmp_path / "examples"))


def test_census_skips_calls_a_def_cannot_take(tmp_path, monkeypatch):
    """A call on an untyped receiver reaches every def of its name, but
    not one that cannot take its positional arguments: ``observe(wait)``
    is not a call of a ``**kwargs`` forwarder, so it passes no value of
    the option the forwarder feeds.  A starred argument, or ``*args`` in
    the def, can still bind, so those calls count."""
    mod = ("class Hist:\n"
           "    def observe(self, value):\n"
           "        return value\n"
           "\n"
           "class Obs:\n"
           "    def __init__(self, strict=True):\n"
           "        self.strict = strict\n"
           "\n"
           "class Cluster:\n"
           "    def observe(self, **kwargs):\n"
           "        return Obs(**kwargs)\n"
           "\n"
           "def track(metrics, wait):\n"
           "    return metrics.histogram().observe(wait)\n")
    use = ("from pkg.mod import Cluster\n"
           "\n"
           "Cluster().observe(strict=False)\n")
    got = _tmp_tree(tmp_path / "a", mod, use).options()["Obs.strict"][0]
    assert got == {False}
    splat = ("def replay(metrics, waits):\n"
             "    return metrics.histogram().observe(*waits)\n")
    got = _tmp_tree(tmp_path / "b", mod + splat, use).options()
    assert got["Obs.strict"][0] == {False, True}
    monkeypatch.setattr(_Tree, "_takes", lambda self, *target: True)
    got = _tmp_tree(tmp_path / "c", mod, use).options()["Obs.strict"][0]
    assert got == {False, True}   # without the filter: the blind spot


TWINS = (
    "class Nic:\n"
    "    def pending(self):\n"
    "        return 0\n"
    "\n"
    "    def send(self):\n"
    "        return 1\n"
    "\n"
    "class Allocator:\n"
    "    def free(self, offset):\n"
    "        return offset\n"
    "\n"
    "class Client:\n"
    "    def free(self, key):\n"
    "        return key\n"
    "\n"
    "class Store:\n"
    "    def __init__(self):\n"
    "        self._allocators = {}\n"
    "        self._allocators[0] = Allocator()\n"
    "\n"
    "    def release(self, n):\n"
    "        return self._allocators[n].free(0)\n"
    "\n"
    "def settle(items):\n"
    "    pending = len(items)\n"
    "    return pending\n")
TWINS_USE = (
    "from pkg.mod import Client, Nic, Store, settle\n"
    "\n"
    "Client()\n"
    "Nic().send()\n"
    "Store().release(0)\n"
    "settle([])\n")


def test_def_guard_resolves_name_twins(tmp_path):
    """A method whose only namesake is a local (``Nic.pending`` and
    ``settle``'s ``pending``) or another class's method reached through
    an instance table (``Client.free`` and ``self._allocators[n].free``)
    is dead: a guard matching names would pass both."""
    assert _tmp_tree(tmp_path, TWINS, TWINS_USE).dead() == [
        "pkg.mod:Client.free", "pkg.mod:Nic.pending"]


def test_def_guard_keeps_twins_on_an_untyped_receiver(tmp_path):
    """A call on a receiver the resolver cannot type keeps every def of
    that name alive: a miss can only keep a def."""
    assert _tmp_tree(tmp_path, TWINS, TWINS_USE + (
        "\n"
        "def drive(obj):\n"
        "    return obj.free(1), obj.pending()\n")).dead() == []


FIELDS = (
    "from dataclasses import dataclass\n"
    "\n"
    "@dataclass(frozen=True)\n"
    "class Params:\n"
    "    name: str\n"
    "    fast: bool = True\n"
    "    scale: float = 1.0\n"
    "\n"
    "    def cost(self):\n"
    "        if self.scale <= 0:\n"
    "            raise ValueError(self.name)\n"
    "        if self.fast:\n"
    "            return self.scale\n"
    "        return 2 * self.scale\n")
FIELDS_USE = (
    "from pkg.mod import Params\n"
    "\n"
    'Params("a").cost()\n'
    'Params("b", scale=2.0).cost()\n')


def test_field_census_flags_a_one_value_tested_field(tmp_path):
    """``fast`` is tested by a branch and always ``True``: a dead branch.
    ``scale`` varies and is only read arithmetically or by a guard that
    raises, and ``name`` is never tested: neither is counted."""
    got = _tmp_tree(tmp_path, FIELDS, FIELDS_USE).fields()
    assert got == {"Params.fast": {True}} and unused(got["Params.fast"])


def test_field_census_spares_a_replaced_field(tmp_path):
    """A ``dataclasses.replace`` with a computed field name may set any
    field, so ``fast`` is varied."""
    got = _tmp_tree(tmp_path, FIELDS, FIELDS_USE + (
        "from dataclasses import replace\n"
        "\n"
        "def tweak(p, knob, value):\n"
        "    return replace(p, **{knob: value})\n")).fields()
    assert got == {"Params.fast": {VARIED}} and not unused(got["Params.fast"])
