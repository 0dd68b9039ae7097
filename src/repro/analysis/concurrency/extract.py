"""AST extraction: lock acquisitions, call sites, guarded-field writes.

One pass over every module builds, per function, a summary of what it
acquires (and with what held), what it calls (and with what held), what
blocking operations it performs, and any local discipline violations
(raw locks, unbounded acquisition of timeout-required locks, unguarded
mutation of registered shared fields).  :mod:`.graph` and :mod:`.lints`
consume the summaries.

The tracking is deliberately *lexical and linear*: ``with lock:`` scopes
the held-set over its body; a bare ``.acquire()`` adds to the held-set
until a matching ``.release()`` appears later in the function (or the
function ends).  Branches are walked in order with the same held-state
threading through — an approximation that is exact for the disciplined
acquire/try/finally shapes this engine uses.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ...concurrency import _SPEC_BY_NAME, LockSpec
from . import registry
from .report import ConcurrencyIssue


@dataclass(frozen=True)
class LockRef:
    """A resolved lock identity: hierarchy group, display name, level."""

    group: str
    name: str
    level: int
    spec: LockSpec


@dataclass(frozen=True)
class Acquisition:
    """One ``with lock:`` or ``.acquire(...)`` site."""

    lock: LockRef
    bounded: bool
    file: str
    line: int


@dataclass(frozen=True)
class Edge:
    """Held-while-acquiring: ``held`` was held when ``acquired`` was
    taken (directly, or transitively through ``via``)."""

    held: Acquisition
    acquired: Acquisition
    via: str = ""  # callee key when the edge crosses a call


@dataclass(frozen=True)
class CallSite:
    """A resolvable call made while locks may be held."""

    callee: tuple[str, str]  # (scope, function) — scope "" for module fns
    held: tuple[Acquisition, ...]
    file: str
    line: int


@dataclass(frozen=True)
class BlockingCall:
    """A potentially blocking operation and the locks held around it."""

    what: str
    held: tuple[Acquisition, ...]
    file: str
    line: int


@dataclass
class FunctionSummary:
    key: tuple[str, str]
    file: str
    acquires: list[Acquisition] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)


@dataclass
class Extraction:
    """Everything the tree-level pass produces."""

    functions: dict[tuple[str, str], FunctionSummary] = field(
        default_factory=dict)
    issues: list[ConcurrencyIssue] = field(default_factory=list)
    #: (class, attr) → LockRef for every ``self.x = TrackedLock(...)``.
    class_locks: dict[tuple[str, str], LockRef] = field(
        default_factory=dict)
    #: module-level name → LockRef.
    module_locks: dict[tuple[str, str], LockRef] = field(
        default_factory=dict)


def _iter_sources(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in ("__pycache__", ".git")]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _literal_lock_name(node: ast.expr) -> Optional[str]:
    """The lock-name argument of a Tracked* constructor: a string
    literal, or the literal prefix of an f-string
    (``f"storage.writer:{key}"`` → ``"storage.writer:*"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            prefix = first.value
            return prefix.rstrip(":") + ":*"
    return None


def _resolve_spec(name: str, level: Optional[int]) -> Optional[LockRef]:
    """Resolve a constructed lock name (+ optional explicit level kwarg)
    to a :class:`LockRef`, or ``None`` when undeclared."""
    base, _, qualifier = name.partition(":")
    spec = _SPEC_BY_NAME.get(base)
    if spec is not None and (not qualifier or spec.dynamic):
        return LockRef(base, name, spec.level, spec)
    if level is not None:
        synthetic = LockSpec(base, level, dynamic=bool(qualifier))
        return LockRef(base, name, level, synthetic)
    return None


def _tracked_ctor(call: ast.Call) -> Optional[str]:
    """``TrackedLock``/``TrackedRLock``/``TrackedCondition`` constructor
    name, however imported."""
    func = call.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in ("TrackedLock", "TrackedRLock", "TrackedCondition"):
        return name
    return None


def _raw_lock_ctor(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "threading" \
            and func.attr in registry.RAW_LOCK_NAMES:
        return func.attr
    return None


def _level_kwarg(call: ast.Call) -> Optional[int]:
    for kw in call.keywords:
        if kw.arg == "level" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, int):
            return kw.value.value
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant) \
            and isinstance(call.args[1].value, int):
        return call.args[1].value
    return None


def _has_bounded_timeout(call: ast.Call) -> bool:
    """True when an ``.acquire(...)``/``wait(...)`` call carries a
    non-negative timeout (a literal ``-1``/``None`` does not bound it;
    any expression argument is assumed to)."""
    candidates: list[ast.expr] = []
    for kw in call.keywords:
        if kw.arg == "timeout":
            candidates.append(kw.value)
    if len(call.args) >= 2:
        candidates.append(call.args[1])
    elif len(call.args) == 1 and not any(
            kw.arg == "timeout" for kw in call.keywords):
        # acquire(blocking) — single positional is the blocking flag,
        # not a timeout.
        pass
    for node in candidates:
        if isinstance(node, ast.Constant):
            if node.value is None:
                continue
            if isinstance(node.value, (int, float)) and node.value >= 0:
                return True
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            continue  # a literal negative: unbounded
        return True  # an expression: assume the caller bounds it
    return False


class _ModuleExtractor:
    """Extracts one module (two passes: lock attrs, then functions)."""

    def __init__(self, path: str, tree: ast.Module,
                 out: Extraction) -> None:
        self.path = path
        self.modname = os.path.splitext(os.path.basename(path))[0]
        self.tree = tree
        self.out = out

    # -- pass 1: lock declarations ---------------------------------------------

    def collect_locks(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                self._maybe_lock_binding(
                    ("<module>", node.targets[0].id), node.value,
                    self.out.module_locks)
        for klass in self._classes():
            for fn in self._methods(klass):
                for stmt in ast.walk(fn):
                    if isinstance(stmt, ast.Assign) \
                            and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Attribute) \
                            and isinstance(stmt.targets[0].value, ast.Name) \
                            and stmt.targets[0].value.id == "self" \
                            and isinstance(stmt.value, ast.Call):
                        self._maybe_lock_binding(
                            (klass.name, stmt.targets[0].attr),
                            stmt.value, self.out.class_locks)

    def _maybe_lock_binding(self, key: tuple[str, str], call: ast.Call,
                            table: dict[tuple[str, str], LockRef]) -> None:
        ctor = _tracked_ctor(call)
        if ctor is None:
            self._check_raw_lock(call)
            return
        if not call.args:
            return
        name = _literal_lock_name(call.args[0])
        if name is None:
            self.out.issues.append(ConcurrencyIssue(
                "lock.unresolvable-name",
                f"{ctor} constructed with a non-literal name; the "
                f"analyzer (and the hierarchy) cannot identify it",
                self.path, call.lineno))
            return
        ref = _resolve_spec(name, _level_kwarg(call))
        if ref is None:
            self.out.issues.append(ConcurrencyIssue(
                "lock.undeclared",
                f"lock name {name!r} is not declared in "
                f"repro.concurrency.HIERARCHY and carries no explicit "
                f"level=",
                self.path, call.lineno))
            return
        if key not in table:
            table[key] = ref

    def _check_raw_lock(self, call: ast.Call) -> None:
        ctor = _raw_lock_ctor(call)
        if ctor is not None \
                and os.path.basename(self.path) not in \
                registry.RAW_LOCK_ALLOWED:
            self.out.issues.append(ConcurrencyIssue(
                "lock.raw",
                f"raw threading.{ctor}() constructed outside the "
                f"substrate; use TrackedLock/TrackedRLock/"
                f"TrackedCondition from repro.concurrency",
                self.path, call.lineno))

    # -- pass 2: functions -------------------------------------------------------

    def extract_functions(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_one("", node)
        for klass in self._classes():
            for fn in self._methods(klass):
                self._extract_one(klass.name, fn)
        # raw-lock constructions anywhere (incl. function bodies)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call) and _tracked_ctor(node) is None:
                self._check_raw_lock(node)

    def _extract_one(self, scope: str,
                     fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        key = (scope, fn.name)
        summary = FunctionSummary(key=key, file=self.path)
        walker = _FunctionWalker(self, scope, fn, summary)
        walker.run()
        self.out.functions[key] = summary

    def _classes(self) -> list[ast.ClassDef]:
        return [n for n in self.tree.body if isinstance(n, ast.ClassDef)]

    @staticmethod
    def _methods(klass: ast.ClassDef
                 ) -> list["ast.FunctionDef | ast.AsyncFunctionDef"]:
        return [n for n in klass.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


@dataclass
class _HeldEntry:
    acq: Acquisition
    scoped: bool  # True for `with` entries (popped on block exit)


class _FunctionWalker:
    """Walks one function's statements with a linear held-set."""

    def __init__(self, mod: _ModuleExtractor, scope: str,
                 fn: "ast.FunctionDef | ast.AsyncFunctionDef",
                 summary: FunctionSummary) -> None:
        self.mod = mod
        self.scope = scope
        self.fn = fn
        self.summary = summary
        self.held: list[_HeldEntry] = []
        self.var_locks: dict[str, LockRef] = {}
        self.var_types: dict[str, str] = {}
        self._seed_entry_state()

    def _seed_entry_state(self) -> None:
        for group in registry.HELD_ON_ENTRY.get(
                (self.scope, self.fn.name), ()):
            ref = _resolve_spec(group, None)
            if ref is not None:
                self.held.append(_HeldEntry(
                    Acquisition(ref, True, self.mod.path, self.fn.lineno),
                    scoped=False))
        for arg in (self.fn.args.posonlyargs + self.fn.args.args
                    + self.fn.args.kwonlyargs):
            if arg.annotation is not None:
                note = arg.annotation
                if isinstance(note, ast.Name):
                    self.var_types[arg.arg] = note.id
                elif isinstance(note, ast.Constant) \
                        and isinstance(note.value, str):
                    self.var_types[arg.arg] = note.value.strip('"')
            if arg.arg in registry.ATTR_TYPES:
                self.var_types.setdefault(arg.arg,
                                          registry.ATTR_TYPES[arg.arg])

    # -- entry point -------------------------------------------------------------

    def run(self) -> None:
        self.walk_block(self.fn.body)

    def walk_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt)

    # -- statements --------------------------------------------------------------

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            self._walk_with(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs (closures) analyzed only for raw locks
        elif isinstance(stmt, ast.Assign):
            self._scan_exprs(stmt)
            self._infer_assign(stmt)
            for target in stmt.targets:
                self._check_guard_write(target, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_exprs(stmt)
            self._check_guard_write(stmt.target, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            self._scan_exprs(stmt)
            if stmt.target is not None:
                self._check_guard_write(stmt.target, stmt.lineno)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._check_guard_write(target.value, stmt.lineno)
        elif isinstance(stmt, ast.For):
            self._scan_exprs_node(stmt.iter, stmt.lineno)
            self._infer_for_target(stmt)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_exprs_node(stmt.test, stmt.lineno)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._scan_exprs_node(stmt.test, stmt.lineno)
            self.walk_block(stmt.body)
            self.walk_block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk_block(stmt.body)
            for handler in stmt.handlers:
                self.walk_block(handler.body)
            self.walk_block(stmt.orelse)
            self.walk_block(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            self._scan_exprs(stmt)
            if stmt.value is not None:
                self._check_iterator_escape(stmt.value, stmt.lineno)
        else:
            self._scan_exprs(stmt)

    def _walk_with(self, stmt: ast.With) -> None:
        pushed = 0
        for item in stmt.items:
            self._scan_exprs_node(item.context_expr, stmt.lineno)
            ref = self._resolve_lock_expr(item.context_expr)
            if ref is not None:
                self._acquired(ref, bounded=False, line=stmt.lineno)
                pushed += 1
        self.walk_block(stmt.body)
        for _ in range(pushed):
            for i in range(len(self.held) - 1, -1, -1):
                if self.held[i].scoped:
                    del self.held[i]
                    break

    # -- expression scanning -------------------------------------------------------

    def _scan_exprs(self, stmt: ast.stmt) -> None:
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._scan_exprs_node(node, stmt.lineno)

    def _scan_exprs_node(self, expr: ast.expr, line: int) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, getattr(node, "lineno", line))

    def _handle_call(self, call: ast.Call, line: int) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr == "acquire":
                ref = self._resolve_lock_expr(func.value)
                if ref is not None:
                    self._acquired(ref,
                                   bounded=_has_bounded_timeout(call),
                                   line=line, scoped=False)
                    return
            elif attr == "release":
                ref = self._resolve_lock_expr(func.value)
                if ref is not None:
                    self._released(ref)
                    return
            if attr in registry.BLOCKING_ALWAYS:
                self._blocked(attr, line)
            elif attr in registry.BLOCKING_UNBOUNDED \
                    and not _has_bounded_timeout(call):
                receiver = self._resolve_lock_expr(func.value)
                if receiver is None or not self._holds(receiver.group):
                    self._blocked(f"{attr} (no timeout)", line)
            self._check_mutator_call(call, line)
            self._record_callsite(call, line)
        elif isinstance(func, ast.Name):
            self._record_callsite(call, line)

    # -- lock events --------------------------------------------------------------

    def _acquired(self, ref: LockRef, bounded: bool, line: int,
                  scoped: bool = True) -> None:
        acq = Acquisition(ref, bounded, self.mod.path, line)
        self.summary.acquires.append(acq)
        if ref.spec.timeout_required and not bounded:
            self.mod.out.issues.append(ConcurrencyIssue(
                "lock.timeout-required",
                f"{ref.name!r} (level {ref.level}) must be acquired "
                f"with a bounded timeout (a timed-out acquire becomes a "
                f"TransactionConflict; an unbounded one becomes a "
                f"deadlock)",
                self.mod.path, line))
        for entry in self.held:
            self.summary.edges.append(Edge(entry.acq, acq))
        self.held.append(_HeldEntry(acq, scoped=scoped))

    def _released(self, ref: LockRef) -> None:
        for i in range(len(self.held) - 1, -1, -1):
            if self.held[i].acq.lock.group == ref.group:
                del self.held[i]
                return

    def _holds(self, group: str) -> bool:
        return any(e.acq.lock.group == group for e in self.held)

    def _blocked(self, what: str, line: int) -> None:
        self.summary.blocking.append(BlockingCall(
            what, tuple(e.acq for e in self.held), self.mod.path, line))

    def _record_callsite(self, call: ast.Call, line: int) -> None:
        callee = self._resolve_callee(call)
        if callee is not None:
            self.summary.calls.append(CallSite(
                callee, tuple(e.acq for e in self.held),
                self.mod.path, line))

    # -- resolution ---------------------------------------------------------------

    def _resolve_lock_expr(self, expr: ast.expr) -> Optional[LockRef]:
        if isinstance(expr, ast.Name):
            if expr.id in self.var_locks:
                return self.var_locks[expr.id]
            module_key = ("<module>", expr.id)
            return self.mod.out.module_locks.get(module_key)
        if isinstance(expr, ast.Attribute):
            owner = self._type_of(expr.value)
            if owner is not None:
                found = self.mod.out.class_locks.get((owner, expr.attr))
                if found is not None:
                    return found
            # `x.lock` where only one class declares the attribute name
            matches = [ref for (cls, attr), ref
                       in self.mod.out.class_locks.items()
                       if attr == expr.attr]
            if len(matches) == 1 and len({
                    (cls, attr) for (cls, attr)
                    in self.mod.out.class_locks if attr == expr.attr}) == 1:
                return matches[0]
        return None

    def _type_of(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.scope or None
            return self.var_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return registry.ATTR_TYPES.get(expr.attr)
        return None

    def _resolve_callee(self, call: ast.Call
                        ) -> Optional[tuple[str, str]]:
        func = call.func
        if isinstance(func, ast.Name):
            return ("", func.id)
        if isinstance(func, ast.Attribute):
            owner = self._type_of(func.value)
            if owner is not None:
                return (owner, func.attr)
        return None

    # -- inference ----------------------------------------------------------------

    def _infer_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = stmt.value
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in registry.LOCK_RETURNING:
                group = registry.LOCK_RETURNING[func.attr]
                ref = _resolve_spec(group, None)
                if ref is not None:
                    self.var_locks[target.id] = ref
                    return
        inferred = self._type_of(value)
        if inferred is not None:
            self.var_types[target.id] = inferred
        ref = self._resolve_lock_expr(value) if not isinstance(
            value, ast.Call) else None
        if ref is not None:
            self.var_locks[target.id] = ref

    def _infer_for_target(self, stmt: ast.For) -> None:
        it = stmt.iter
        # for name, lock in storage.all_writer_locks():
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
                and it.func.attr in registry.PAIR_ITER_LOCKS \
                and isinstance(stmt.target, ast.Tuple) \
                and len(stmt.target.elts) == 2 \
                and isinstance(stmt.target.elts[1], ast.Name):
            group = registry.PAIR_ITER_LOCKS[it.func.attr]
            ref = _resolve_spec(group, None)
            if ref is not None:
                self.var_locks[stmt.target.elts[1].id] = ref
            return
        # for lock in self.locks.values():
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
                and it.func.attr == "values" \
                and isinstance(it.func.value, ast.Attribute) \
                and isinstance(it.func.value.value, ast.Name) \
                and it.func.value.value.id == "self" \
                and isinstance(stmt.target, ast.Name):
            hint = registry.CONTAINER_LOCKS.get(
                (self.scope, it.func.value.attr))
            if hint is not None:
                ref = _resolve_spec(hint, None)
                if ref is not None:
                    self.var_locks[stmt.target.id] = ref

    # -- guarded fields ------------------------------------------------------------

    def _guard_for(self, owner: str, field_name: str) -> Optional[str]:
        from ...concurrency import GUARDED_FIELDS
        for guard in GUARDED_FIELDS:
            if guard.class_name == owner and field_name in guard.fields:
                ref = self.mod.out.class_locks.get(
                    (owner, guard.lock_attr))
                return ref.group if ref is not None else None
        return None

    def _check_guard_write(self, target: ast.expr, line: int) -> None:
        if self.fn.name == "__init__":
            return  # the object is not shared yet
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        owner = self._type_of(node.value)
        if owner is None:
            return
        guard = self._guard_for(owner, node.attr)
        if guard is not None and not self._holds(guard):
            self.mod.out.issues.append(ConcurrencyIssue(
                "guard.unlocked-write",
                f"{owner}.{node.attr} is declared guarded by "
                f"{guard!r} but is mutated without it held",
                self.mod.path, line))

    def _check_mutator_call(self, call: ast.Call, line: int) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in registry.MUTATORS):
            return
        receiver = func.value
        if not isinstance(receiver, ast.Attribute):
            return
        owner = self._type_of(receiver.value)
        if owner is None:
            return
        guard = self._guard_for(owner, receiver.attr)
        if guard is not None and not self._holds(guard):
            self.mod.out.issues.append(ConcurrencyIssue(
                "guard.unlocked-write",
                f"{owner}.{receiver.attr}.{func.attr}() mutates a field "
                f"declared guarded by {guard!r} without it held",
                self.mod.path, line))

    def _check_iterator_escape(self, value: ast.expr, line: int) -> None:
        """``return iter(self.f)`` / ``return self.f.values()`` of a
        guarded field without the guard held leaks a live view."""
        exprs: list[ast.expr] = []
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id == "iter" \
                    and value.args:
                exprs.append(value.args[0])
            elif isinstance(func, ast.Attribute) \
                    and func.attr in registry.LIVE_VIEWS:
                exprs.append(func.value)
        for expr in exprs:
            if not isinstance(expr, ast.Attribute):
                continue
            owner = self._type_of(expr.value)
            if owner is None:
                continue
            guard = self._guard_for(owner, expr.attr)
            if guard is not None and not self._holds(guard):
                self.mod.out.issues.append(ConcurrencyIssue(
                    "guard.iterator-escape",
                    f"returning a live view of {owner}.{expr.attr} "
                    f"(guarded by {guard!r}) without the guard held; "
                    f"copy under the lock instead",
                    self.mod.path, line))


def extract_tree(root: str) -> Extraction:
    """Parse and extract every ``.py`` file under ``root``."""
    out = Extraction()
    modules: list[_ModuleExtractor] = []
    for path in _iter_sources(root):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
        except SyntaxError as exc:
            out.issues.append(ConcurrencyIssue(
                "parse.error", f"cannot parse: {exc}", path,
                exc.lineno or 0))
            continue
        modules.append(_ModuleExtractor(path, tree, out))
    for mod in modules:       # pass 1 first, over every module: lock
        mod.collect_locks()   # identities must be global before pass 2
    for mod in modules:
        mod.extract_functions()
    return out
