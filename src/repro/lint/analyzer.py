"""AST-based LOCAL-model conformance analysis of node programs.

The analyzer runs in two passes.  Pass one parses every ``.py`` file under
the given paths and records, per module: the classes it defines (with their
base-class names), which imported names refer to global graph state (rule
L1), which refer to nondeterminism sources (rule L3), and which
module-level names are bound to mutable objects (rule L2).  Pass two
resolves the transitive subclass closure of :class:`NodeProgram` *by name
across all scanned modules* -- so a program inheriting from an intermediate
helper class is still analyzed -- and walks each such class with
:class:`_MethodVisitor`, emitting :class:`~repro.lint.findings.Finding`
objects for rules L1-L6 and L10.  Rule L6 (starvation hazard) is class-shaped
rather than expression-shaped: a subclass with a non-trivial ``step`` must
either declare ``always_active`` (inherited declarations count), call
``self.wake_next_round()``, or unconditionally finish on its first step
(a top-level ``self.done = True``), otherwise the active-set scheduler of
:class:`~repro.localmodel.network.SyncNetwork` could skip it forever.

Name-based resolution is deliberate: the linter must work on files that
cannot be imported (fixtures with deliberate violations, future node code
with missing optional deps).  The cost is that a class named ``NodeProgram``
from an unrelated library would be picked up; in this repository there is
exactly one.

Annotation subtrees are never visited: ``rng: random.Random`` is a type,
not a use of the ``random`` module.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import NODE_PROGRAM_ROOT, inheriting, node_program_closure
from .findings import Finding, sort_findings
from .suppressions import Suppressions, parse_suppressions

__all__ = [
    "analyze_paths",
    "analyze_source",
    "analyze_modules",
    "active_findings",
    "iter_python_files",
    "load_modules",
    "NODE_PROGRAM_ROOT",
]

#: Names that constitute global graph state when referenced from a node
#: program, regardless of which module they were imported from.
_GRAPH_STATE_NAMES = frozenset({"Graph", "SyncNetwork"})

#: Pure type aliases exported by the graphs package; naming a vertex *type*
#: is not the same as touching the graph, so these never trigger L1.
_TYPE_ALIAS_NAMES = frozenset({"Vertex", "Edge"})

#: Modules whose direct use inside a node program is nondeterministic (or
#: environment-dependent, which is the same violation for round accounting).
_NONDET_MODULES = frozenset({"random", "time", "os", "secrets", "uuid"})

#: Builtins whose results vary across interpreter runs (salted hashing).
_NONDET_BUILTINS = frozenset({"hash", "id"})

#: Calls that build a fresh mutable container at class level / as a default.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Calls that copy their argument, so the result is NOT an aliased message.
_PURIFYING_CALLS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "sorted", "deepcopy", "copy"}
)

#: Fields that carry a node's committed answer (rule L10): the canonical
#: ``output`` slot plus the problem-specific aliases used by the paper's
#: coloring / independent-set programs.
_OUTPUT_FIELDS = frozenset({"output", "color", "in_mis"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_FACTORIES
    return False


def _attr_chain(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty tuple when not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class _ModuleInfo:
    """Everything pass one learns about a single source file."""

    def __init__(self, path: str, tree: ast.Module, suppressions: Suppressions):
        self.path = path
        self.tree = tree
        self.suppressions = suppressions
        self.classes: Dict[str, ast.ClassDef] = {}
        self.base_names: Dict[str, Set[str]] = {}
        self.graph_symbols: Set[str] = set()
        self.nondet_symbols: Set[str] = set()
        self.module_mutables: Set[str] = set()
        self._scan()

    def _scan(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    root = alias.name.split(".")[0]
                    if root in _NONDET_MODULES:
                        self.nondet_symbols.add(bound)
                    if "graphs" in alias.name.split("."):
                        self.graph_symbols.add(bound)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                segments = module.split(".")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if segments and segments[-1] in _NONDET_MODULES:
                        self.nondet_symbols.add(bound)
                    if alias.name in _GRAPH_STATE_NAMES or (
                        "graphs" in segments and alias.name not in _TYPE_ALIAS_NAMES
                    ):
                        self.graph_symbols.add(bound)
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                self.base_names[node.name] = {
                    chain[-1] for base in node.bases if (chain := _attr_chain(base))
                }
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not _is_mutable_literal(value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.module_mutables.add(target.id)


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under ``paths``, skipping caches and build output."""
    out: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & {"__pycache__", ".git", ".pytest_cache"}:
                continue
            if any(p.endswith(".egg-info") for p in candidate.parts):
                continue
            out.append(candidate)
    return out


class _MethodVisitor(ast.NodeVisitor):
    """Walks one method (or nested function) of a node-program class.

    Tracks two name sets as it goes: *neighbor-derived* names (safe keys for
    ``ctx.inbox``) and *message-tainted* names (objects received from the
    inbox, which must not be mutated).  The tracking is a per-method
    forward scan, not a full data-flow analysis -- adequate for the simple
    method bodies node programs should have, and false positives can always
    be suppressed with a ``repro-lint`` comment.
    """

    def __init__(self, checker: "_ClassChecker", func: ast.FunctionDef):
        self.checker = checker
        self.func = func
        self.ctx_names: Set[str] = set()
        self.neighbor_names: Set[str] = set()
        self.tainted: Set[str] = set()
        for arg in list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs):
            annotation = arg.annotation
            chain = _attr_chain(annotation) if annotation is not None else ()
            if arg.arg in ("ctx", "context") or (chain and chain[-1] == "NodeContext"):
                self.ctx_names.add(arg.arg)

    # -- helpers -------------------------------------------------------

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.checker.report(rule, node, message, self.func.name)

    def _is_ctx(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.ctx_names

    def _is_inbox(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "inbox"
            and self._is_ctx(node.value)
        )

    def _is_neighbor_source(self, node: ast.AST) -> bool:
        """Iterables whose elements are legitimate neighbor identifiers."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("keys", "items") and self._is_inbox(node.func.value):
                return True
            return False
        if isinstance(node, ast.Attribute) and node.attr == "neighbors":
            base = node.value
            return self._is_ctx(base) or (isinstance(base, ast.Name) and base.id == "self")
        return self._is_inbox(node)

    def _is_message_source(self, node: ast.AST) -> bool:
        """Expressions that yield (iterables of) received message objects."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "values" and self._is_inbox(node.func.value):
                return True
            if node.func.attr == "get" and self._is_inbox(node.func.value):
                return True
        if isinstance(node, ast.Subscript) and self._is_inbox(node.value):
            return not isinstance(node.ctx, (ast.Store, ast.Del))
        return isinstance(node, ast.Name) and node.id in self.tainted

    def _allowed_inbox_key(self, key: ast.AST) -> bool:
        if isinstance(key, ast.Name):
            return key.id in self.neighbor_names
        return False

    def _bind_loop_target(self, target: ast.AST, source: ast.AST) -> None:
        """Record what names bound by ``for target in source`` mean."""
        items_call = (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Attribute)
            and source.func.attr == "items"
            and self._is_inbox(source.func.value)
        )
        if items_call and isinstance(target, ast.Tuple) and len(target.elts) == 2:
            key_t, value_t = target.elts
            if isinstance(key_t, ast.Name):
                self.neighbor_names.add(key_t.id)
            if isinstance(value_t, ast.Name):
                self.tainted.add(value_t.id)
            return
        if self._is_neighbor_source(source):
            for name in self._bound_names(target):
                self.neighbor_names.add(name)
        elif self._is_message_source(source):
            for name in self._bound_names(target):
                self.tainted.add(name)

    # -- annotation skipping ------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if _is_mutable_literal(default):
                self._report(
                    "L2",
                    default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls and node instances",
                )
            self.visit(default)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign([node.target], node.value)
            self.visit(node.target)
            self.visit(node.value)

    # -- bindings ------------------------------------------------------

    @staticmethod
    def _bound_names(target: ast.AST):
        """Names (re)bound by an assignment target.

        Only plain names and unpacking count: ``x[k] = v`` / ``x.a = v``
        store *into* an object but do not rebind ``x``, so they must not
        change what ``x`` is known to be.
        """
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from _MethodVisitor._bound_names(elt)
        elif isinstance(target, ast.Starred):
            yield from _MethodVisitor._bound_names(target.value)

    def _record_assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        purifying = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _PURIFYING_CALLS
        )
        tainted = not purifying and self._is_message_source(value)
        for target in targets:
            for name in self._bound_names(target):
                if tainted:
                    self.tainted.add(name)
                else:
                    self.tainted.discard(name)
                    self.neighbor_names.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_loop_target(node.target, node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            self._bind_loop_target(gen.target, gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    visit_SetComp = visit_ListComp
    visit_GeneratorExp = visit_ListComp

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    # -- rule checks ---------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.id in self.checker.module.graph_symbols:
                self._report(
                    "L1",
                    node,
                    f"reference to global graph state {node.id!r}; a node may "
                    "only use its ID, neighbor list, and inbox",
                )
            if node.id in self.checker.module.nondet_symbols:
                self._report(
                    "L3",
                    node,
                    f"direct use of nondeterminism source {node.id!r}; inject "
                    "a seeded random.Random through the constructor instead",
                )

    def visit_Global(self, node: ast.Global) -> None:
        self._report(
            "L2",
            node,
            f"global statement ({', '.join(node.names)}) shares module state "
            "between node instances",
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _NONDET_BUILTINS:
            self._report(
                "L3",
                node,
                f"{func.id}() varies between interpreter runs "
                "(salted hashing / object identity)",
            )
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if self._is_inbox(receiver):
                if func.attr == "get":
                    if node.args and not self._allowed_inbox_key(node.args[0]):
                        self._report(
                            "L4",
                            node,
                            "ctx.inbox.get() keyed by something not derived "
                            "from this node's neighborhood",
                        )
                elif func.attr in _MUTATOR_METHODS:
                    self._report(
                        "L5",
                        node,
                        f"ctx.inbox.{func.attr}() mutates the inbox; contexts "
                        "are read-only",
                    )
            elif func.attr in _MUTATOR_METHODS:
                if isinstance(receiver, ast.Name) and receiver.id in self.tainted:
                    self._report(
                        "L5",
                        node,
                        f"{receiver.id}.{func.attr}() mutates a received "
                        "message; messages must be treated as immutable",
                    )
                elif (
                    isinstance(receiver, ast.Name)
                    and receiver.id in self.checker.module.module_mutables
                ):
                    self._report(
                        "L2",
                        node,
                        f"{receiver.id}.{func.attr}() mutates module-level "
                        "state shared between node instances",
                    )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # `x in ctx.inbox` answers a question about x's message even when x
        # is not a neighbor -- the same covert channel as inbox[x].
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.In, ast.NotIn)) and self._is_inbox(right):
                if not self._allowed_inbox_key(left):
                    self._report(
                        "L4",
                        node,
                        "membership test against ctx.inbox with a key not "
                        "derived from this node's neighborhood",
                    )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_inbox(node.value):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self._report("L5", node, "assignment into ctx.inbox; contexts are read-only")
            elif not self._allowed_inbox_key(node.slice):
                self._report(
                    "L4",
                    node,
                    "ctx.inbox subscripted by something not derived from this "
                    "node's neighborhood",
                )
        elif isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
            if isinstance(base, ast.Name) and base.id in self.tainted:
                self._report(
                    "L5",
                    node,
                    f"item assignment into received message {base.id!r}; "
                    "messages must be treated as immutable",
                )
            elif isinstance(base, ast.Name) and base.id in self.checker.module.module_mutables:
                self._report(
                    "L2",
                    node,
                    f"item assignment into module-level {base.id!r} shares "
                    "state between node instances",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and self._is_ctx(node.value):
            self._report(
                "L5",
                node,
                f"assignment to ctx.{node.attr}; contexts are read-only views",
            )
        self.generic_visit(node)

    # Annotations on nested assignments/arguments are skipped via the
    # overridden visit_FunctionDef / visit_AnnAssign above; Return/other
    # statements carry no annotations.


def _declares_always_active(node: ast.ClassDef) -> bool:
    """Does the class body assign ``always_active`` (either value)?"""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "always_active" for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "always_active":
                return True
    return False


def _sets_done_unconditionally(step: ast.FunctionDef) -> bool:
    """Does ``step`` assign ``self.done = True`` at the top level of its body?

    Such a program finishes on its very first step; since round 0
    schedules every node, it can never be starved by the active-set
    scheduler, whatever its inbox handling looks like.
    """
    for stmt in step.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if stmt.value.value is True:
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "done"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
    return False


def _declares_repairable(node: ast.ClassDef) -> bool:
    """Does the class body assign ``repairable`` (either value)?"""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "repairable" for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "repairable":
                return True
    return False


def _is_self_field_store(node: ast.AST, fields: FrozenSet[str]) -> Optional[str]:
    """The field name when ``node`` is a ``self.<field> = ...`` target."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in fields
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_done_attr(node: ast.AST) -> bool:
    """Is ``node`` a load of ``self.done``?"""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "done"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _tests_done_true(test: ast.AST) -> bool:
    """Does ``test`` assert that ``self.done`` is (already) truthy?

    Matches ``self.done``, ``self.done and ...`` (any operand), and
    ``self.done == True`` / ``self.done is True``.
    """
    if _is_done_attr(test):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_tests_done_true(value) for value in test.values)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], (ast.Eq, ast.Is)):
            left, right = test.left, test.comparators[0]
            literal_true = isinstance(right, ast.Constant) and right.value is True
            return _is_done_attr(left) and literal_true
    return False


def _tests_done_false(test: ast.AST) -> bool:
    """Does ``test`` assert that ``self.done`` is falsy (``not self.done``)?"""
    return (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and _is_done_attr(test.operand)
    )


def _halted_output_writes(func: ast.FunctionDef) -> List[Tuple[ast.AST, str]]:
    """Rule L10 core: output-field stores under a ``self.done`` guard.

    Setting ``self.output`` in the same step invocation that sets
    ``self.done = True`` is the normal commit idiom -- outputs take
    effect when ``step`` returns.  What L10 flags is a store to
    ``self.output`` / ``self.color`` / ``self.in_mis`` inside a branch
    that is only reached when ``self.done`` is *already* true (the node
    halted in an earlier round): ``if self.done: self.output = ...`` or
    the ``else`` arm of ``if not self.done: ...``.  Such a write revises
    a committed answer, which only the repair protocol may do.
    """
    hits: List[Tuple[ast.AST, str]] = []

    def stores_in(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            for sub in ast.walk(stmt):
                targets: List[ast.AST] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                for target in targets:
                    field = _is_self_field_store(target, _OUTPUT_FIELDS)
                    if field is not None:
                        hits.append((sub, field))

    for node in ast.walk(func):
        if isinstance(node, (ast.If, ast.While)):
            if _tests_done_true(node.test):
                stores_in(node.body)
            elif _tests_done_false(node.test) and node.orelse:
                stores_in(node.orelse)

    return hits


def _calls_wake_next_round(step: ast.FunctionDef) -> bool:
    for node in ast.walk(step):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wake_next_round"
        ):
            return True
    return False


def _step_is_trivial(step: ast.FunctionDef) -> bool:
    """A ``step`` that only returns an empty mapping cannot act on silence."""
    body = step.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    if value is None:
        return True
    if isinstance(value, ast.Dict) and not value.keys:
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
        and not value.args
        and not value.keywords
    )


class _ClassChecker:
    """Applies rules L1-L6 and L10 to one NodeProgram subclass definition."""

    def __init__(
        self,
        module: _ModuleInfo,
        node: ast.ClassDef,
        findings: List[Finding],
        inherits_always_active: bool = False,
        inherits_repairable: bool = False,
    ):
        self.module = module
        self.node = node
        self.findings = findings
        self.inherits_always_active = inherits_always_active
        self.inherits_repairable = inherits_repairable

    def report(self, rule: str, at: ast.AST, message: str, method: str = "") -> None:
        line = getattr(at, "lineno", self.node.lineno)
        col = getattr(at, "col_offset", 0)
        symbol = f"{self.node.name}.{method}" if method else self.node.name
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.path,
                line=line,
                col=col,
                message=message,
                symbol=symbol,
                suppressed=self.module.suppressions.is_suppressed(rule, line),
            )
        )

    def run(self) -> None:
        step: Optional[ast.FunctionDef] = None
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "step":
                    step = stmt
                visitor = _MethodVisitor(self, stmt)
                visitor.visit_FunctionDef(stmt)
                if isinstance(stmt, ast.FunctionDef):
                    self._check_halted_writes(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is not None and _is_mutable_literal(value):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    )
                    names = ", ".join(
                        t.id for t in targets if isinstance(t, ast.Name)
                    ) or "<attribute>"
                    self.report(
                        "L2",
                        value,
                        f"mutable class-level attribute {names} is shared by "
                        "every node instance; initialize it in __init__",
                    )
        self._check_starvation(step)

    def _check_halted_writes(self, func: ast.FunctionDef) -> None:
        """Rule L10: committed outputs only reopen inside a repair envelope."""
        if _declares_repairable(self.node) or self.inherits_repairable:
            return
        for at, field in _halted_output_writes(func):
            self.report(
                "L10",
                at,
                f"self.{field} stored under an `if self.done` guard; a "
                "halted node's outputs are committed -- declare "
                "repairable = True (the RepairableProgram envelope) if this "
                "program revises committed outputs under repair",
                method=func.name,
            )

    def _check_starvation(self, step: Optional[ast.FunctionDef]) -> None:
        """Rule L6: a step that may act on silence needs a declaration."""
        if step is None or _step_is_trivial(step):
            return
        if _declares_always_active(self.node) or self.inherits_always_active:
            return
        if _calls_wake_next_round(step) or _sets_done_unconditionally(step):
            return
        self.report(
            "L6",
            step,
            f"{self.node.name}.step() may act on silence but the class does "
            "not declare always_active; the active-set scheduler would skip "
            "it in rounds where it receives nothing -- declare "
            "always_active = True (or False for purely event-driven "
            "programs) or call self.wake_next_round()",
            method="step",
        )


def _declarers(
    modules: Sequence[_ModuleInfo], declares: "Callable[[ast.ClassDef], bool]"
) -> Set[str]:
    """Class names satisfying ``declares``, own or inherited (by name)."""
    return inheriting(
        modules,
        {
            name
            for info in modules
            for name, node in info.classes.items()
            if declares(node)
        },
    )


def _analyze_modules(modules: Sequence[_ModuleInfo]) -> List[Finding]:
    # bandwidth imports dataflow which is analyzer-independent; importing
    # here (not at module top) keeps the public import graph acyclic
    from .bandwidth import bandwidth_findings

    findings: List[Finding] = []
    declarers = _declarers(modules, _declares_always_active)
    repairers = _declarers(modules, _declares_repairable)
    for info, node in node_program_closure(modules):
        _ClassChecker(
            info,
            node,
            findings,
            inherits_always_active=node.name in declarers,
            inherits_repairable=node.name in repairers,
        ).run()
    findings.extend(bandwidth_findings(modules))
    return sort_findings(findings)


def load_modules(paths: Iterable[Path]) -> List[_ModuleInfo]:
    """Pass one alone: parse every file under ``paths`` into module infos.

    The result feeds both :func:`_analyze_modules` and the bandwidth
    certifier (``repro lint --congest``), so a combined run parses each
    file exactly once.
    """
    modules: List[_ModuleInfo] = []
    for file in iter_python_files(paths):
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
        modules.append(_ModuleInfo(str(file), tree, parse_suppressions(source, str(file))))
    return modules


def analyze_modules(modules: Sequence[_ModuleInfo]) -> List[Finding]:
    """Pass two over already-loaded modules (rules L1-L10, sorted findings).

    Separated from :func:`analyze_paths` so a caller holding the modules
    -- e.g. the CLI, which also needs them for the bandwidth certificate
    table and for stale-suppression reporting -- parses each file once.
    """
    return _analyze_modules(modules)


def analyze_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint every NodeProgram subclass found under ``paths``.

    Returns all findings, including suppressed ones (marked as such);
    filter with :func:`active_findings` for the pass/fail decision.
    Unparseable files raise ``SyntaxError`` -- a file the linter cannot
    read is a build problem, not a lint finding.
    """
    return _analyze_modules(load_modules(paths))


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint a single in-memory module (test/tooling convenience)."""
    tree = ast.parse(source, filename=path)
    info = _ModuleInfo(path, tree, parse_suppressions(source, path))
    return _analyze_modules([info])


def active_findings(findings: Iterable[Finding]) -> List[Finding]:
    return [f for f in findings if not f.suppressed]
