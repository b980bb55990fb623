"""Interprocedural message-size dataflow over ``NodeProgram`` classes.

The LOCAL model charges rounds and lets messages grow without bound; the
CONGEST model caps every message at O(log n) bits.  Every quantitative
claim this repository reproduces silently assumes something in between:
node programs may ship their gathered balls (Konrad-Zamaraev's
``collect Gamma^{10k}(v)`` primitive) but nothing *more* -- no payloads
that keep growing after the declared gathering radius, and no payload
whose bytes depend on the schedule.  This module is the static half of
that check: an abstract interpreter that traces dataflow from
``ctx.inbox`` into ``send``/return payloads and classifies each
program's per-round message size.

Abstract domain
---------------

Every expression evaluates to one of three sizes, ordered
``WORD < MSG < ACC``:

* ``WORD`` -- O(1) machine words: constants, IDs, round numbers, and
  anything reached through arithmetic, comparisons, or aggregators
  (``len``/``sum``/``min``/``max``/...).  Fixed-arity tuples of words
  are words.
* ``MSG`` -- a single received payload (or a value unpacked from one),
  forwarded opaquely.  Forwarding is size-preserving: a system in which
  every program ships words stays O(1) under forwarding, so ``MSG``
  certifies *no amplification* rather than an absolute bound.  The
  certificate records the assumption.
* ``ACC`` -- a container holding received payloads: either a capture of
  a whole round's inbox (``dict(ctx.inbox)``, ``list(ctx.inbox.values())``)
  or an attribute that *accumulates* inbox-derived state across rounds
  (``self.known.update(...)``).  Re-broadcasting ``ACC`` data compounds
  round over round -- that is ball growth when a round horizon bounds it
  and unbounded growth when nothing does.

Interprocedural analysis: helper methods and module-level functions are
summarized on demand -- the summary of ``f`` is the abstract size of its
return value as a function of its argument sizes, memoized per call
signature, with recursion conservatively pinned to ``ACC``.  That is what
lets :class:`~repro.localmodel.colorreduction.LinialPathProgram` (whose
payload passes through ``linial_new_color``) classify as O(1) words.

Horizon detection: a payload site carrying ``ACC`` data is *bounded*
when it is guarded by a round-horizon cutoff -- a top-level
``if ctx.round_number >= self.X: ... return`` in ``step`` before the
send, or an enclosing ``if ctx.round_number < self.X:``.  The attribute
``X`` is the program's flooding horizon; when the program also declares
a ``radius`` attribute, the horizon must *be* ``self.radius`` or the
payload encodes state older than the declared radius (rule L8).

The classifier is deliberately one-sided: it may over-approximate
(``static class >= observed growth class``, cross-validated against
:class:`~repro.localmodel.meter.MessageMeter` measurements in the test
suite) but shipped programs must never measure above their certificate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "WORD",
    "MSG",
    "ACC",
    "SIZE_NAMES",
    "PayloadSite",
    "OrderHazard",
    "AccumulatorInfo",
    "ClassDataflow",
    "ModuleLike",
    "analyze_dataflow",
    "inheriting",
    "node_program_closure",
    "NODE_PROGRAM_ROOT",
]

#: Abstract sizes, ordered: O(1) words < one forwarded message < an
#: accumulated/captured collection of messages.
WORD, MSG, ACC = 0, 1, 2

SIZE_NAMES = {WORD: "words", MSG: "forwarded-message", ACC: "accumulated-state"}

#: The root of the subclass closure every lint pass walks.
NODE_PROGRAM_ROOT = "NodeProgram"

#: Aggregating builtins whose result is O(1) words whatever the argument.
_WORD_CALLS = frozenset(
    {
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "abs",
        "round",
        "int",
        "float",
        "bool",
        "str",
        "repr",
        "ord",
        "chr",
        "isinstance",
        "hasattr",
        "getattr",
        "range",
        "enumerate",
        "zip",
        "divmod",
        "pow",
    }
)

#: Size-preserving container constructors / copies.
_PRESERVING_CALLS = frozenset(
    {"list", "tuple", "set", "frozenset", "dict", "sorted", "reversed", "copy", "deepcopy"}
)

#: Receiver methods that grow a container in place.
_GROW_METHODS = frozenset(
    {"update", "add", "append", "extend", "insert", "setdefault"}
)

#: Receiver methods that yield a single element of the container.
_ELEMENT_METHODS = frozenset({"get", "pop", "popitem"})


class ModuleLike:
    """Structural type for what the analyzer's pass one records per file.

    Any object with these attributes works (the analyzer's ``_ModuleInfo``
    does); this lightweight mirror keeps the import direction
    ``analyzer -> bandwidth -> dataflow`` acyclic.
    """

    path: str
    tree: ast.Module
    classes: Dict[str, ast.ClassDef]
    base_names: Dict[str, Set[str]]


@dataclass(frozen=True)
class PayloadSite:
    """One expression whose value reaches the wire."""

    line: int
    col: int
    size: int  # WORD / MSG / ACC
    bounded_by: Optional[str]  # horizon attribute name, when round-bounded
    description: str


@dataclass(frozen=True)
class OrderHazard:
    """One schedule-dependence hazard (rule L9)."""

    line: int
    col: int
    method: str
    description: str


@dataclass(frozen=True)
class AccumulatorInfo:
    """One attribute that grows across rounds."""

    attr: str
    line: int
    inbox_fed: bool  # grew from inbox-derived data (vs local data)


@dataclass
class ClassDataflow:
    """Everything the bandwidth certifier needs about one program class."""

    name: str
    path: str
    line: int
    has_step: bool = False
    sends: bool = False
    payload_sites: List[PayloadSite] = field(default_factory=list)
    accumulators: Dict[str, AccumulatorInfo] = field(default_factory=dict)
    order_hazards: List[OrderHazard] = field(default_factory=list)
    declares_radius: bool = False
    radius_line: int = 0
    horizons: List[str] = field(default_factory=list)

    @property
    def max_payload_size(self) -> int:
        return max((s.size for s in self.payload_sites), default=WORD)


# ---------------------------------------------------------------------------
# class resolution (subclass closure + inherited method lookup)
# ---------------------------------------------------------------------------

def inheriting(modules: Sequence[ModuleLike], names: Set[str]) -> Set[str]:
    """``names`` plus every scanned class inheriting from one, by name.

    Name-based and transitive across modules: the linter must work on
    files that cannot be imported.
    """
    known = set(names)
    changed = True
    while changed:
        changed = False
        for info in modules:
            for name, bases in info.base_names.items():
                if name not in known and bases & known:
                    known.add(name)
                    changed = True
    return known


def node_program_closure(
    modules: Sequence[ModuleLike],
) -> List[Tuple[ModuleLike, ast.ClassDef]]:
    """Every (module, class) definition in the NodeProgram subclass closure.

    Both the conformance analyzer and the bandwidth certifier walk this
    list, so the two passes always agree on what counts as a node program.
    """
    known = inheriting(modules, {NODE_PROGRAM_ROOT})
    return [
        (info, node)
        for info in modules
        for name, node in info.classes.items()
        if name in known and name != NODE_PROGRAM_ROOT
    ]


def _method_resolution(
    cls: ast.ClassDef,
    classes: Dict[str, ast.ClassDef],
) -> Dict[str, ast.FunctionDef]:
    """Own methods first, then depth-first through named bases."""
    resolved: Dict[str, ast.FunctionDef] = {}
    seen: Set[str] = set()

    def visit(node: ast.ClassDef) -> None:
        if node.name in seen:
            return
        seen.add(node.name)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name not in resolved:
                resolved[stmt.name] = stmt
        for base in node.bases:
            base_name = _tail_name(base)
            if base_name and base_name in classes:
                visit(classes[base_name])

    visit(cls)
    return resolved


def _tail_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value  # type: ignore[assignment]
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# the abstract interpreter
# ---------------------------------------------------------------------------

class _ClassAnalysis:
    """Drives the two analysis phases for one NodeProgram subclass."""

    def __init__(
        self,
        module: ModuleLike,
        cls: ast.ClassDef,
        classes: Dict[str, ast.ClassDef],
        functions: Dict[str, ast.FunctionDef],
    ):
        self.module = module
        self.cls = cls
        self.classes = classes
        self.functions = functions  # module-level functions by name
        self.methods = _method_resolution(cls, classes)
        self.attr_sizes: Dict[str, int] = {}
        self.set_attrs: Set[str] = set()  # attributes known to hold sets
        self.result = ClassDataflow(name=cls.name, path=module.path, line=cls.lineno)
        self._summary_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._summary_stack: Set[Tuple[int, Tuple[int, ...]]] = set()

    # -- entry ----------------------------------------------------------

    def run(self) -> ClassDataflow:
        step = self.methods.get("step")
        self.result.has_step = step is not None
        self._detect_radius()
        # Phase 1: attribute sizes + accumulators, to a (cheap) fixed point.
        for _ in range(4):
            before = (dict(self.attr_sizes), set(self.set_attrs))
            for name, method in self.methods.items():
                _MethodFlow(self, method, collect_payloads=False).walk()
            if (dict(self.attr_sizes), set(self.set_attrs)) == before:
                break
        # Phase 2: payload sites + order hazards.
        for name, method in self.methods.items():
            _MethodFlow(
                self,
                method,
                collect_payloads=(name == "step"),
                report_hazards=True,
            ).walk()
        self.result.sends = bool(self.result.payload_sites)
        return self.result

    def _detect_radius(self) -> None:
        """Does the class (or a base) declare a ``radius`` attribute?"""
        for stmt in self.cls.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for t in targets:
                    if isinstance(t, ast.Name) and t.id == "radius":
                        self.result.declares_radius = True
                        self.result.radius_line = stmt.lineno
        for method in self.methods.values():
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        if _is_self_attr(t) == "radius":
                            self.result.declares_radius = True
                            self.result.radius_line = node.lineno

    # -- attribute environment -----------------------------------------

    def join_attr(self, attr: str, size: int) -> None:
        if size > self.attr_sizes.get(attr, WORD):
            self.attr_sizes[attr] = size

    def mark_accumulator(self, attr: str, line: int, inbox_fed: bool) -> None:
        self.join_attr(attr, ACC)
        existing = self.result.accumulators.get(attr)
        if existing is None or (inbox_fed and not existing.inbox_fed):
            self.result.accumulators[attr] = AccumulatorInfo(attr, line, inbox_fed)

    # -- interprocedural summaries -------------------------------------

    def callee(self, name: str) -> Optional[ast.FunctionDef]:
        return self.functions.get(name)

    def summarize(self, func: ast.FunctionDef, arg_sizes: Tuple[int, ...]) -> int:
        """Abstract size of ``func``'s return value for these argument sizes.

        Recursion (direct or mutual) conservatively returns ``ACC`` so the
        certificate can only over-approximate.
        """
        key = (id(func), arg_sizes)
        if key in self._summary_cache:
            return self._summary_cache[key]
        if key in self._summary_stack:
            return ACC
        self._summary_stack.add(key)
        try:
            flow = _MethodFlow(self, func, collect_payloads=False)
            params = [a.arg for a in func.args.posonlyargs + func.args.args]
            if params and params[0] == "self":
                params = params[1:]
            for param, size in zip(params, arg_sizes):
                flow.names[param] = size
            size = flow.return_size()
        finally:
            self._summary_stack.discard(key)
        self._summary_cache[key] = size
        return size


class _MethodFlow(ast.NodeVisitor):
    """Forward scan of one method under the WORD/MSG/ACC domain."""

    def __init__(
        self,
        analysis: _ClassAnalysis,
        func: ast.FunctionDef,
        collect_payloads: bool,
        report_hazards: bool = False,
    ):
        self.analysis = analysis
        self.func = func
        self.collect_payloads = collect_payloads
        self.report_hazards = report_hazards
        self.names: Dict[str, int] = {}
        self.set_names: Set[str] = set()
        #: names bound to dict literals inside this method -- candidate
        #: outboxes whose item-assignments carry payloads
        self.outbox_names: Dict[str, List[ast.expr]] = {}
        #: local name -> instance attribute it aliases (``states =
        #: self._states``); growth through the alias must charge the attr
        self.attr_aliases: Dict[str, str] = {}
        self.ctx_names: Set[str] = set()
        self._returns: List[int] = []
        #: the horizon attribute in force for statements after a top-level
        #: ``if ctx.round_number >= self.X: ... return`` cutoff in step
        self._cutoff_attr: Optional[str] = None
        #: horizon from an enclosing ``if ctx.round_number < self.X`` guard
        self._guard_stack: List[str] = []
        for arg in list(func.args.posonlyargs) + list(func.args.args):
            if arg.arg in ("ctx", "context"):
                self.ctx_names.add(arg.arg)
        self.is_init = func.name == "__init__"

    # -- driving --------------------------------------------------------

    def walk(self) -> None:
        for stmt in self.func.body:
            self._visit_toplevel(stmt)

    def return_size(self) -> int:
        self.walk()
        return max(self._returns, default=WORD)

    def _visit_toplevel(self, stmt: ast.stmt) -> None:
        cutoff = self._round_cutoff(stmt)
        if cutoff is not None:
            # statements *inside* the cutoff body run past the horizon;
            # statements after it are bounded by the horizon
            self.visit(stmt)
            self._cutoff_attr = cutoff
            return
        self.visit(stmt)

    def _round_cutoff(self, stmt: ast.stmt) -> Optional[str]:
        """``if ctx.round_number >= self.X: ... return`` -> ``X``."""
        if not isinstance(stmt, ast.If) or stmt.orelse:
            return None
        attr = self._horizon_test(stmt.test, past=True)
        if attr is None:
            return None
        sets_done = any(
            isinstance(s, ast.Assign)
            and any(_is_self_attr(t) == "done" for t in s.targets)
            for s in ast.walk(stmt)
            if isinstance(s, ast.Assign)
        )
        returns = any(isinstance(s, ast.Return) for s in ast.walk(stmt))
        if sets_done and returns:
            return attr
        return None

    def _horizon_test(self, test: ast.expr, past: bool) -> Optional[str]:
        """Match ``ctx.round_number <cmp> self.X`` (or reversed).

        ``past=True`` matches the "horizon reached" direction
        (``>=``/``>``), ``past=False`` the "still inside" direction
        (``<``/``<=``).
        """
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        fwd = (ast.GtE, ast.Gt) if past else (ast.Lt, ast.LtE)
        rev = (ast.Lt, ast.LtE) if past else (ast.GtE, ast.Gt)
        if self._is_round_number(left) and isinstance(op, fwd):
            return _is_self_attr(right)
        if self._is_round_number(right) and isinstance(op, rev):
            return _is_self_attr(left)
        return None

    def _is_round_number(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "round_number"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.ctx_names
        )

    # -- inbox recognizers ---------------------------------------------

    def _is_inbox(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "inbox"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.ctx_names
        )

    def _is_inbox_view(self, node: ast.AST) -> bool:
        """``ctx.inbox`` or ``ctx.inbox.values()/items()/keys()``."""
        if self._is_inbox(node):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "items", "keys")
            and self._is_inbox(node.func.value)
        )

    # -- the size function ---------------------------------------------

    def size_of(self, node: ast.expr) -> int:
        if isinstance(node, ast.Constant):
            return WORD
        if isinstance(node, ast.Name):
            return self.names.get(node.id, WORD)
        if isinstance(node, ast.Attribute):
            attr = _is_self_attr(node)
            if attr is not None:
                return self.analysis.attr_sizes.get(attr, WORD)
            if self._is_inbox(node):
                return ACC
            return WORD
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return max((self.size_of(e) for e in node.elts), default=WORD)
        if isinstance(node, ast.Dict):
            sizes = [self.size_of(v) for v in node.values if v is not None]
            sizes += [self.size_of(k) for k in node.keys if k is not None]
            return max(sizes, default=WORD)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_size(node.elt, node.generators)
        if isinstance(node, ast.DictComp):
            return max(
                self._comprehension_size(node.key, node.generators),
                self._comprehension_size(node.value, node.generators),
            )
        if isinstance(node, ast.Call):
            return self._call_size(node)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
                # set algebra and concatenation are size-preserving in
                # their operands: a union/difference of message containers
                # is still message-container-sized
                return max(self.size_of(node.left), self.size_of(node.right))
            return WORD
        if isinstance(node, (ast.UnaryOp, ast.Compare, ast.BoolOp)):
            # arithmetic/logic yields scalars
            return WORD
        if isinstance(node, ast.IfExp):
            return max(self.size_of(node.body), self.size_of(node.orelse))
        if isinstance(node, ast.Subscript):
            if self._is_inbox(node.value):
                return MSG
            base = self.size_of(node.value)
            return MSG if base >= MSG else WORD
        if isinstance(node, ast.Starred):
            return self.size_of(node.value)
        if isinstance(node, ast.JoinedStr):
            return WORD
        return WORD

    def _elem_size(self, iterable: ast.expr) -> int:
        """Size of one element drawn from ``iterable``."""
        if self._is_inbox_view(iterable):
            return MSG
        size = self.size_of(iterable)
        return MSG if size >= MSG else WORD

    def _comprehension_size(self, elt: ast.expr, generators) -> int:
        saved = dict(self.names)
        capture = False
        for gen in generators:
            if self._is_inbox_view(gen.iter) or self.size_of(gen.iter) >= ACC:
                capture = True
            self._bind_target(gen.target, self._elem_size(gen.iter))
        size = self.size_of(elt)
        self.names = saved
        if capture and size >= MSG:
            # a (filtered) copy of accumulated state -- or of the whole
            # inbox -- is still accumulated state, matching the
            # ``list(ctx.inbox.values())`` capture rule
            return ACC
        return size

    def _call_size(self, node: ast.Call) -> int:
        name = _call_name(node)
        if name in _WORD_CALLS:
            return WORD
        if name in _PRESERVING_CALLS:
            if not node.args:
                return WORD
            arg = node.args[0]
            if self._is_inbox_view(arg):
                return ACC  # whole-inbox capture
            return self.size_of(arg)
        # self.broadcast(E) / self.helper(...) -- method dispatch
        if isinstance(node.func, ast.Attribute):
            recv_attr = _is_self_attr(node.func)
            if recv_attr == "broadcast" and node.args:
                return self.size_of(node.args[0])
            if recv_attr is not None and recv_attr in self.analysis.methods:
                args = tuple(self.size_of(a) for a in node.args)
                return self.analysis.summarize(self.analysis.methods[recv_attr], args)
            if node.func.attr in _ELEMENT_METHODS:
                base = self.size_of(node.func.value)
                if self._is_inbox(node.func.value):
                    return MSG
                return MSG if base >= MSG else WORD
            if node.func.attr in ("items", "values", "keys"):
                # dict views are size-preserving windows onto the dict
                base = self.size_of(node.func.value)
                if base >= MSG:
                    return base
            # unknown method on some object (rng.choice, str.join, ...):
            # assume scalar unless an argument is a message container
            return WORD
        if name is not None:
            callee = self.analysis.callee(name)
            if callee is not None:
                args = tuple(self.size_of(a) for a in node.args)
                return self.analysis.summarize(callee, args)
        return WORD

    # -- bindings -------------------------------------------------------

    def _bind_target(self, target: ast.AST, size: int, is_set: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.names[target.id] = size
            self.attr_aliases.pop(target.id, None)
            if is_set:
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # unpacking a message yields message parts
            part = size if size <= MSG else MSG
            for elt in target.elts:
                self._bind_target(elt, part)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, size)

    def _is_growing_rebind(self, value: ast.expr, attr: str, size: int) -> bool:
        """Does ``self.attr = value`` grow ``attr`` rather than replace it?

        Two shapes count: concatenation/union that splices the old value
        together with a container (``self.X = self.X + [item]``,
        ``self.X = self.X | other``), and re-binding the attribute to a
        message-container-sized expression that still contains the old
        value (``self.X = dict(self.X, **ctx.inbox)``).
        """
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.BitOr)):
            sides = (value.left, value.right)
            if any(_references_self_attr(s, attr) for s in sides):
                other = sides[1] if _references_self_attr(sides[0], attr) else sides[0]
                return (
                    isinstance(other, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                                       ast.ListComp, ast.DictComp, ast.SetComp))
                    or self._is_set_valued(other)
                    or self.size_of(other) >= MSG
                )
        return size >= ACC and _references_self_attr(value, attr)

    def _is_set_valued(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        attr = _is_self_attr(node)
        if attr is not None:
            return attr in self.analysis.set_attrs
        if isinstance(node, ast.Call):
            return _call_name(node) in ("set", "frozenset")
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        size = self.size_of(node.value)
        is_set = self._is_set_valued(node.value)
        grew = False
        for target in node.targets:
            attr = _is_self_attr(target)
            if attr is not None:
                # self.X = self.X + [...] style growth: re-binding that
                # references the old value AND splices in more data counts
                # as accumulation.  self.x = f(self.x, ...) with a scalar
                # result is an ordinary state update, not growth.
                if not self.is_init and self._is_growing_rebind(node.value, attr, size):
                    self.analysis.mark_accumulator(
                        attr, node.lineno, inbox_fed=size >= MSG
                    )
                    grew = True
                else:
                    self.analysis.join_attr(attr, size)
                if is_set:
                    self.analysis.set_attrs.add(attr)
            elif isinstance(target, ast.Subscript):
                base_attr = _is_self_attr(target.value)
                if base_attr is not None and not self.is_init:
                    # self.X[k] = v grows X across rounds
                    self.analysis.mark_accumulator(
                        base_attr,
                        node.lineno,
                        inbox_fed=self.size_of(node.value) >= MSG
                        or self.size_of(target.slice) >= MSG,
                    )
                    grew = True
                elif isinstance(target.value, ast.Name):
                    base_name = target.value.id
                    if base_name in self.outbox_names:
                        self.outbox_names[base_name].append(node.value)
                    # filling a local container: a dict/set holding
                    # message-derived entries is accumulated state
                    self._join_local_container(base_name, size)
                    alias = self.attr_aliases.get(base_name)
                    if alias is not None and not self.is_init:
                        # growth through a local alias (states[k] = v
                        # after states = self._states) charges the attr
                        self.analysis.mark_accumulator(
                            alias,
                            node.lineno,
                            inbox_fed=size >= MSG
                            or self.size_of(target.slice) >= MSG,
                        )
            else:
                self._bind_target(target, size, is_set)
                if isinstance(target, ast.Name):
                    value_attr = _is_self_attr(node.value)
                    if value_attr is not None:
                        self.attr_aliases[target.id] = value_attr
        if (
            not grew
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Dict)
            and not node.value.keys
        ):
            self.outbox_names[node.targets[0].id] = []
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        size = self.size_of(node.value)
        attr = _is_self_attr(node.target)
        if attr is not None:
            self.analysis.join_attr(attr, size)
            if self._is_set_valued(node.value):
                self.analysis.set_attrs.add(attr)
        elif isinstance(node.target, ast.Name):
            self._bind_target(node.target, size, self._is_set_valued(node.value))
            value_attr = _is_self_attr(node.value)
            if value_attr is not None:
                self.attr_aliases[node.target.id] = value_attr
            # an annotated ``outbox: Dict[...] = {}`` is an outbox
            # candidate exactly like its unannotated twin
            if isinstance(node.value, ast.Dict) and not node.value.keys:
                self.outbox_names[node.target.id] = []
        self.visit(node.value)

    def _join_local_container(self, name: str, element_size: int) -> None:
        """A local container absorbing an element of ``element_size``.

        Collecting message-derived elements turns the container into
        accumulated state (the WORD/MSG/ACC domain has no "bounded
        collection of messages" point, and the certificate must only
        over-approximate); collecting words leaves the size unchanged.
        """
        if element_size >= MSG:
            self.names[name] = ACC


    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _is_self_attr(node.target)
        size = self.size_of(node.value)
        if attr is not None and not self.is_init:
            if isinstance(node.op, (ast.BitOr, ast.Add)) and (
                size >= MSG
                or self._is_set_valued(node.value)
                or isinstance(node.value, (ast.List, ast.Dict, ast.Set, ast.Call))
            ):
                self.analysis.mark_accumulator(attr, node.lineno, inbox_fed=size >= MSG)
            else:
                self.analysis.join_attr(attr, size)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        iterable = node.iter
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr == "items"
            and self._is_inbox(iterable.func.value)
            and isinstance(node.target, ast.Tuple)
            and len(node.target.elts) == 2
        ):
            self._bind_target(node.target.elts[0], WORD)  # neighbor id
            self._bind_target(node.target.elts[1], MSG)
        else:
            self._bind_target(node.target, self._elem_size(iterable))
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_If(self, node: ast.If) -> None:
        guard = self._horizon_test(node.test, past=False)
        self.visit(node.test)
        if guard is not None:
            self._guard_stack.append(guard)
        for stmt in node.body:
            self.visit(stmt)
        if guard is not None:
            self._guard_stack.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    # -- growth through mutators ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            attr = _is_self_attr(node.func.value)
            if (
                attr is not None
                and node.func.attr in _GROW_METHODS
                and not self.is_init
            ):
                arg_size = max((self.size_of(a) for a in node.args), default=WORD)
                inbox_fed = arg_size >= MSG or any(
                    self._is_inbox_view(a) for a in node.args
                )
                self.analysis.mark_accumulator(attr, node.lineno, inbox_fed)
            elif (
                isinstance(node.func.value, ast.Name)
                and node.func.attr in _GROW_METHODS
                and not self.is_init
            ):
                # growing a local container with message-derived data
                arg_size = max((self.size_of(a) for a in node.args), default=WORD)
                if any(self._is_inbox_view(a) for a in node.args):
                    arg_size = ACC
                base_name = node.func.value.id
                self._join_local_container(base_name, arg_size)
                alias = self.attr_aliases.get(base_name)
                if alias is not None:
                    # edges.update(...) after edges = self._edges grows
                    # the aliased attribute across rounds
                    self.analysis.mark_accumulator(
                        alias, node.lineno, inbox_fed=arg_size >= MSG
                    )
        if self.report_hazards:
            self._check_order_hazards(node)
        self.generic_visit(node)

    # -- payload collection --------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._returns.append(self.size_of(node.value))
            if self.collect_payloads:
                self._collect_payloads(node.value)
        self.generic_visit(node)

    def _current_horizon(self) -> Optional[str]:
        if self._guard_stack:
            return self._guard_stack[-1]
        return self._cutoff_attr

    def _collect_payloads(self, value: ast.expr) -> None:
        """Record the payload expressions shipped by a ``return`` in step."""
        for expr, desc in self._payload_exprs(value):
            size = self.size_of(expr)
            if size == WORD and not _contains_inbox_use(expr, self):
                # pure O(1)-word payloads are recorded once per site too,
                # so the certificate can show what the program ships
                pass
            self.analysis.result.payload_sites.append(
                PayloadSite(
                    line=expr.lineno,
                    col=expr.col_offset,
                    size=size,
                    bounded_by=self._current_horizon(),
                    description=desc,
                )
            )

    def _payload_exprs(self, value: ast.expr) -> List[Tuple[ast.expr, str]]:
        out: List[Tuple[ast.expr, str]] = []
        if isinstance(value, ast.Dict):
            for v in value.values:
                if v is not None:
                    out.append((v, _describe(v)))
        elif isinstance(value, ast.DictComp):
            out.append((value.value, _describe(value.value)))
        elif isinstance(value, ast.Call):
            recv = _is_self_attr(value.func) if isinstance(value.func, ast.Attribute) else None
            if recv == "broadcast" and value.args:
                out.append((value.args[0], _describe(value.args[0])))
            elif recv is not None and recv in self.analysis.methods:
                # helper returning an outbox: charge the call site with the
                # helper's summarized size
                out.append((value, f"outbox from helper self.{recv}()"))
            elif _call_name(value) == "dict" and value.args:
                out.append((value.args[0], _describe(value.args[0])))
        elif isinstance(value, ast.Name):
            for payload in self.outbox_names.get(value.id, []):
                out.append((payload, _describe(payload)))
        elif isinstance(value, ast.IfExp):
            out.extend(self._payload_exprs(value.body))
            out.extend(self._payload_exprs(value.orelse))
        return out

    # -- order hazards (rule L9) ---------------------------------------

    def _check_order_hazards(self, node: ast.Call) -> None:
        name = _call_name(node)
        # next(iter(X)): the first element of an arbitrary iteration order
        if (
            name == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and _call_name(node.args[0]) == "iter"
        ):
            self._hazard(node, "next(iter(...)) picks an iteration-order-dependent element")
            return
        # list/tuple over a set or over the inbox view: materializes an
        # arbitrary order into an ordered container
        if name in ("list", "tuple") and node.args:
            arg = node.args[0]
            if self._is_inbox_view(arg):
                self._hazard(
                    node,
                    f"{name}(ctx.inbox...) materializes inbox iteration order; "
                    "wrap in sorted(...) to fix the order",
                )
            elif self._is_set_valued(arg):
                self._hazard(
                    node,
                    f"{name}() over a set materializes arbitrary iteration "
                    "order; wrap in sorted(...) to fix the order",
                )
            else:
                attr = _is_self_attr(arg)
                if attr is not None and attr in self.analysis.result.accumulators:
                    acc = self.analysis.result.accumulators[attr]
                    if acc.inbox_fed:
                        self._hazard(
                            node,
                            f"{name}(self.{attr}) materializes arrival order of "
                            "accumulated messages; wrap in sorted(...)",
                        )
        # set.pop(): removes an arbitrary element
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("pop", "popitem")
            and not node.args
            and self._is_set_valued(node.func.value)
        ):
            self._hazard(node, "set.pop() removes an iteration-order-dependent element")

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.report_hazards:
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    for side in (left, right):
                        if isinstance(side, ast.Constant) and isinstance(
                            side.value, float
                        ):
                            self._hazard(
                                node,
                                "equality comparison against a float literal is "
                                "representation-dependent",
                            )
        self.generic_visit(node)

    def _hazard(self, node: ast.AST, description: str) -> None:
        self.analysis.result.order_hazards.append(
            OrderHazard(
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
                method=self.func.name,
                description=description,
            )
        )


def _references_self_attr(node: ast.expr, attr: str) -> bool:
    for sub in ast.walk(node):
        if _is_self_attr(sub) == attr:
            return True
    return False


def _contains_inbox_use(node: ast.expr, flow: _MethodFlow) -> bool:
    for sub in ast.walk(node):
        if flow._is_inbox(sub):
            return True
    return False


def _describe(node: ast.expr) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<payload>"
    if len(text) > 60:
        text = text[:57] + "..."
    return text


def analyze_dataflow(modules: Sequence[ModuleLike]) -> List[ClassDataflow]:
    """Dataflow results for every NodeProgram subclass under ``modules``."""
    classes: Dict[str, ast.ClassDef] = {}
    for info in modules:
        for name, node in info.classes.items():
            classes.setdefault(name, node)
    results: List[ClassDataflow] = []
    for info, cls in node_program_closure(modules):
        functions = {
            stmt.name: stmt
            for stmt in info.tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        results.append(_ClassAnalysis(info, cls, classes, functions).run())
    return results
