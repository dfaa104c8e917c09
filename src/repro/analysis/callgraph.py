"""The whole-program index every reprolint rule runs over.

Lexical rules read the parsed files (:attr:`ProgramContext.files`); the
rules that guard the MVCC arc (lock order across helpers, lock scopes
established by callers, refcount obligations handed over a ``return``)
follow *call edges*.  This module builds the index they share:

* a **class index** — every class with its (import-resolved) bases, its
  methods, and the inferred types of its instance attributes;
* a **function index** — every function/method under its fully
  qualified name (``repro.distributed.master.Master.unlink``);
* the **call graph** — edges from each function to the callees reprolint
  can resolve: module-level calls through the import map, ``self.m()``
  dispatch over the known class hierarchy, and attribute chains
  (``self.master.unlink()``, ``self.servers[name].append()``) typed from
  constructor assignments, parameter/field annotations, and callee
  return annotations.

Resolution is deliberately *bounded*: attribute chains deeper than
:data:`MAX_CHAIN_DEPTH`, inheritance walks past :data:`MAX_MRO_DEPTH`,
or more than :data:`MAX_CANDIDATES` candidate classes make the edge
unresolved rather than exploding the graph.  Unresolved calls simply
carry no cross-call findings — the analysis degrades to what one
function body shows instead of guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.analysis.summaries import SummaryIndex
from repro.analysis.symbols import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.framework import FileContext

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Longest ``a.b.c.d`` attribute chain the resolver will type.
MAX_CHAIN_DEPTH = 6
#: Deepest base-class walk during method resolution.
MAX_MRO_DEPTH = 8
#: Most candidate classes one expression may resolve to.
MAX_CANDIDATES = 8

#: Container heads whose subscript/iteration yields the *last* type arg.
_VALUE_CONTAINERS = frozenset({"dict", "Dict", "Mapping", "MutableMapping", "defaultdict"})
#: Container heads whose subscript/iteration yields the *first* type arg.
_ELEM_CONTAINERS = frozenset(
    {"list", "List", "set", "Set", "frozenset", "tuple", "Tuple", "Sequence", "Iterable", "Iterator"}
)
_UNION_HEADS = frozenset({"Optional", "Union"})


@dataclass
class ClassInfo:
    """One class as the resolver sees it."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: resolved base references (qualified where possible).
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute -> candidate class qualnames (the object itself).
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: attribute -> candidate element/value class qualnames (``x[k]``).
    attr_elem_types: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function/method under its fully qualified name."""

    qualname: str
    module: str
    node: ast.AST
    ctx: FileContext
    #: qualname of the defining class, if a method.
    class_qualname: Optional[str] = None
    #: candidate classes of the return value (from the annotation).
    return_types: tuple[str, ...] = ()
    #: element/value classes when the return is a typed container.
    return_elem_types: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: ``caller`` invokes ``callee`` at ``line``."""

    caller: str
    callee: str
    path: str
    line: int


class ProgramContext:
    """Everything the checkers can know about the files they are given."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        #: every parsed file, in the order given (what lexical rules walk).
        self.files: list[FileContext] = list(contexts)
        #: module name -> file context (what name resolution indexes;
        #: files outside a ``repro`` tree may share a bare-stem name).
        self.contexts: dict[str, FileContext] = {ctx.module: ctx for ctx in contexts}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: caller qualname -> outgoing edges (with the call node).
        self.calls_from: dict[str, list[tuple[CallEdge, ast.Call]]] = {}
        #: callee qualname -> incoming edges (with the call node).
        self.callers_of: dict[str, list[tuple[CallEdge, ast.Call]]] = {}
        self._local_envs: dict[str, dict[str, tuple[str, ...]]] = {}
        self._index()
        self._link()
        #: per-function facts and their transitive closures.
        self.summaries = SummaryIndex(self)

    # -- construction -------------------------------------------------------
    def _index(self) -> None:
        for ctx in self.contexts.values():
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    self._index_class(ctx, node)
            for func, qualname in ctx.symbols.functions:
                info = FunctionInfo(
                    qualname=f"{ctx.module}.{qualname}",
                    module=ctx.module,
                    node=func,
                    ctx=ctx,
                )
                owner = ctx.symbols.enclosing_class(func)
                if owner is not None:
                    info.class_qualname = f"{ctx.module}.{owner.name}"
                returns = getattr(func, "returns", None)
                if returns is not None:
                    info.return_types, info.return_elem_types = self._annotation_types(
                        ctx, returns
                    )
                previous = self.functions.get(info.qualname)
                if previous is not None:
                    # A redefinition (branch-local def, property setter):
                    # the last one keeps the name, as at runtime; the
                    # earlier stays analyzable under a line-suffixed key.
                    previous.qualname += f"@{previous.node.lineno}"
                    self.functions[previous.qualname] = previous
                self.functions[info.qualname] = info
        # Second pass: attribute types may reference classes indexed later.
        for ctx in self.contexts.values():
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    self._infer_attr_types(ctx, node)

    def _index_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        qualname = f"{ctx.module}.{node.name}"
        info = ClassInfo(qualname=qualname, module=ctx.module, node=node)
        for base in node.bases:
            name = dotted_name(base)
            if name is None:
                continue
            resolved = self.resolve_class_ref(ctx, name)
            info.bases.append(resolved if resolved else ctx.symbols.resolve(name))
        for child in node.body:
            if isinstance(child, _FUNCTION_NODES):
                info.methods[child.name] = f"{qualname}.{child.name}"
            elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                # Dataclass-style field annotation.
                direct, elem = self._annotation_types(ctx, child.annotation)
                if direct:
                    info.attr_types[child.target.id] = direct
                if elem:
                    info.attr_elem_types[child.target.id] = elem
        self.classes[qualname] = info

    def _infer_attr_types(self, ctx: FileContext, node: ast.ClassDef) -> None:
        """``self.x = ...`` assignments bind attribute types.

        Three evidence sources, in every method of the class (the
        constructor dominates in practice): a direct constructor call
        (``self.master = Master(...)``), a parameter whose annotation
        names a class (``self.servers = servers`` with
        ``servers: dict[str, ChunkServer]``), and an annotated
        assignment (``self.fs: Union[CompressFS, PassthroughFS]``).
        """
        info = self.classes[f"{ctx.module}.{node.name}"]
        for method in node.body:
            if not isinstance(method, _FUNCTION_NODES):
                continue
            params = self._param_annotations(ctx, method)
            for stmt in ast.walk(method):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, annotation = stmt.target, stmt.value, stmt.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                direct: tuple[str, ...] = ()
                elem: tuple[str, ...] = ()
                if annotation is not None:
                    direct, elem = self._annotation_types(ctx, annotation)
                if not direct and not elem and isinstance(value, ast.Call):
                    name = dotted_name(value.func)
                    if name is not None:
                        resolved = self.resolve_class_ref(ctx, name)
                        if resolved:
                            direct = (resolved,)
                if not direct and not elem and isinstance(value, ast.Name):
                    direct, elem = params.get(value.id, ((), ()))
                if direct:
                    merged = set(info.attr_types.get(attr, ())) | set(direct)
                    info.attr_types[attr] = tuple(sorted(merged))[:MAX_CANDIDATES]
                if elem:
                    merged = set(info.attr_elem_types.get(attr, ())) | set(elem)
                    info.attr_elem_types[attr] = tuple(sorted(merged))[:MAX_CANDIDATES]

    def _param_annotations(
        self, ctx: FileContext, func: ast.AST
    ) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        out: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        args = getattr(func, "args", None)
        if args is None:
            return out
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                out[arg.arg] = self._annotation_types(ctx, arg.annotation)
        return out

    # -- type vocabulary ----------------------------------------------------
    def resolve_class_ref(self, ctx: FileContext, dotted: str) -> Optional[str]:
        """A (possibly imported) class reference -> indexed qualname."""
        resolved = ctx.symbols.resolve(dotted)
        if resolved in self.classes:
            return resolved
        local = f"{ctx.module}.{dotted}"
        if local in self.classes:
            return local
        return None

    def _annotation_types(
        self, ctx: FileContext, ann: ast.expr
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(direct classes, element/value classes) of one annotation."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return (), ()
        if isinstance(ann, (ast.Name, ast.Attribute)):
            name = dotted_name(ann)
            if name is None:
                return (), ()
            resolved = self.resolve_class_ref(ctx, name)
            return ((resolved,), ()) if resolved else ((), ())
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self._annotation_types(ctx, ann.left)
            right = self._annotation_types(ctx, ann.right)
            return _merge_types(left, right)
        if isinstance(ann, ast.Subscript):
            head = dotted_name(ann.value)
            head_tail = head.rsplit(".", 1)[-1] if head else ""
            args = (
                list(ann.slice.elts)
                if isinstance(ann.slice, ast.Tuple)
                else [ann.slice]
            )
            if head_tail in _UNION_HEADS:
                combined: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
                for arg in args:
                    combined = _merge_types(combined, self._annotation_types(ctx, arg))
                return combined
            if head_tail in _VALUE_CONTAINERS and args:
                value_direct, __ = self._annotation_types(ctx, args[-1])
                return (), value_direct
            if head_tail in _ELEM_CONTAINERS and args:
                elem_direct, __ = self._annotation_types(ctx, args[0])
                return (), elem_direct
        return (), ()

    # -- expression typing --------------------------------------------------
    def local_env(self, info: FunctionInfo) -> dict[str, tuple[str, ...]]:
        """name -> candidate classes, for locals of one function.

        A single forward pass covering the idioms the tree actually
        uses: annotated parameters, ``x = ClassName(...)``,
        ``x = self.attr`` chains, ``x = call()`` with a return
        annotation, ``x = container[k]``, and ``for x in container``.
        """
        cached = self._local_envs.get(info.qualname)
        if cached is not None:
            return cached
        env: dict[str, tuple[str, ...]] = {}
        params = self._param_annotations(info.ctx, info.node)
        for name, (direct, __) in params.items():
            if direct:
                env[name] = direct
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    direct, __ = self.expr_types(info, env, stmt.value)
                    if direct:
                        env[target.id] = direct
            elif isinstance(stmt, (ast.For, ast.AsyncFor)) and isinstance(
                stmt.target, ast.Name
            ):
                __, elem = self.expr_types(info, env, stmt.iter)
                if elem:
                    env[stmt.target.id] = elem
        self._local_envs[info.qualname] = env
        return env

    def expr_types(
        self,
        info: FunctionInfo,
        env: dict[str, tuple[str, ...]],
        expr: ast.expr,
        depth: int = 0,
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(direct classes, element classes) of one expression."""
        if depth > MAX_CHAIN_DEPTH:
            return (), ()
        if isinstance(expr, ast.Name):
            if expr.id == "self" and info.class_qualname:
                return (info.class_qualname,), ()
            return env.get(expr.id, ()), ()
        if isinstance(expr, ast.Attribute):
            base_direct, __ = self.expr_types(info, env, expr.value, depth + 1)
            return self._attr_of(base_direct, expr.attr)
        if isinstance(expr, ast.Subscript):
            __, base_elem = self.expr_types(info, env, expr.value, depth + 1)
            return base_elem, ()
        if isinstance(expr, ast.Call):
            # ``d.values()`` / ``d.items()``-free iteration shortcut first.
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "values":
                __, elem = self.expr_types(info, env, expr.func.value, depth + 1)
                return (), elem
            callees = self.resolve_call(info, expr, env=env)
            direct: set[str] = set()
            elem: set[str] = set()
            for callee in callees:
                target = self.functions.get(callee)
                if target is not None:
                    direct.update(target.return_types)
                    elem.update(target.return_elem_types)
                if callee.endswith(".__init__"):
                    direct.add(callee.rsplit(".", 1)[0])
            name = dotted_name(expr.func)
            if name is not None:
                constructed = self.resolve_class_ref(info.ctx, name)
                if constructed:
                    direct.add(constructed)
            return tuple(sorted(direct))[:MAX_CANDIDATES], tuple(sorted(elem))[
                :MAX_CANDIDATES
            ]
        return (), ()

    def _attr_of(
        self, classes: Sequence[str], attr: str
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        direct: set[str] = set()
        elem: set[str] = set()
        for qualname in classes:
            for owner in self._mro(qualname):
                cls = self.classes.get(owner)
                if cls is None:
                    continue
                direct.update(cls.attr_types.get(attr, ()))
                elem.update(cls.attr_elem_types.get(attr, ()))
        return tuple(sorted(direct))[:MAX_CANDIDATES], tuple(sorted(elem))[
            :MAX_CANDIDATES
        ]

    def _mro(self, qualname: str) -> Iterator[str]:
        """Breadth-first base-class walk, bounded and cycle-safe."""
        seen: set[str] = set()
        queue = [qualname]
        depth = 0
        while queue and depth <= MAX_MRO_DEPTH:
            next_queue: list[str] = []
            for name in queue:
                if name in seen:
                    continue
                seen.add(name)
                yield name
                cls = self.classes.get(name)
                if cls is not None:
                    next_queue.extend(cls.bases)
            queue = next_queue
            depth += 1

    def find_method(self, class_qualname: str, method: str) -> Optional[str]:
        for owner in self._mro(class_qualname):
            cls = self.classes.get(owner)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
        return None

    # -- call resolution ----------------------------------------------------
    def resolve_call(
        self,
        info: FunctionInfo,
        call: ast.Call,
        env: Optional[dict[str, tuple[str, ...]]] = None,
    ) -> list[str]:
        """Candidate callee qualnames of one call, possibly empty."""
        name = dotted_name(call.func)
        if name is None:
            # Not a plain dotted chain (``self.servers[k].write(...)``,
            # ``make().close()``): still a method call when the outermost
            # node is an Attribute — type the receiver expression below.
            if isinstance(call.func, ast.Attribute):
                return self._resolve_typed_method(info, call, env)
            return []
        ctx = info.ctx
        parts = name.split(".")
        if len(parts) > MAX_CHAIN_DEPTH:
            return []
        # Plain name: module-level function, imported function, or class.
        if len(parts) == 1:
            local = f"{ctx.module}.{name}"
            if local in self.functions:
                return [local]
            resolved = ctx.symbols.resolve(name)
            if resolved in self.functions:
                return [resolved]
            constructed = self.resolve_class_ref(ctx, name)
            if constructed:
                init = self.find_method(constructed, "__init__")
                return [init] if init else []
            return []
        # Imported dotted reference (``module.func`` / ``pkg.Class``).
        resolved = ctx.symbols.resolve(name)
        if resolved in self.functions:
            return [resolved]
        constructed = self.resolve_class_ref(ctx, ".".join(parts))
        if constructed:
            init = self.find_method(constructed, "__init__")
            return [init] if init else []
        # Method on a typed expression: type the receiver, look up the tail.
        return self._resolve_typed_method(info, call, env)

    def _resolve_typed_method(
        self,
        info: FunctionInfo,
        call: ast.Call,
        env: Optional[dict[str, tuple[str, ...]]] = None,
    ) -> list[str]:
        if env is None:
            env = self.local_env(info)
        receiver = call.func
        assert isinstance(receiver, ast.Attribute)
        base_direct, __ = self.expr_types(info, env, receiver.value)
        out: list[str] = []
        for cls in base_direct:
            found = self.find_method(cls, receiver.attr)
            if found is not None and found not in out:
                out.append(found)
        return out[:MAX_CANDIDATES]

    def _link(self) -> None:
        for info in self.functions.values():
            edges: list[tuple[CallEdge, ast.Call]] = []
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if info.ctx.symbols.enclosing_function(node) is not info.node:
                    continue  # belongs to a nested function
                for callee in self.resolve_call(info, node):
                    edge = CallEdge(
                        caller=info.qualname,
                        callee=callee,
                        path=info.ctx.path,
                        line=node.lineno,
                    )
                    edges.append((edge, node))
                    self.callers_of.setdefault(callee, []).append((edge, node))
            if edges:
                self.calls_from[info.qualname] = edges


def _merge_types(
    a: tuple[tuple[str, ...], tuple[str, ...]],
    b: tuple[tuple[str, ...], tuple[str, ...]],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    direct = tuple(sorted(set(a[0]) | set(b[0])))[:MAX_CANDIDATES]
    elem = tuple(sorted(set(a[1]) | set(b[1])))[:MAX_CANDIDATES]
    return direct, elem
