"""The project-specific lint rules (RL001–RL007).

Each rule encodes one of ROADMAP's "Standing invariants" as a static
check; the docstrings below are the normative statements the text
reporter and ``--list-rules`` print.  Rules are registered at import
time via :func:`~repro.lint.core.register_rule` and run per module by
:func:`~repro.lint.core.lint_paths`, with cross-module facts supplied
by :class:`~repro.lint.project.ProjectIndex`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Finding, ModuleInfo, Rule, register_rule
from .project import ProjectIndex, attr_tail, dotted_expr

__all__ = [
    "LifecycleRule",
    "RawMultiprocessingRule",
    "RegistryHonestyRule",
    "ShmDisciplineRule",
    "HasattrSniffRule",
    "BenchMetadataRule",
    "AtomicCheckpointRule",
]


def _build_parents(root: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _iter_scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.append(child)


def _contains_name(node: Optional[ast.AST], name: str) -> bool:
    if node is None:
        return False
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


@register_rule
class LifecycleRule(Rule):
    """RL001 — engines, executors, and systems own worker teardown.

    Constructing ``ShardedSketch``, ``PersistentProcessExecutor``,
    ``NetwideSystem``, ``build_engine(...)``, or ``HeavyHitterEngine``
    outside the ``repro`` internals must happen in a ``with`` block or
    be paired with a reachable ``close()`` (or an ownership escape:
    returning/yielding the object or handing it to another call) in the
    same function.  This is the static form of the PR-4 leak fixes: a
    bound-and-forgotten engine leaks resident worker processes.
    """

    code = "RL001"
    name = "lifecycle"
    summary = (
        "construct engines/executors/systems under `with` or pair with "
        "close() in the same function"
    )

    TARGETS = frozenset(
        {
            "ShardedSketch",
            "PersistentProcessExecutor",
            "NetwideSystem",
            "build_engine",
            "HeavyHitterEngine",
            # service layer: the daemon owns an engine (and its workers),
            # clients own a socket — both unwind through close()
            "IngestServer",
            "ServiceDaemon",
            "ServiceClient",
            "AsyncServiceClient",
        }
    )
    #: Packages whose internals compose/own these objects by design.
    INTERNAL_DIRS = (
        "repro/core",
        "repro/engine",
        "repro/sharding",
        "repro/netwide",
        "repro/bench",
        "repro/analysis",
        "repro/hierarchy",
        "repro/loadbalancer",
        "repro/traffic",
        "repro/lint",
        "repro/service",
    )

    def _target_name(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.TARGETS:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in self.TARGETS:
                return func.attr
            if func.attr == "from_spec" and attr_tail(func.value) in (
                "HeavyHitterEngine",
            ):
                return "HeavyHitterEngine.from_spec"
            if func.attr == "connect" and attr_tail(func.value) in (
                "ServiceClient",
                "AsyncServiceClient",
            ):
                return f"{attr_tail(func.value)}.connect"
        return None

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if any(module.in_dir(fragment) for fragment in self.INTERNAL_DIRS):
            return
        parents = _build_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._target_name(node)
            if target is None:
                continue
            finding = self._check_construction(module, node, target, parents)
            if finding is not None:
                yield finding

    def _enclosing_scope(
        self, node: ast.AST, parents: Dict[int, ast.AST]
    ) -> Sequence[ast.stmt]:
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            cursor = parents.get(id(cursor))
            if isinstance(
                cursor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                return cursor.body
        return []

    def _check_construction(
        self,
        module: ModuleInfo,
        call: ast.Call,
        target: str,
        parents: Dict[int, ast.AST],
    ) -> Optional[Finding]:
        node: ast.AST = call
        parent = parents.get(id(node))
        # climb through value-preserving wrappers
        while isinstance(parent, (ast.IfExp, ast.BoolOp, ast.Await, ast.Starred)):
            node, parent = parent, parents.get(id(parent))
        bound: List[str] = []
        if isinstance(parent, ast.withitem):
            return None  # with Target(...) as x:
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return None  # ownership escapes to the caller
        if isinstance(parent, (ast.Call, ast.keyword)):
            return None  # handed straight to another owner
        if isinstance(
            parent, (ast.List, ast.Tuple, ast.Set, ast.Dict, ast.comprehension,
                     ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp,
                     ast.FormattedValue, ast.Subscript, ast.Attribute,
                     ast.Compare)
        ):
            return None  # stored/consumed elsewhere; give the benefit of doubt
        if isinstance(parent, ast.NamedExpr) and isinstance(
            parent.target, ast.Name
        ):
            bound = [parent.target.id]
        elif isinstance(parent, ast.Assign):
            names = [
                t.id for t in parent.targets if isinstance(t, ast.Name)
            ]
            if len(names) != len(parent.targets):
                return None  # attribute/subscript target: stored on an owner
            bound = names
        elif isinstance(parent, ast.AnnAssign):
            if not isinstance(parent.target, ast.Name):
                return None
            bound = [parent.target.id]
        elif isinstance(parent, ast.Expr):
            return self.finding(
                module,
                call,
                f"{target}(...) constructed and discarded — it owns worker "
                "state; use `with` or bind it and call close()",
            )
        else:
            return None
        scope = self._enclosing_scope(call, parents)
        for name in bound:
            if not self._name_released(name, scope):
                return self.finding(
                    module,
                    call,
                    f"`{name} = {target}(...)` is never closed in this "
                    "function — wrap it in `with`, call close() in a "
                    "finally, or hand ownership elsewhere",
                )
        return None

    def _name_released(self, name: str, scope: Sequence[ast.stmt]) -> bool:
        for node in _iter_scope_nodes(scope):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _contains_name(item.context_expr, name):
                        return True
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("close", "shutdown", "stop", "__exit__")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == name
                ):
                    return True
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _contains_name(arg, name):
                        return True  # handed to another call: escapes
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if _contains_name(getattr(node, "value", None), name):
                    return True
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Name) and node.value.id == name:
                    return True  # aliased or stored; stop tracking
        return False


@register_rule
class RawMultiprocessingRule(Rule):
    """RL002 — raw process/shared-memory primitives live in ``repro/sharding``.

    ``multiprocessing.Process`` and
    ``multiprocessing.shared_memory.SharedMemory`` constructions outside
    ``repro/sharding/`` bypass the executor lifecycle, the resource-
    tracker discipline, and the session-wide leak guards; everything
    else must go through ``ShardedSketch``/``build_engine``.
    """

    code = "RL002"
    name = "raw-multiprocessing"
    summary = (
        "no raw multiprocessing.Process / shared_memory.SharedMemory "
        "outside repro/sharding/"
    )

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if module.in_dir("repro/sharding"):
            return
        mp_aliases: Set[str] = set()
        shm_mod_aliases: Set[str] = set()
        banned: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "multiprocessing" or alias.name.startswith(
                        "multiprocessing."
                    ):
                        local = alias.asname or alias.name.partition(".")[0]
                        if alias.name == "multiprocessing.shared_memory" and (
                            alias.asname
                        ):
                            shm_mod_aliases.add(local)
                        else:
                            mp_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "multiprocessing":
                    for alias in node.names:
                        if alias.name == "Process":
                            banned[alias.asname or alias.name] = (
                                "multiprocessing.Process"
                            )
                        elif alias.name == "shared_memory":
                            shm_mod_aliases.add(alias.asname or alias.name)
                elif node.module == "multiprocessing.shared_memory":
                    for alias in node.names:
                        if alias.name == "SharedMemory":
                            banned[alias.asname or alias.name] = (
                                "multiprocessing.shared_memory.SharedMemory"
                            )
        if not (mp_aliases or shm_mod_aliases or banned):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            qual: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in banned:
                qual = banned[func.id]
            elif isinstance(func, ast.Attribute):
                value = func.value
                if func.attr == "Process" and (
                    isinstance(value, ast.Name) and value.id in mp_aliases
                ):
                    qual = "multiprocessing.Process"
                elif func.attr == "SharedMemory":
                    if isinstance(value, ast.Name) and (
                        value.id in shm_mod_aliases
                    ):
                        qual = "multiprocessing.shared_memory.SharedMemory"
                    elif (
                        isinstance(value, ast.Attribute)
                        and value.attr == "shared_memory"
                        and isinstance(value.value, ast.Name)
                        and value.value.id in mp_aliases
                    ):
                        qual = "multiprocessing.shared_memory.SharedMemory"
            if qual is not None:
                yield self.finding(
                    module,
                    node,
                    f"raw {qual} construction outside repro/sharding/ — use "
                    "ShardedSketch/build_engine so lifecycle and leak "
                    "guards apply",
                )


#: Protocol methods implied by each declarable capability, mirroring
#: ``repro.core.api`` / ``repro.engine.registry.CAPABILITY_PROTOCOLS``.
CAPABILITY_METHODS: Dict[str, Tuple[str, ...]] = {
    "sliding": ("update", "update_many", "extend", "query"),
    "mergeable": ("update", "query", "entries"),
    "queryable": ("update", "query", "entries", "heavy_hitters", "top_k"),
    "windowed": ("ingest_gap", "ingest_sample", "ingest_samples"),
}


def _literal_str_set(node: ast.expr) -> Optional[Set[str]]:
    if isinstance(node, ast.Call) and attr_tail(node.func) in (
        "frozenset",
        "set",
    ):
        if len(node.args) == 1 and not node.keywords:
            return _literal_str_set(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        out: Set[str] = set()
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.add(elt.value)
            else:
                return None
        return out
    return None


@register_rule
class RegistryHonestyRule(Rule):
    """RL003 — declared capabilities must match statically-present methods.

    For every ``register_algorithm`` call whose factory the index can
    trace to a class, the declared capability set must match the
    protocol methods statically present on that class (both
    directions: a declared capability's methods must exist, and a fully
    satisfied protocol must be declared).  Separately, any class under
    ``repro/core/`` that defines ``update`` + ``query`` directly must be
    registered or carry a ``# replint: not-an-algorithm (reason)``
    opt-out on (or directly above) its ``class`` line.
    """

    code = "RL003"
    name = "registry-honesty"
    summary = (
        "register_algorithm capability sets must match the sketch class's "
        "protocol methods; update+query classes register or opt out"
    )

    def _factory_class(
        self,
        module: ModuleInfo,
        project: ProjectIndex,
        factory: ast.expr,
    ) -> Optional[str]:
        """Trace a registration factory to the class it constructs."""
        body: Optional[ast.expr] = None
        if isinstance(factory, ast.Lambda):
            body = factory.body
        elif isinstance(factory, ast.Name):
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == factory.id
                ):
                    returns = [
                        stmt.value
                        for stmt in ast.walk(node)
                        if isinstance(stmt, ast.Return) and stmt.value is not None
                    ]
                    if len(returns) == 1:
                        body = returns[0]
                    break
        if not isinstance(body, ast.Call):
            return None
        info = project.resolve_call_class(module, body)
        return info.dotted if info is not None else None

    def _register_calls(
        self, module: ModuleInfo
    ) -> Iterator[Tuple[ast.Call, Optional[str], ast.expr, Optional[Set[str]]]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if attr_tail(node.func) != "register_algorithm":
                continue
            name: Optional[str] = None
            if node.args and isinstance(node.args[0], ast.Constant):
                if isinstance(node.args[0].value, str):
                    name = node.args[0].value
            factory = node.args[1] if len(node.args) > 1 else None
            caps_node: Optional[ast.expr] = (
                node.args[2] if len(node.args) > 2 else None
            )
            for kw in node.keywords:
                if kw.arg == "factory":
                    factory = kw.value
                elif kw.arg == "capabilities":
                    caps_node = kw.value
            if factory is None:
                continue
            caps = _literal_str_set(caps_node) if caps_node is not None else None
            yield node, name, factory, caps

    def _registered_classes(self, project: ProjectIndex) -> Set[str]:
        cached = project.cache.get("rl003.registered")
        if isinstance(cached, set):
            return cached
        registered: Set[str] = set()
        for module in project.modules:
            for _, _, factory, _ in self._register_calls(module):
                dotted = self._factory_class(module, project, factory)
                if dotted is not None:
                    registered.add(dotted)
        project.cache["rl003.registered"] = registered
        return registered

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        # (a) capability sets at registration sites
        for call, reg_name, factory, caps in self._register_calls(module):
            if caps is None:
                continue  # dynamically built capability set: not checkable
            dotted = self._factory_class(module, project, factory)
            if dotted is None:
                continue
            methods, complete = project.class_methods(dotted)
            cls_name = dotted.rpartition(".")[2]
            label = reg_name or cls_name
            for cap in sorted(caps & CAPABILITY_METHODS.keys()):
                missing = [
                    m for m in CAPABILITY_METHODS[cap] if m not in methods
                ]
                if missing and complete:
                    yield self.finding(
                        module,
                        call,
                        f"registration {label!r} declares capability "
                        f"{cap!r} but {cls_name} lacks "
                        f"{', '.join(missing)}()",
                    )
            for cap, required in sorted(CAPABILITY_METHODS.items()):
                if cap in caps:
                    continue
                if all(m in methods for m in required):
                    yield self.finding(
                        module,
                        call,
                        f"registration {label!r} omits capability {cap!r} "
                        f"but {cls_name} statically satisfies it "
                        f"({', '.join(required)})",
                    )
        # (b) unregistered sketch-shaped classes under repro/core/
        if not module.in_dir("repro/core"):
            return
        registered = self._registered_classes(project)
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            info = project.classes.get(f"{module.dotted}.{stmt.name}")
            if info is None or info.is_protocol:
                continue
            if not {"update", "query"} <= info.own_methods:
                continue
            if info.dotted in registered:
                continue
            if any(
                line in module.optouts
                for line in (stmt.lineno, stmt.lineno - 1)
            ):
                continue
            yield self.finding(
                module,
                stmt,
                f"class {stmt.name} defines update()+query() but is not "
                "registered via register_algorithm and carries no "
                "`# replint: not-an-algorithm (reason)` opt-out",
            )


@register_rule
class ShmDisciplineRule(Rule):
    """RL004 — shared-memory segments follow the SPSC ring discipline.

    Outside ``repro/sharding/shm.py``, nothing may call ``unlink()`` on
    a shared-memory handle (only the ring owner unlinks, inside
    ``PlanRing.close``; workers only ``close()``), and nothing may poke
    a raw ``.buf`` buffer — slot writes, reads, and retires go through
    the ``PlanRing`` API so the retired-counter protocol stays intact.
    ``pathlib.Path.unlink`` is recognized and exempt.
    """

    code = "RL004"
    name = "shm-discipline"
    summary = (
        "only PlanRing (sharding/shm.py) unlinks segments or touches raw "
        "shared-memory buffers"
    )

    _PATHLIB_CTORS = frozenset({"Path", "PurePath", "PosixPath", "WindowsPath"})

    def _path_like_names(self, module: ModuleInfo) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                tail = attr_tail(node.value.func)
                if tail in self._PATHLIB_CTORS or tail in (
                    "with_suffix",
                    "joinpath",
                    "resolve",
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                annotation = attr_tail(node.annotation)
                if annotation in self._PATHLIB_CTORS:
                    names.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in list(node.args.args) + list(node.args.kwonlyargs):
                    if arg.annotation is not None and attr_tail(
                        arg.annotation
                    ) in self._PATHLIB_CTORS:
                        names.add(arg.arg)
        return names

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if module.is_file("repro/sharding/shm.py"):
            return
        path_like = self._path_like_names(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr != "unlink":
                    continue
                if any(kw.arg == "missing_ok" for kw in node.keywords):
                    continue  # pathlib idiom
                receiver = node.func.value
                if isinstance(receiver, ast.Name) and receiver.id in path_like:
                    continue
                if isinstance(receiver, ast.Call) and attr_tail(
                    receiver.func
                ) in self._PATHLIB_CTORS:
                    continue
                if (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id in path_like
                ):
                    continue
                yield self.finding(
                    module,
                    node,
                    "unlink() outside PlanRing.close() — only the segment "
                    "owner unlinks; workers close(), and both go through "
                    "the PlanRing API",
                )
            elif isinstance(node, ast.Attribute) and node.attr == "buf":
                yield self.finding(
                    module,
                    node,
                    "raw shared-memory .buf access outside sharding/shm.py — "
                    "slot reads/writes/retires go through the PlanRing API",
                )


@register_rule
class HasattrSniffRule(Rule):
    """RL005 — no ``hasattr`` capability sniffing in the composed layers.

    Inside ``repro/engine``, ``repro/sharding``, and ``repro/netwide``,
    capability decisions come from the registry's declared sets and the
    ``repro.core.api`` protocols; optional hooks dispatch via
    ``getattr(obj, name, None)`` at the call site.  ``hasattr`` probes
    hide capability bugs the registry-honesty tests exist to catch.
    """

    code = "RL005"
    name = "hasattr-sniffing"
    summary = (
        "engine/sharding/netwide dispatch on declared capabilities or "
        "getattr(obj, name, None), never hasattr"
    )

    LAYERS = ("repro/engine", "repro/sharding", "repro/netwide")

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if not any(module.in_dir(layer) for layer in self.LAYERS):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hasattr"
            ):
                yield self.finding(
                    module,
                    node,
                    "hasattr capability sniffing — dispatch on declared "
                    "capabilities/protocols or getattr(obj, name, None)",
                )


@register_rule
class BenchMetadataRule(Rule):
    """RL006 — every persisted bench row records ``spec`` and ``transport``.

    In ``bench_*.py`` scripts, every ``bench(...)`` call and
    ``BenchResult(...)`` construction must pass a ``metadata`` mapping,
    and when that mapping is a dict literal it must contain ``"spec"``
    and ``"transport"`` keys — the ROADMAP perf-trail invariant that
    each ``BENCH_*.json`` row reproduces from the file alone.
    """

    code = "RL006"
    name = "bench-metadata"
    summary = (
        "bench()/BenchResult(...) rows in bench_*.py carry metadata with "
        "spec and transport keys"
    )

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if not module.path.name.startswith("bench_"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = attr_tail(node.func)
            if callee not in ("bench", "BenchResult"):
                continue
            metadata: Optional[ast.expr] = None
            for kw in node.keywords:
                if kw.arg == "metadata":
                    metadata = kw.value
            if metadata is None:
                yield self.finding(
                    module,
                    node,
                    f"{callee}(...) without metadata= — persisted rows must "
                    "record the spec and transport they ran under",
                )
                continue
            if not isinstance(metadata, ast.Dict):
                continue  # built elsewhere; statically unverifiable
            keys = {
                key.value
                for key in metadata.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            missing = [k for k in ("spec", "transport") if k not in keys]
            if missing and not any(key is None for key in metadata.keys):
                yield self.finding(
                    module,
                    node,
                    f"{callee}(...) metadata lacks {', '.join(missing)} — "
                    "rows must reproduce from the JSON alone",
                )


@register_rule
class AtomicCheckpointRule(Rule):
    """RL007 — checkpoint files are written through the atomic helper.

    Inside ``repro/service/``, every file write goes through
    ``atomic_write_bytes`` (tmp + fsync + ``os.replace``): a plain
    ``open(..., "w"/"wb"/"a")``, ``Path.write_bytes``, or
    ``Path.write_text`` can leave a torn file under the final name on a
    crash, which is exactly the failure mode the ``repro-ckpt/1``
    recovery contract (fall back past torn files) assumes cannot happen
    to a completed write.  Only the body of ``atomic_write_bytes``
    itself may touch the low-level write path.
    """

    code = "RL007"
    name = "atomic-checkpoint"
    summary = (
        "repro/service/ writes files only through atomic_write_bytes "
        "(tmp + fsync + rename)"
    )

    #: Modes of ``open`` that create/modify the target in place.
    _WRITE_MODES = ("w", "a", "x", "+")

    def _enclosing_function(
        self, node: ast.AST, parents: Dict[int, ast.AST]
    ) -> Optional[str]:
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            cursor = parents.get(id(cursor))
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cursor.name
        return None

    def _open_mode(self, call: ast.Call) -> Optional[str]:
        mode: Optional[ast.expr] = None
        if len(call.args) > 1:
            mode = call.args[1]
        for kw in call.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return "r"
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: not statically checkable

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> Iterator[Finding]:
        if not module.in_dir("repro/service"):
            return
        parents = _build_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message: Optional[str] = None
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and any(
                    flag in mode for flag in self._WRITE_MODES
                ):
                    message = (
                        f"open(..., {mode!r}) writes in place — a crash "
                        "mid-write tears the file under its final name"
                    )
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_bytes",
                "write_text",
            ):
                message = (
                    f".{func.attr}(...) writes in place — a crash mid-write "
                    "tears the file under its final name"
                )
            if message is None:
                continue
            if self._enclosing_function(node, parents) == "atomic_write_bytes":
                continue  # the sanctioned helper's own body
            yield self.finding(
                module,
                node,
                message + "; route the write through atomic_write_bytes()",
            )
