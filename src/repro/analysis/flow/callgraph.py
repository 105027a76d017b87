"""Module-aware call graph for the whole-program lint pass.

The deep rules (DOOC010..DOOC012) need to follow a value — a sealed
NumPy view, a held lock set, a ``list[Effect]`` return — across function
boundaries.  This module builds the index that makes that possible: every
function and method in the analyzed tree gets a *qualified name*
(``repro.core.storage.LocalStore.release``), every module gets an import
table, and :meth:`CallGraph.resolve` maps a call expression in one
function to the :class:`FunctionInfo` it (probably) invokes.

Resolution is deliberately conservative and purely static:

* bare names resolve through module-local definitions and the import
  table;
* ``self.m(...)`` resolves to method ``m`` on the enclosing class (one
  class, no MRO walk);
* ``alias.attr(...)`` resolves when ``alias`` is an imported module or
  an imported name;
* any other attribute call falls back to *unique-name* resolution: it
  resolves only when exactly one function in the whole program bears
  that name and the name is not on the ambient denylist (``run``,
  ``read``, ``write``, ... — names too generic to pin to one callee).

Unresolved calls are simply dropped from the graph; the deep rules stay
sound-for-what-they-see rather than guessing.  Nested ``def``s and
lambdas are not indexed (their bodies do not run inline), and dynamic
dispatch through containers or ``getattr`` is invisible — both limits
are documented in docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["FunctionInfo", "ModuleInfo", "CallGraph", "module_name_for_path"]

#: method/function names too generic for unique-name fallback resolution —
#: resolving `fh.write(...)` to some random `write` def would poison the
#: lock/effect propagation with false edges.
AMBIENT_NAMES = frozenset({
    "run", "read", "write", "open", "close", "get", "set", "put", "pop",
    "send", "recv", "join", "wait", "acquire", "release", "start", "stop",
    "append", "extend", "update", "clear", "add", "remove", "copy", "sort",
    "items", "keys", "values", "main", "check", "process", "flush", "next",
    "submit", "result", "cancel", "notify", "format", "parse", "load",
    "save", "reset", "info", "debug", "warning", "error",
})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path (``src/repro/core/codecs.py`` ->
    ``repro.core.codecs``); falls back to the dotted path for files outside a
    ``src`` root (fixtures, tests)."""
    parts = list(path.replace("\\", "/").strip("/").split("/"))
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    parts = [p for p in parts if p and p not in (".", "..")]
    return ".".join(parts) if parts else "<module>"


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str            # module.Class.name or module.name
    module: str
    cls: str | None
    name: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)

    @property
    def method_params(self) -> list[str]:
        """Parameters as seen by an attribute-call (``self``/``cls`` bound)."""
        if self.cls and self.params and self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass
class ModuleInfo:
    """One parsed module: its tree, import table and local definitions."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> dotted target ("np" -> "numpy",
    #: "write_array" -> "repro.core.iofilter.write_array")
    imports: dict[str, str] = field(default_factory=dict)


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


def dotted_expr(node: ast.AST) -> str | None:
    """``a.b.c`` -> "a.b.c", ``name`` -> "name"; anything else -> None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_expr(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


class CallGraph:
    """Whole-program function index + static call resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._by_name: dict[str, list[FunctionInfo]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, sources: dict[str, ast.Module]) -> "CallGraph":
        """Index ``{path: parsed module}`` into a call graph."""
        graph = cls()
        for path, tree in sources.items():
            mod = ModuleInfo(module_name_for_path(path), path, tree,
                             _collect_imports(tree))
            graph.modules[mod.name] = mod
            graph._index_module(mod)
        return graph

    def _index_module(self, mod: ModuleInfo) -> None:
        def add(node, cls_name: str | None) -> None:
            qual = (f"{mod.name}.{cls_name}.{node.name}" if cls_name
                    else f"{mod.name}.{node.name}")
            info = FunctionInfo(qual, mod.name, cls_name, node.name,
                                mod.path, node, _params(node))
            self.functions[qual] = info
            self._by_name.setdefault(node.name, []).append(info)

        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        add(sub, stmt.name)

    # -- resolution ----------------------------------------------------------

    def _lookup(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def resolve(self, call: ast.Call,
                caller: FunctionInfo) -> FunctionInfo | None:
        """The function a call expression invokes, or None if unknown."""
        func = call.func
        mod = self.modules.get(caller.module)
        imports = mod.imports if mod else {}

        if isinstance(func, ast.Name):
            name = func.id
            hit = self._lookup(f"{caller.module}.{name}")
            if hit is not None:
                return hit
            target = imports.get(name)
            if target is not None:
                hit = self._lookup(target)
                if hit is not None:
                    return hit
                # The import names a module root that doesn't match how
                # the file set was keyed (absolute paths, fixtures); a
                # unique definition of the name is still unambiguous.
            return self._unique(name)

        if isinstance(func, ast.Attribute):
            # self.m() / cls.m(): the enclosing class's method.
            base = dotted_expr(func.value)
            if base in ("self", "cls") and caller.cls is not None:
                hit = self._lookup(
                    f"{caller.module}.{caller.cls}.{func.attr}")
                if hit is not None:
                    return hit
            # alias.attr() through the import table (module or name import).
            if base is not None:
                head = base.split(".")[0]
                target = imports.get(head)
                if target is not None:
                    dotted = base.replace(head, target, 1) + f".{func.attr}"
                    hit = self._lookup(dotted)
                    if hit is not None:
                        return hit
            return self._unique(func.attr)
        return None

    def _unique(self, name: str) -> FunctionInfo | None:
        if name in AMBIENT_NAMES or name.startswith("__"):
            return None
        hits = self._by_name.get(name, [])
        return hits[0] if len(hits) == 1 else None

    def bind_args(self, call: ast.Call,
                  callee: FunctionInfo) -> list[tuple[ast.expr, str]]:
        """(argument expression, parameter name) pairs for a resolved call.

        Attribute calls bind against :attr:`FunctionInfo.method_params`
        (``self`` consumed by the receiver); plain-name calls against the
        full parameter list.  ``*args``/``**kwargs`` and excess arguments
        are dropped — the analysis only needs the named positions.
        """
        params = (callee.method_params
                  if isinstance(call.func, ast.Attribute) else callee.params)
        pairs: list[tuple[ast.expr, str]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                break
            pairs.append((arg, params[i]))
        all_params = set(callee.params)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in all_params:
                pairs.append((kw.value, kw.arg))
        return pairs
