"""Reaching definitions over the statement-level CFG.

The framework distinguishes three definition kinds, because the rules
care about the difference between *rebinding* a name and *mutating* the
storage it points to:

``bind``
    ``x = ...``, ``self.buf = ...``, a ``for`` target, a ``with ... as``
    — the name now refers to (possibly) different storage, so previous
    definitions are killed.  The double-buffer swap
    ``src, dst = dst, src`` is two binds.
``mutate``
    ``x[...] = ...``, ``self.buf[i] = ...``, ``np.some_ufunc(..., out=x)``,
    ``np.copyto(x, ...)`` — the *contents* change but the binding does
    not, so nothing is killed (a weak update).
``aug``
    ``x[...] |= ...`` and friends — an in-place element-wise update that
    reads and writes the same storage in one statement.  Tracked
    separately so rules can exempt accumulation patterns.
``param``
    A function parameter: a synthetic definition at the CFG entry.

Names are tracked as plain identifiers (``"stream"``) or two-component
dotted paths (``"self._front"``); deeper chains collapse to their
innermost two components, which is exactly the granularity at which the
engines hold their frame buffers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.dataflow.cfg import CFG

__all__ = [
    "Definition",
    "ReachingDefinitions",
    "stmt_defs",
    "stmt_uses",
    "dotted_name",
]


@dataclass(frozen=True)
class Definition:
    """One definition site: ``name`` defined at CFG node ``node``."""

    name: str
    node: int
    kind: str  # "bind" | "mutate" | "aug" | "param"


def dotted_name(expr: ast.expr) -> str | None:
    """``Name`` → id; ``a.b`` → ``"a.b"``; ``a.b.c`` → ``"a.b"``; else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name):
            return f"{expr.value.id}.{expr.attr}"
        return dotted_name(expr.value)
    return None


#: numpy-style calls whose first positional argument is written in place.
_FIRST_ARG_MUTATORS = {"copyto", "put", "place", "putmask"}


def _header_parts(
    stmt: ast.stmt,
) -> tuple[list[ast.expr], list[ast.expr]]:
    """(store targets, evaluated expressions) belonging to this node.

    Compound statements contribute only their header — their bodies are
    separate CFG nodes.
    """
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target], [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return ([stmt.target], [stmt.value]) if stmt.value else ([], [])
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target], [stmt.iter]
    if isinstance(stmt, (ast.While, ast.If)):
        return [], [stmt.test]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [i.optional_vars for i in stmt.items if i.optional_vars]
        return targets, [i.context_expr for i in stmt.items]
    if isinstance(stmt, ast.Expr):
        return [], [stmt.value]
    if isinstance(stmt, ast.Return):
        return [], [stmt.value] if stmt.value else []
    if isinstance(stmt, ast.Raise):
        return [], [e for e in (stmt.exc, stmt.cause) if e]
    if isinstance(stmt, ast.Assert):
        return [], [e for e in (stmt.test, stmt.msg) if e]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [], []
    # Any other simple statement (Delete, Global, Pass, ...).
    return [], [n for n in ast.iter_child_nodes(stmt) if isinstance(n, ast.expr)]


def _target_defs(target: ast.expr, aug: bool = False) -> Iterator[tuple[str, str]]:
    kind_whole = "aug" if aug else "bind"
    kind_part = "aug" if aug else "mutate"
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_defs(elt, aug)
    elif isinstance(target, ast.Starred):
        yield from _target_defs(target.value, aug)
    elif isinstance(target, ast.Name):
        yield target.id, kind_whole
    elif isinstance(target, ast.Attribute):
        name = dotted_name(target)
        if name is None:
            return
        # `self.x = ...` rebinds the attribute path itself; `self.a.b = ...`
        # collapses to a mutation of `self.a`.
        if isinstance(target.value, ast.Name):
            yield name, kind_whole
        else:
            yield name, kind_part
    elif isinstance(target, ast.Subscript):
        name = dotted_name(target.value)
        if name is not None:
            yield name, kind_part


def _call_mutations(exprs: Iterable[ast.expr]) -> Iterator[tuple[str, str, ast.expr]]:
    """(name, "mutate", target expr) for ``out=``/``np.copyto``-style writes."""
    for root in exprs:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "out":
                    name = dotted_name(kw.value)
                    if name is not None:
                        yield name, "mutate", kw.value
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _FIRST_ARG_MUTATORS
                and node.args
            ):
                name = dotted_name(node.args[0])
                if name is not None:
                    yield name, "mutate", node.args[0]


def stmt_defs(stmt: ast.stmt) -> list[tuple[str, str]]:
    """Definitions ``(name, kind)`` made by this statement's header."""
    targets, exprs = _header_parts(stmt)
    out: list[tuple[str, str]] = []
    aug = isinstance(stmt, ast.AugAssign)
    for target in targets:
        out.extend(_target_defs(target, aug=aug))
    out.extend((name, kind) for name, kind, _ in _call_mutations(exprs))
    for root in exprs:
        for node in ast.walk(root):
            if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                out.append((node.target.id, "bind"))
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            out.append(((alias.asname or alias.name).split(".")[0], "bind"))
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        out.append((stmt.name, "bind"))
    return out


class _UseCollector(ast.NodeVisitor):
    def __init__(self, excluded: set[int]):
        self.uses: set[str] = set()
        self._excluded = excluded

    def _add_chain(self, node: ast.expr) -> None:
        """Record ``x`` and ``x.y`` for an attribute chain rooted at ``x``."""
        name = dotted_name(node)
        if name is not None and name != "self":
            self.uses.add(name)
        base = name.split(".")[0] if name else None
        if base and base != "self":
            self.uses.add(base)

    def visit_Name(self, node: ast.Name) -> None:
        if id(node) in self._excluded or not isinstance(node.ctx, ast.Load):
            return
        if node.id != "self":
            self.uses.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._excluded:
            return
        self._add_chain(node)
        # Recurse only into non-name parts (e.g. subscript indices below).
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            self.visit(node.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if id(node) in self._excluded:
            self.visit(node.slice)  # the index is still evaluated
            return
        self.visit(node.value)
        self.visit(node.slice)


def _exclude_target(
    target: ast.expr, excluded: set[int], roots: list[ast.expr]
) -> None:
    """Exclude the written name chain of a store target, keep its indices.

    The base of ``x[i] = ...`` is a write, but ``i`` is still read — so
    subscript slices are collected as extra use roots instead of being
    excluded along with the chain.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _exclude_target(elt, excluded, roots)
    elif isinstance(target, ast.Starred):
        _exclude_target(target.value, excluded, roots)
    elif isinstance(target, ast.Subscript):
        roots.append(target.slice)
        _exclude_target(target.value, excluded, roots)
    elif isinstance(target, (ast.Name, ast.Attribute)):
        for node in ast.walk(target):
            if isinstance(node, (ast.Name, ast.Attribute)):
                excluded.add(id(node))


def stmt_uses(stmt: ast.stmt) -> set[str]:
    """Names *read* by this statement's header.

    Store-target bases (the ``x`` of ``x[...] = ...``) and ``out=`` /
    ``np.copyto`` write arguments are writes, not reads, and are
    excluded; subscript indices of store targets are still reads.
    """
    targets, exprs = _header_parts(stmt)
    excluded: set[int] = set()
    roots: list[ast.expr] = list(exprs)
    for target in targets:
        _exclude_target(target, excluded, roots)
    for _, _, expr in _call_mutations(exprs):
        for node in ast.walk(expr):
            excluded.add(id(node))
    collector = _UseCollector(excluded)
    for root in roots:
        collector.visit(root)
    return collector.uses


class ReachingDefinitions:
    """Worklist reaching-definitions over a :class:`CFG`.

    Parameters
    ----------
    cfg:
        The graph to analyze.
    params:
        Names defined on entry (function parameters).
    """

    def __init__(self, cfg: CFG, params: Iterable[str] = ()):
        self.cfg = cfg
        self._gen: dict[int, set[Definition]] = {n.index: set() for n in cfg.nodes}
        by_name: dict[str, set[Definition]] = {}
        binds: dict[int, set[str]] = {n.index: set() for n in cfg.nodes}
        for name in params:
            d = Definition(name=name, node=cfg.entry, kind="param")
            self._gen[cfg.entry].add(d)
            by_name.setdefault(name, set()).add(d)
            binds[cfg.entry].add(name)
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            for name, kind in stmt_defs(node.stmt):
                d = Definition(name=name, node=node.index, kind=kind)
                self._gen[node.index].add(d)
                by_name.setdefault(name, set()).add(d)
                if kind == "bind":
                    binds[node.index].add(name)
        self._kill: dict[int, set[Definition]] = {}
        for node in cfg.nodes:
            killed: set[Definition] = set()
            for name in binds[node.index]:
                killed |= by_name.get(name, set())
            self._kill[node.index] = killed - self._gen[node.index]
        self._in: dict[int, set[Definition]] = {n.index: set() for n in cfg.nodes}
        self._out: dict[int, set[Definition]] = {
            n.index: set(self._gen[n.index]) for n in cfg.nodes
        }
        work = [n.index for n in cfg.nodes]
        while work:
            idx = work.pop()
            node = cfg.nodes[idx]
            new_in: set[Definition] = set()
            for p in node.pred:
                new_in |= self._out[p]
            self._in[idx] = new_in
            new_out = self._gen[idx] | (new_in - self._kill[idx])
            if new_out != self._out[idx]:
                self._out[idx] = new_out
                work.extend(node.succ)

    def reaching_in(self, index: int) -> frozenset[Definition]:
        """Definitions reaching the *entry* of node ``index``."""
        return frozenset(self._in[index])

    def reaching_out(self, index: int) -> frozenset[Definition]:
        """Definitions live at the *exit* of node ``index``."""
        return frozenset(self._out[index])

    def definitions(self) -> frozenset[Definition]:
        """Every definition in the graph (including parameters)."""
        out: set[Definition] = set()
        for gen in self._gen.values():
            out |= gen
        return frozenset(out)

    def def_stmt(self, definition: Definition) -> ast.stmt | None:
        """The statement a definition was made at (None for parameters)."""
        return self.cfg.nodes[definition.node].stmt
