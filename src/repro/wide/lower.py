"""Kernel lowering: run unmodified ``repro.kernels`` sources in lockstep.

The faithful interpreter executes kernel generator functions verbatim.
The wide backend executes the *same* source, recompiled by an AST pass
into a cloned globals namespace in which three builtins are re-bound:

* ``range`` → :func:`repro.wide.lanes.wide_range`
* ``int``   → :func:`repro.wide.lanes.wide_int`
* ``float`` → :func:`repro.wide.lanes.wide_float`

and every helper generator the kernel calls (``group_dot``,
``spmv_csr_item_rows``, …) is recursively replaced by its own lowered
clone. The originals stay untouched — the faithful and wide backends
share one source of truth, so a divergence between them is a backend
bug, never a transcription bug.

One generator runs every work-group of a launch, so control flow that
depends on a per-group value (a :class:`~repro.wide.lanes.GroupMask`)
cannot be ordinary Python control flow. The AST pass lowers the four
group-divergent constructs the kernels use:

* ``while T:`` keeps a running mask (``running &= T``) and iterates
  while any group runs. Stores inside the loop are masked by the active
  groups (:class:`~repro.wide.lanes.Lockstep`), and the names it carries
  (assigned in the body, bound before the loop) are merged as
  ``where(active, new, old)`` after every iteration, so a converged
  group freezes.
* ``if C: break`` as a statement of such a loop retires the groups where
  ``C`` holds.
* ``A if C else B`` is a short-circuiting select: a plain ``if`` when
  ``C`` is a Python scalar (so ``rho / 0.0`` is never evaluated there),
  ``np.where`` when ``C`` is per-group.
* ``and``/``or`` combine per-group masks with ``&``/``|`` and keep
  Python short-circuiting for everything else.

With scalar conditions every construct behaves exactly like the Python
it replaces, so a lowered kernel run per-item on the faithful
interpreter is bitwise identical to the original. Any other branch on a
per-group value raises :class:`~repro.exceptions.WideBackendError` from
``GroupMask.__bool__``. Augmented assignments to plain names are
rewritten as ``x = x op y``: NumPy's in-place operators would otherwise
mutate the snapshot a loop merge restores frozen groups from.

Only functions defined under ``repro.kernels`` are lowered as helpers;
runtime helpers (``kernel_phase``, ``NDItem`` methods, NumPy) pass
through. The CUDA reduction structure (``warp_reduce_sum``/
``block_reduce_cuda``) performs *non-uniform* guarded writes (lane 0
stores its warp's partial, a value other lanes do not hold), which
violates the lockstep uniform-guard contract — its lowered clone raises
:class:`~repro.exceptions.WideBackendError` instead of computing
garbage; use the ``"group"`` reduction style on the wide backend.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
import threading
import types
from typing import Any, Callable

import numpy as np

from repro.exceptions import WideBackendError
from repro.wide.lanes import (
    GroupMask,
    GroupValue,
    as_group,
    current_lockstep,
    wide_float,
    wide_int,
    wide_range,
)

_WIDE_BUILTINS = {"range": wide_range, "int": wide_int, "float": wide_float}

#: Name under which lowered code reaches this module's runtime helpers.
_RUNTIME = "__wide__"

#: Names whose execution structure cannot be expressed in lockstep.
_UNSUPPORTED = {
    "warp_reduce_sum": "the CUDA warp-shuffle butterfly",
    "block_reduce_cuda": "the CUDA shared-memory block reduction",
}

_CACHE: dict[Callable[..., Any], Callable[..., Any]] = {}
_LOCK = threading.Lock()


# -- runtime of the lowered constructs ---------------------------------------


def _truth(value: Any) -> Any:
    """A condition as a per-group mask, or as a Python bool when uniform."""
    if isinstance(value, GroupMask):
        return value
    if isinstance(value, GroupValue):
        return value != 0
    return bool(value)


def and_(first: Any, *rest: Callable[[], Any]) -> Any:
    """``first and rest[0]() and ...``; per-group masks combine with ``&``."""
    value = first
    for thunk in rest:
        if isinstance(value, GroupValue):
            value = _truth(value) & _truth(thunk())
        elif not value:
            return value
        else:
            value = thunk()
    return value


def or_(first: Any, *rest: Callable[[], Any]) -> Any:
    """``first or rest[0]() or ...``; per-group masks combine with ``|``."""
    value = first
    for thunk in rest:
        if isinstance(value, GroupValue):
            value = _truth(value) | _truth(thunk())
        elif value:
            return value
        else:
            value = thunk()
    return value


def select(cond: Any, then: Callable[[], Any], other: Callable[[], Any]) -> Any:
    """``then() if cond else other()``, evaluated per group when ``cond`` is."""
    if isinstance(cond, GroupValue):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return as_group(np.where(_truth(cond), then(), other()))
    return then() if cond else other()


def _per_group(value: Any, groups: int) -> bool:
    """Whether a carried value can differ between groups after a merge."""
    if isinstance(value, (bool, int, float, complex, np.generic, GroupValue)):
        return True
    return isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[0] == groups


class GroupLoop:
    """Runtime state of one lowered ``while`` loop.

    ``running`` holds the groups whose test still holds and that have not
    broken out; ``active`` the groups executing the current iteration
    (``None`` = every group). Outside a lockstep launch every condition
    is a Python scalar and the loop is an ordinary ``while``.
    """

    __slots__ = ("lockstep", "outer", "running", "active", "done", "_entered")

    def __init__(self) -> None:
        self.lockstep = current_lockstep()
        self.outer = None if self.lockstep is None else self.lockstep.active
        self.running = self.outer
        self.active = self.outer
        self.done = False
        self._entered = False

    def _activate(self, mask: Any) -> None:
        if self.lockstep is None:
            return
        if mask is not None and self.outer is None and bool(np.all(mask)):
            mask = None
        self.active = mask
        if self._entered:
            self.lockstep.active = mask
        else:
            self.lockstep.push(mask)
            self._entered = True

    def test(self, cond: Any) -> bool:
        """Evaluate the loop test; ``True`` while any group runs."""
        if isinstance(cond, GroupValue):
            cond = _truth(cond)
            running = cond if self.running is None else self.running & cond
            if not running.any():
                return False
            self.running = running
        elif not cond:
            return False
        self._activate(self.running)
        return True

    def merge(self, new: tuple, old: tuple) -> tuple:
        """Carried names after an iteration: ``new`` where active, else ``old``."""
        active = self.active
        if active is None:
            return new
        groups = self.lockstep.num_groups
        merged = []
        for n, o in zip(new, old):
            if n is o or not (_per_group(n, groups) or _per_group(o, groups)):
                merged.append(n)
            else:
                merged.append(as_group(np.where(active, n, o)))
        return tuple(merged)

    def retire(self, cond: Any, new: tuple, old: tuple) -> tuple:
        """``if cond: break`` — retire the active groups where ``cond`` holds.

        Returns the carried values merged under the groups active before
        the retirement: the lowered code assigns them back and keeps them
        as the snapshot later merges restore from, so a retiring group
        keeps its values from this point. Sets ``done`` once no group is
        left.
        """
        committed = self.merge(new, old)
        if isinstance(cond, GroupValue):
            cond = _truth(cond)
            hit = cond if self.active is None else cond & self.active
            if hit.any():
                keep = ~cond
                self.running = keep if self.running is None else self.running & keep
                remaining = keep if self.active is None else self.active & keep
                if remaining.any():
                    self._activate(remaining)
                else:
                    self.done = True
        elif cond:
            self.done = True
        return committed

    def close(self) -> None:
        """Leave the loop: restore the enclosing active groups."""
        if self._entered:
            self.lockstep.pop()
            self._entered = False


# -- the AST pass --------------------------------------------------------------


def _rt(attr: str) -> ast.expr:
    return ast.Attribute(ast.Name(_RUNTIME, ast.Load()), attr, ast.Load())


def _thunk(expr: ast.expr) -> ast.Lambda:
    no_args = ast.arguments(
        posonlyargs=[], args=[], vararg=None, kwonlyargs=[], kw_defaults=[],
        kwarg=None, defaults=[],
    )
    return ast.Lambda(no_args, expr)


def _names(names: list[str], ctx: ast.expr_context) -> ast.Tuple:
    return ast.Tuple([ast.Name(n, ctx) for n in names], ctx)


def _walk_scope(node: ast.AST):
    """``ast.walk`` that does not descend into nested scopes."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            todo.extend(ast.iter_child_nodes(child))


def _has_yield(node: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom, ast.Await, ast.NamedExpr))
        for n in ast.walk(node)
    )


def _bound_names(node: ast.AST, before: int | None = None) -> set[str]:
    """Names bound by assignment in ``node`` (optionally above line ``before``)."""
    names = set()
    for child in _walk_scope(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            line = getattr(child, "lineno", None)
            if line is not None and (before is None or line < before):
                names.add(child.id)
    return names


def _assigned_in(body: list[ast.stmt]) -> set[str]:
    """Names an assignment (not a ``for``/``with`` target) binds in ``body``."""
    names: set[str] = set()
    for stmt in body:
        for node in [stmt, *_walk_scope(stmt)]:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                        names.add(leaf.id)
    return names


def _is_break_if(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.If)
        and not stmt.orelse
        and len(stmt.body) == 1
        and isinstance(stmt.body[0], ast.Break)
    )


def _own_jumps(body: list[ast.stmt]):
    """``break``/``continue`` statements that belong to the enclosing loop."""
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Break, ast.Continue)):
            yield node
        elif not isinstance(
            node,
            (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            todo.extend(ast.iter_child_nodes(node))
        else:
            # a nested loop's ``else`` clause still belongs to this loop
            todo.extend(getattr(node, "orelse", []))


class _Lowering(ast.NodeTransformer):
    """Lower the group-divergent constructs of one kernel function."""

    def __init__(self, fdef: ast.FunctionDef) -> None:
        self.fdef = fdef
        self.params = {
            a.arg
            for a in (
                *fdef.args.posonlyargs, *fdef.args.args, *fdef.args.kwonlyargs,
                fdef.args.vararg, fdef.args.kwarg,
            )
            if a is not None
        }
        self.loops = 0

    def run(self) -> None:
        self.generic_visit(self.fdef)

    # nested scopes keep their own semantics
    def visit_FunctionDef(self, node):  # noqa: D102
        return node

    visit_AsyncFunctionDef = visit_Lambda = visit_ClassDef = visit_FunctionDef

    def visit_BoolOp(self, node: ast.BoolOp):  # noqa: D102
        node = self.generic_visit(node)
        if any(_has_yield(v) for v in node.values[1:]):
            return node
        helper = "and_" if isinstance(node.op, ast.And) else "or_"
        return ast.Call(
            _rt(helper), [node.values[0], *(_thunk(v) for v in node.values[1:])], []
        )

    def visit_IfExp(self, node: ast.IfExp):  # noqa: D102
        node = self.generic_visit(node)
        if _has_yield(node.body) or _has_yield(node.orelse):
            return node
        return ast.Call(_rt("select"), [node.test, _thunk(node.body), _thunk(node.orelse)], [])

    def visit_AugAssign(self, node: ast.AugAssign):  # noqa: D102
        node = self.generic_visit(node)
        if not isinstance(node.target, ast.Name):
            return node
        load = ast.Name(node.target.id, ast.Load())
        return ast.Assign([node.target], ast.BinOp(load, node.op, node.value))

    def visit_While(self, node: ast.While):  # noqa: D102
        node = self.generic_visit(node)
        if node.orelse:
            return node
        breaks = [s for s in node.body if _is_break_if(s)]
        own = {id(s.body[0]) for s in breaks}
        if any(id(j) not in own for j in _own_jumps(node.body)):
            return node
        bound_before = self.params | _bound_names(self.fdef, before=node.lineno)
        assigned = _assigned_in(node.body)
        carried = sorted(assigned & bound_before)
        # A name first bound inside the loop and read after it would keep
        # a frozen group's later (wrong) value: leave such a loop plain.
        after = {
            n.id
            for n in _walk_scope(self.fdef)
            if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)
            and getattr(n, "lineno", 0) > (node.end_lineno or node.lineno)
        }
        if (assigned - bound_before) & after:
            return node

        loop = f"__wide_loop{self.loops}"
        old = f"__wide_old{self.loops}"
        self.loops += 1
        loop_attr = lambda attr: ast.Attribute(ast.Name(loop, ast.Load()), attr, ast.Load())  # noqa: E731
        snapshot = ast.Assign([ast.Name(old, ast.Store())], _names(carried, ast.Load()))
        body: list[ast.stmt] = [snapshot]
        for stmt in node.body:
            if not _is_break_if(stmt):
                body.append(stmt)
                continue
            body.append(
                ast.Assign(
                    [ast.Name(old, ast.Store())],
                    ast.Call(
                        loop_attr("retire"),
                        [stmt.test, _names(carried, ast.Load()), ast.Name(old, ast.Load())],
                        [],
                    ),
                )
            )
            if carried:
                body.append(
                    ast.Assign([_names(carried, ast.Store())], ast.Name(old, ast.Load()))
                )
            body.append(ast.If(loop_attr("done"), [ast.Break()], []))
        if carried and not _is_break_if(node.body[-1]):
            body.append(
                ast.Assign(
                    [_names(carried, ast.Store())],
                    ast.Call(
                        loop_attr("merge"),
                        [_names(carried, ast.Load()), ast.Name(old, ast.Load())],
                        [],
                    ),
                )
            )
        lowered = ast.While(ast.Call(loop_attr("test"), [node.test], []), body, [])
        enter = ast.Assign(
            [ast.Name(loop, ast.Store())], ast.Call(_rt("GroupLoop"), [], [])
        )
        leave = ast.Expr(ast.Call(loop_attr("close"), [], []))
        result = [enter, ast.Try([lowered], [], [], [leave])]
        for stmt in result:
            ast.copy_location(stmt, node)
        return result


def _lowered_code(fn: Callable[..., Any]) -> types.CodeType | None:
    """Recompile ``fn`` with its group-divergent constructs lowered.

    ``None`` when the source is unavailable or ``fn`` closes over
    variables; the caller then clones the code object as is (a
    group-divergent branch in it still fails loudly).
    """
    if fn.__code__.co_freevars:
        return None
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError):
        return None
    fdef = tree.body[0] if tree.body else None
    if not isinstance(fdef, ast.FunctionDef) or fdef.name != fn.__name__:
        return None
    fdef.decorator_list = []
    _Lowering(fdef).run()
    ast.fix_missing_locations(tree)
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    module = compile(tree, fn.__code__.co_filename, "exec")
    return next(
        c for c in module.co_consts
        if isinstance(c, types.CodeType) and c.co_name == fn.__name__
    )


def _unsupported_stub(name: str, why: str) -> Callable[..., Any]:
    def stub(*_args: Any, **_kwargs: Any):
        raise WideBackendError(
            f"{name} ({why}) performs non-uniform guarded writes and cannot "
            f"run on the lockstep wide backend; use the 'group' reduction "
            f"style instead"
        )
        yield  # pragma: no cover - marks the stub as a generator function

    stub.__name__ = name
    return stub


def lower_kernel(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The lockstep clone of one kernel (or kernel helper) function.

    Clones are cached per original function, so the AST pass runs once
    per function per process, not once per launch. Serving workers launch
    from several threads: a clone becomes visible to other threads only
    once every helper it calls is lowered too.
    """
    cached = _CACHE.get(fn)
    if cached is not None:
        return cached
    with _LOCK:
        pending: dict[Callable[..., Any], Callable[..., Any]] = {}
        clone = _lower(fn, pending)
        _CACHE.update(pending)
    return clone


def _lower(fn: Callable[..., Any], pending: dict) -> Callable[..., Any]:
    done = _CACHE.get(fn) or pending.get(fn)
    if done is not None:
        return done
    if fn.__name__ in _UNSUPPORTED:
        pending[fn] = _unsupported_stub(fn.__name__, _UNSUPPORTED[fn.__name__])
        return pending[fn]

    # Register the clone before recursing: a module's globals contain the
    # module's own functions (including ``fn`` itself), so self-reference
    # must resolve through ``pending``, not recurse forever. Mutating ``g``
    # afterwards is safe — the function holds the dict by reference.
    g = dict(fn.__globals__)
    code = _lowered_code(fn) or fn.__code__
    clone = types.FunctionType(code, g, fn.__name__, fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    clone.__doc__ = fn.__doc__
    pending[fn] = clone

    g.update(_WIDE_BUILTINS)
    g[_RUNTIME] = sys.modules[__name__]
    for name, value in fn.__globals__.items():
        if isinstance(value, types.FunctionType) and (
            value.__module__ or ""
        ).startswith("repro.kernels"):
            g[name] = _lower(value, pending)
    return clone
