"""Lockstep execution of ND-range kernels over a NumPy lane space.

Where :func:`repro.sycl.executor.launch` runs one Python generator per
work-item and assembles collectives once every member of a scope has
arrived, :func:`wide_launch` runs ONE generator for the whole launch:
every per-item scalar is an array over the ``(groups, items)`` lane
space, barriers are no-ops (lockstep order *is* barrier order — all
lanes of all groups reach each program point together by construction),
and each collective of the :class:`~repro.sycl.group.SyncOp` vocabulary
maps to a vectorized NumPy equivalent over the item axis of a
C-contiguous ``(groups, items)`` operand:

====================  =====================================================
``reduce`` (group)    ``ufunc.reduce`` along the item axis → per-group column
``reduce`` (sg)       ``(groups, num_sub_groups, sg_size)`` reshape, reduce
``broadcast``         lane/column pick, repeated back over the scope
``*_scan``            ``ufunc.accumulate`` along the item axis
``shuffle``           per-sub-group fancy indexing (own value off-range)
``any`` / ``all``     ``np.any`` / ``np.all`` along the item axis
====================  =====================================================

Group-scope reductions return :class:`~repro.wide.lanes.GroupValue`
columns, so the kernels' group-uniform control flow (``while res2 >
threshold2``) becomes per-group control flow that the lowering pass
(:mod:`repro.wide.lower`) runs under an active-group mask; a
single-sub-group reduction does the same, which is the case the
small-matrix solver path relies on. Reducing C-contiguous rows keeps
each group's result bitwise identical to reducing that group's lanes
alone: NumPy sums a contiguous row pairwise, exactly as it sums a 1-D
lane vector, but sums a strided (Fortran-ordered) axis element by
element.

When a sanitizer or profiler is installed the launch transparently falls
back to the faithful interpreter: shadow-memory, convergence and counter
checking are defined per work-item and have no meaning over a collapsed
lane space (``docs/wide_backend.md`` discusses exactly which checks do
not apply and why the fallback is the honest answer).
"""

from __future__ import annotations

import inspect
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro.exceptions import KernelFaultError
from repro.observability.tracer import current_tracer
from repro.profile.context import current_profiler
from repro.sanitize.context import current_sanitizer
from repro.sycl.device import SyclDevice
from repro.sycl.executor import LaunchStats, launch
from repro.sycl.group import GROUP, SUB_GROUP, NDItem, SyncOp
from repro.sycl.memory import (
    LocalSpec,
    check_local_capacity,
    poison_local,
    total_local_bytes,
)
from repro.sycl.ndrange import NDRange
from repro.wide.lanes import (
    LaneArray,
    Lockstep,
    WideArray,
    enter_lockstep,
    exit_lockstep,
    group_column,
    lane_array,
)
from repro.wide.lower import lower_kernel

_REDUCERS = {"sum": np.sum, "prod": np.prod, "max": np.max, "min": np.min}
_ACCUMULATORS = {
    "sum": np.add.accumulate,
    "prod": np.multiply.accumulate,
    "max": np.maximum.accumulate,
    "min": np.minimum.accumulate,
}
_IDENTITY = {"sum": 0.0, "prod": 1.0, "max": -np.inf, "min": np.inf}


class WideItem(NDItem):
    """The launch-wide ``nd_item``: ids carry the ``(groups, items)`` lane space.

    ``group_id`` is the ``(groups, 1)`` column of group ids — indexing a
    kernel argument with it (``values[sysid]``) selects every group's own
    row. ``local_id``/``lane``/``sub_group_id`` are ``(items,)``
    :class:`~repro.wide.lanes.LaneArray` vectors shared by all groups and
    ``global_id`` is ``(groups, items)``; their comparisons produce truthy
    lane masks, so unmodified kernel sources index and guard with them
    exactly as they do per-item. The SyncOp factory methods are inherited
    from :class:`~repro.sycl.group.NDItem` unchanged — the op vocabulary
    is the backend seam.
    """

    def __init__(self, ndrange: NDRange) -> None:
        wg = ndrange.local_size
        lids = np.arange(wg, dtype=np.int64)
        groups = np.arange(ndrange.num_groups, dtype=np.int64)
        self.ndrange = ndrange
        self.group_id = group_column(groups)
        self.global_id: LaneArray = lane_array(groups[:, None] * wg + lids)
        self.local_id: LaneArray = lane_array(lids)
        self.sub_group_id: LaneArray = lane_array(lids // ndrange.sub_group_size)
        self.lane: LaneArray = lane_array(lids % ndrange.sub_group_size)

    def any_of_group(self, predicate: Any) -> SyncOp:
        """Item-axis ``any``: keep the raw per-lane predicate vector."""
        return SyncOp("any", GROUP, predicate, ())

    def all_of_group(self, predicate: Any) -> SyncOp:
        """Item-axis ``all``: keep the raw per-lane predicate vector."""
        return SyncOp("all", GROUP, predicate, ())


def _as_lanes(value: Any, groups: int, width: int) -> np.ndarray:
    """One contribution per lane of every group, as C-contiguous rows.

    Scalars are uniform, ``(items,)`` vectors are the same in every group
    and ``(groups, 1)`` columns are uniform within a group. The copy to
    C order is what keeps each group's reduction bitwise equal to its
    1-D lane reduction (see the module docstring).
    """
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full((groups, width), arr[()])
    fits = (arr.ndim == 1 and arr.shape[0] == width) or (
        arr.ndim == 2 and arr.shape[0] == groups and arr.shape[1] in (1, width)
    )
    if not fits:
        raise KernelFaultError(
            f"collective operand has shape {arr.shape}; the lane space is "
            f"({groups}, {width})"
        )
    if arr.shape != (groups, width):
        arr = np.broadcast_to(arr, (groups, width))
    return np.ascontiguousarray(arr)


def _per_scope(per_sg: np.ndarray, nsg: int, sgs: int) -> Any:
    """A per-sub-group result back over its scope's lanes."""
    if nsg == 1:
        return group_column(per_sg[:, 0])
    return np.repeat(per_sg, sgs, axis=1)


def evaluate_wide_collective(op: SyncOp, ndrange: NDRange) -> Any:
    """Vectorized result of one collective for every lane of every group.

    Returns what the kernel's ``yield`` expression evaluates to: a
    ``(groups, 1)`` :class:`~repro.wide.lanes.GroupValue` for group-scope
    reductions/broadcasts/predicates (and for single-sub-group
    reductions), a ``(groups, items)`` array otherwise.
    """
    groups = ndrange.num_groups
    wg = ndrange.local_size
    sgs = ndrange.sub_group_size
    nsg = ndrange.sub_groups_per_group
    kind = op.kind
    if kind == "barrier":
        return None

    if op.scope == GROUP:
        v = _as_lanes(op.value, groups, wg)
        if kind == "reduce":
            return group_column(_REDUCERS[op.params[0]](v, axis=1))
        if kind == "broadcast":
            return group_column(v[:, op.params[0]])
        if kind in ("inclusive_scan", "exclusive_scan"):
            acc = _ACCUMULATORS[op.params[0]](np.asarray(v, dtype=np.float64), axis=1)
            if kind == "exclusive_scan":
                shifted = np.empty_like(acc)
                shifted[:, 0] = _IDENTITY[op.params[0]]
                shifted[:, 1:] = acc[:, :-1]
                return shifted
            return acc
        if kind == "any":
            return group_column(np.any(v, axis=1))
        if kind == "all":
            return group_column(np.all(v, axis=1))
        raise KernelFaultError(f"unknown group collective kind {kind!r}")

    if op.scope != SUB_GROUP:
        raise KernelFaultError(f"unknown collective scope {op.scope!r}")
    v = _as_lanes(op.value, groups, wg).reshape(groups, nsg, sgs)
    if kind == "reduce":
        return _per_scope(_REDUCERS[op.params[0]](v, axis=2), nsg, sgs)
    if kind == "broadcast":
        return _per_scope(v[:, :, op.params[0]], nsg, sgs)
    if kind == "shuffle":
        direction, delta = op.params
        lanes = np.arange(sgs)
        if direction == "down":
            src = lanes + delta
        elif direction == "up":
            src = lanes - delta
        else:  # xor
            src = lanes ^ delta
        result = v.copy()
        valid = (src >= 0) & (src < sgs)
        result[:, :, valid] = v[:, :, src[valid]]
        return result.reshape(groups, wg)
    raise KernelFaultError(f"unknown sub-group collective kind {kind!r}")


def _run_lockstep(
    produced: Any, ndrange: NDRange, lockstep: Lockstep, stats: LaunchStats
) -> None:
    """Drive the launch's single generator, answering each collective."""
    nsg = ndrange.sub_groups_per_group
    try:
        op = produced.send(None)
        while True:
            if not isinstance(op, SyncOp):
                raise KernelFaultError(
                    f"the launch yielded {op!r}; kernels must only "
                    f"yield SyncOp objects (barrier / group functions)"
                )
            result = evaluate_wide_collective(op, ndrange)
            # one assembly per scope instance of every active group,
            # matching the faithful executor's accounting (each sub-group
            # assembles its own; a converged group assembles nothing)
            per_group = nsg if op.scope == SUB_GROUP else 1
            stats.record_collective(op.kind, op.scope, per_group * lockstep.active_count())
            op = produced.send(result)
    except StopIteration:
        pass
    finally:
        produced.close()


def wide_launch(
    device: SyclDevice,
    ndrange: NDRange,
    kernel: Callable[..., Any],
    args: tuple = (),
    local_specs: list[LocalSpec] | None = None,
    poison_slm: bool = False,
    name: str | None = None,
) -> LaunchStats:
    """Validate and execute a full ND-range launch in one lockstep pass.

    Same contract as :func:`repro.sycl.executor.launch` — identical size
    and SLM validation, identical :class:`LaunchStats` shape — but the
    per-work-item interpreter is replaced by lane-space array execution
    of every work-group at once. With a sanitizer or profiler installed,
    falls back to the faithful executor so per-item checking semantics
    are preserved.
    """
    if current_sanitizer() is not None or current_profiler() is not None:
        return launch(
            device,
            ndrange,
            kernel,
            args=args,
            local_specs=local_specs,
            poison_slm=poison_slm,
            name=name,
        )
    device.validate_work_group_size(ndrange.local_size)
    device.validate_sub_group_size(ndrange.sub_group_size)
    specs = list(local_specs or [])
    check_local_capacity(specs, device.slm_bytes_per_cu, device.name)

    stats = LaunchStats(
        num_groups=ndrange.num_groups,
        local_size=ndrange.local_size,
        sub_group_size=ndrange.sub_group_size,
        slm_bytes_per_group=total_local_bytes(specs),
    )
    lowered = lower_kernel(kernel)
    item = WideItem(ndrange)
    lockstep = Lockstep(item.group_id)
    wrapped_args = tuple(
        WideArray(a, lockstep=lockstep) if isinstance(a, np.ndarray) else a for a in args
    )
    # every group's SLM, group axis first
    raw = SimpleNamespace(
        **{
            spec.name: np.zeros((ndrange.num_groups, *spec.shape), dtype=spec.dtype)
            for spec in specs
        }
    )
    if poison_slm:
        poison_local(raw)
    local = SimpleNamespace(
        **{
            key: WideArray(value, grouped=True, lockstep=lockstep)
            for key, value in vars(raw).items()
        }
    )
    token = enter_lockstep(lockstep)
    try:
        # A group that already converged keeps computing on its frozen
        # state until the launch ends (its stores are masked off); the
        # floating-point warnings that garbage may raise mean nothing.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            produced = lowered(item, local, *wrapped_args)
            if inspect.isgenerator(produced):
                _run_lockstep(produced, ndrange, lockstep, stats)
    finally:
        exit_lockstep(token)

    tracer = current_tracer()
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.counter("sycl.launches").inc()
        metrics.counter("wide.launches").inc()
        metrics.counter("sycl.work_groups").inc(stats.num_groups)
        metrics.histogram("sycl.slm_bytes_per_group").observe(
            float(stats.slm_bytes_per_group)
        )
        for key, count in stats.collective_counts.items():
            metrics.counter(f"sycl.collectives.{key}").inc(count)
        tracer.annotate(device=device.name, backend="wide")
    return stats
