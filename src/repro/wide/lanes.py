"""The lane space: array types that let unmodified kernels run in lockstep.

The wide backend executes *every* work-group of a launch with one Python
generator. Every per-work-item scalar of the faithful interpreter becomes
a NumPy array over the two-dimensional lane space ``(groups, items)``,
and the kernel sources in :mod:`repro.kernels` run over it unchanged
because the lowering pass (:mod:`repro.wide.lower`) shadows the three
builtins they use for control flow and scalarization and rewrites their
group-divergent control flow:

* ``range`` → :func:`wide_range` — a strided loop whose start/stop/step
  involve lane arrays becomes a sequence of lockstep *rounds*; each round
  yields a :class:`LaneIndex` carrying the per-lane row and an activity
  mask (ragged trip counts are padded to the longest lane). All groups of
  a launch share ``n``, ``row_ptrs``, ``col_idxs`` and the work-group
  size, so every lane-varying loop has the same rounds in every group and
  the item axis alone decides them.
* ``float``/``int`` → :func:`wide_float`/:func:`wide_int` — the faithful
  per-item scalarizations become dtype casts.

Values have one of three shapes: ``(items,)`` for lane ids and data read
through shared index arrays, ``(groups, items)`` for per-lane data of
every group, and ``(groups, 1)`` — a :class:`GroupValue` — for the
per-group scalars that reductions, broadcasts and ``thresholds[sysid]``
produce. The three broadcast against each other with plain NumPy rules.

:class:`WideArray` wraps every kernel argument and SLM vector. SLM is
*grouped* (``(groups, n)``; every key indexes the per-group part), kernel
arguments are *shared* and take the launch's group ids
(``item.group_id``) as their leading key (``values[sysid]`` →
``(groups, nnz)``). Indexing with a :class:`LaneIndex` is a masked gather
(inactive lanes read as 0, which is sound because every in-kernel
accumulation is a sum whose masked terms multiply to zero) and assignment
is a masked scatter (inactive lanes never write). Inside a
group-divergent loop every store is also masked by the launch's active
groups (:class:`Lockstep`), so a frozen group's memory never changes.

Comparisons on :class:`LaneArray` ids (``lid == 0``, ``lane == 0``)
return a :class:`LaneMask`, which is *truthy*: the guarded body executes
for all lanes. This is sound for the SYCL-style kernels' single-writer
guards because every guarded write is either a per-group scalar store
(``out_iters[sysid] = iters``) or a scatter whose value is uniform
across the lanes that share a target element (``y[row] = total`` after a
sub-group reduce) — see ``docs/wide_backend.md`` for the full contract.
Comparisons on a :class:`GroupValue` return a :class:`GroupMask`, whose
truth value *raises*: a branch that can go different ways in different
groups is only defined for the constructs the lowering pass rewrites.
"""

from __future__ import annotations

import builtins
import contextvars
from typing import Any, Iterator

import numpy as np

from repro.exceptions import WideBackendError

__all__ = [
    "GroupMask",
    "GroupValue",
    "LaneArray",
    "LaneIndex",
    "LaneMask",
    "Lockstep",
    "WideArray",
    "current_lockstep",
    "wide_float",
    "wide_int",
    "wide_range",
]


class LaneMask(np.ndarray):
    """Boolean lane vector produced by comparing lane ids.

    Truthiness is ``True`` regardless of content so that lane-guarded
    blocks (``if lane == 0:``) execute in lockstep; the guard's masking
    effect is realized by the write semantics, not by skipping the block.
    """

    def __bool__(self) -> bool:  # noqa: D105 - uniform-guard convention
        return True


class LaneArray(np.ndarray):
    """A per-lane id vector (``local_id``, ``lane``, ``sub_group_id``).

    Behaves like a plain integer ndarray except that comparisons return
    :class:`LaneMask` so id-based guards stay executable under lockstep.
    """

    def _mask(self, result: Any) -> Any:
        if isinstance(result, np.ndarray):
            return np.asarray(result).view(LaneMask)
        return result

    def __eq__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__eq__(self, other))

    def __ne__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__ne__(self, other))

    def __lt__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__lt__(self, other))

    def __le__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__le__(self, other))

    def __gt__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__gt__(self, other))

    def __ge__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__ge__(self, other))

    __hash__ = None


def lane_array(values: Any) -> LaneArray:
    """Build a :class:`LaneArray` from any integer sequence."""
    return np.asarray(values, dtype=np.int64).view(LaneArray)


class GroupValue(np.ndarray):
    """One scalar per work-group: a ``(groups, 1)`` column.

    The column broadcasts against ``(groups, items)`` lane data, so
    ``alpha * slm.p[row]`` scales each group's lanes by its own ``alpha``.
    Arithmetic keeps the type while the result is still a column (a
    boolean column is a :class:`GroupMask`); a result with an item axis
    is a plain ndarray.

    ``**`` with a scalar exponent evaluates Python's float power group by
    group: the kernels' ``res2 ** 0.5`` replaced a Python float, and
    NumPy's vectorized power differs from the C library's ``pow`` in the
    last ulp for some inputs.

    Truth testing raises :class:`~repro.exceptions.WideBackendError`.
    """

    def __array_wrap__(self, array, context=None, return_scalar=False):  # noqa: D105
        if return_scalar:
            return array[()]
        return as_group(array)

    def __bool__(self) -> bool:  # noqa: D105
        raise WideBackendError(
            "a branch depends on a value that can differ between work-groups; "
            "the wide backend lowers only `while`, `if ...: break`, "
            "`a if c else b` and `and`/`or` over per-group conditions"
        )

    def __pow__(self, exponent):  # noqa: D105
        if self.dtype == np.float64 and np.ndim(exponent) == 0:
            powered = [value ** exponent for value in np.asarray(self).ravel().tolist()]
            return np.array(powered, dtype=np.float64).reshape(self.shape).view(GroupValue)
        return np.ndarray.__pow__(self, exponent)


class GroupMask(GroupValue):
    """A per-group boolean column (``res2 > threshold2``).

    ``&``/``|``/``~`` combine masks; ``bool()`` raises, so an unlowered
    group-divergent ``if``/``while`` fails loudly instead of silently
    following one group's branch.
    """


def as_group(array: Any) -> Any:
    """Type a ``(groups, 1)`` column as a :class:`GroupValue`/:class:`GroupMask`.

    Anything else comes back as a plain ndarray (or unchanged scalar).
    """
    if not isinstance(array, np.ndarray):
        return array
    if array.ndim == 2 and array.shape[1] == 1:
        return array.view(GroupMask if array.dtype == np.bool_ else GroupValue)
    return array.view(np.ndarray)


def group_column(values: Any) -> GroupValue:
    """Build a :class:`GroupValue` column from one value per group."""
    return as_group(np.asarray(values).reshape(-1, 1))


class Lockstep:
    """State of one lockstep launch: its group ids and active groups.

    ``active`` is ``None`` while every group executes, otherwise the
    :class:`GroupMask` of the groups still running the innermost
    group-divergent loop. :class:`WideArray` stores honour it; the
    executor counts collectives for the active groups only.
    """

    __slots__ = ("group_ids", "num_groups", "active", "_saved")

    def __init__(self, group_ids: GroupValue) -> None:
        self.group_ids = group_ids
        self.num_groups = int(group_ids.shape[0])
        self.active: GroupMask | None = None
        self._saved: list = []

    def push(self, mask: GroupMask | None) -> None:
        """Enter a group-divergent loop whose active groups are ``mask``."""
        self._saved.append(self.active)
        self.active = mask

    def pop(self) -> None:
        """Leave the innermost group-divergent loop."""
        self.active = self._saved.pop()

    def active_count(self) -> int:
        """How many groups execute the current program point."""
        if self.active is None:
            return self.num_groups
        return int(np.count_nonzero(np.asarray(self.active)))


_CURRENT: contextvars.ContextVar[Lockstep | None] = contextvars.ContextVar(
    "repro_wide_lockstep", default=None
)


def current_lockstep() -> Lockstep | None:
    """The lockstep launch running in this context (``None`` outside one)."""
    return _CURRENT.get()


def enter_lockstep(lockstep: Lockstep) -> contextvars.Token:
    """Make ``lockstep`` current; undo with :func:`exit_lockstep`."""
    return _CURRENT.set(lockstep)


def exit_lockstep(token: contextvars.Token) -> None:
    """Restore the lockstep launch that was current before ``token``."""
    _CURRENT.reset(token)


class LaneIndex:
    """One lockstep round of a strided loop: per-lane rows + activity mask.

    Produced by :func:`wide_range`; consumed by :class:`WideArray` as a
    masked gather/scatter key. Integer offsets (``row + 1`` in the CSR
    row-pointer lookups) shift the rows and keep the mask.

    When the rows are consecutive (``range(lid, n, wg)``) and the active
    lanes form a prefix, ``lo``/``count`` describe them as the slice
    ``lo:lo + count`` and accesses use basic slicing instead of fancy
    indexing.
    """

    __slots__ = ("rows", "mask", "_all_active", "lo", "count", "_safe")

    def __init__(
        self,
        rows: Any,
        mask: Any,
        all_active: bool | None = None,
        lo: int | None = None,
        count: int | None = None,
        safe: np.ndarray | None = None,
    ) -> None:
        self.rows = np.asarray(rows, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=bool)
        self._all_active = all_active
        self.lo = lo
        self.count = count
        self._safe = safe

    @property
    def all_active(self) -> bool:
        """Whether every lane is active (cached: the mask is immutable)."""
        if self._all_active is None:
            self._all_active = bool(self.mask.all())
        return self._all_active

    @property
    def safe(self) -> np.ndarray:
        """The rows with inactive lanes redirected to row 0 (always in bounds)."""
        if self._safe is None:
            self._safe = np.where(self.mask, self.rows, 0)
        return self._safe

    def _shift(self, offset: int) -> "LaneIndex":
        lo = None if self.lo is None else self.lo + offset
        return LaneIndex(self.rows + offset, self.mask, self._all_active, lo, self.count)

    def __add__(self, other: int) -> "LaneIndex":
        return self._shift(int(other))

    __radd__ = __add__

    def __sub__(self, other: int) -> "LaneIndex":
        return self._shift(-int(other))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaneIndex(rows={self.rows.tolist()}, mask={self.mask.tolist()})"


def wide_range(*args: Any) -> Any:
    """``range`` over possibly-per-lane bounds: lockstep masked rounds.

    With plain integer arguments this is the builtin ``range`` (the ELL
    slot loop must stay an ordinary scalar loop). When start or stop
    carry a lane axis, the loop runs ``max`` trip-count rounds; each
    round is a :class:`LaneIndex` whose mask disables the lanes that
    already exhausted their own trip count — the wide equivalent of the
    faithful interpreter's per-item loop bounds.
    """
    if not any(isinstance(a, np.ndarray) for a in args):
        return builtins.range(*args)
    if len(args) == 1:
        start, stop, step = 0, args[0], 1
    elif len(args) == 2:
        start, stop = args
        step = 1
    else:
        start, stop, step = args
    step = int(np.asarray(step))
    if step <= 0:
        raise ValueError(f"wide_range requires a positive step, got {step}")
    if isinstance(start, np.ndarray) and start.ndim == 1 and not isinstance(stop, np.ndarray):
        start = np.asarray(start, dtype=np.int64)
        if _consecutive(start):
            return _ConsecutiveRounds(int(start[0]), start.shape[0], int(stop), step)
    start = np.asarray(start, dtype=np.int64)
    stop = np.asarray(stop, dtype=np.int64)
    if start.shape != stop.shape:
        start, stop = np.broadcast_arrays(start, stop)
    return _WideRangeRounds(start, stop, step)


def _consecutive(start: np.ndarray) -> bool:
    """Whether a 1-D start vector is ``s, s + 1, s + 2, ...``."""
    size = start.shape[0]
    if size == 0 or int(start[-1]) - int(start[0]) != size - 1:
        return False
    return bool((np.diff(start) == 1).all())


class _WideRangeRounds:
    """Iterator over the lockstep rounds of one :func:`wide_range` loop."""

    __slots__ = ("start", "trips", "step")

    def __init__(self, start: np.ndarray, stop: np.ndarray, step: int) -> None:
        self.start = start
        self.step = step
        span = stop - start
        self.trips = np.maximum(0, span if step == 1 else -(-span // step))

    def __iter__(self) -> Iterator[LaneIndex]:
        rounds = int(self.trips.max(initial=0))
        if rounds == 0:
            return
        # Rounds below every lane's trip count are fully active: share one
        # mask and skip the per-access ``mask.all()`` re-check downstream.
        uniform = int(self.trips.min(initial=0))
        full = np.ones(self.start.shape, dtype=bool)
        # every round's rows, masks and in-bounds rows at once
        t = np.arange(rounds, dtype=np.int64).reshape((rounds,) + (1,) * self.start.ndim)
        rows = self.start + t * self.step
        mask = t < self.trips
        safe = np.where(mask, rows, 0)
        for k in range(rounds):
            if k < uniform:
                yield LaneIndex(rows[k], full, True, safe=rows[k])
            else:
                yield LaneIndex(rows[k], mask[k], False, safe=safe[k])


class _ConsecutiveRounds:
    """Rounds of ``range(lid, n, wg)``-style loops: consecutive rows, shared stop.

    Every round's rows are consecutive and its active lanes a prefix, so
    each :class:`LaneIndex` also carries the slice ``lo:lo + count``.
    """

    __slots__ = ("first", "width", "stop", "step")

    def __init__(self, first: int, width: int, stop: int, step: int) -> None:
        self.first, self.width, self.stop, self.step = first, width, stop, step

    def __iter__(self) -> Iterator[LaneIndex]:
        width, step = self.width, self.step
        lanes = np.arange(width, dtype=np.int64)
        full = np.ones(width, dtype=bool)
        lo = self.first
        while lo < self.stop:
            count = min(width, self.stop - lo)
            if count == width:
                yield LaneIndex(lanes + lo, full, True, lo, count)
            else:
                yield LaneIndex(lanes + lo, lanes < count, False, lo, count)
            lo += step


def wide_float(value: Any) -> Any:
    """``float`` over the lane space: cast arrays to float64, scalars to float.

    Mirrors the faithful kernels' per-item ``float(...)`` upcast (single
    precision operands promote to float64 arithmetic inside the kernel).
    A :class:`GroupValue` stays one.
    """
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return float(value)


def wide_int(value: Any) -> Any:
    """``int`` over the lane space: cast arrays to int64, scalars to int."""
    if isinstance(value, np.ndarray):
        return value.astype(np.int64, copy=False)
    return int(value)


def _lanes_of(data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``data[..., rows]``, spelled out for the common ranks (it is faster)."""
    if data.ndim == 1:
        return data[rows]
    if data.ndim == 2:
        return data[:, rows]
    return data[..., rows]


def _take_lanes(data: np.ndarray, index: LaneIndex) -> np.ndarray:
    """Gather along the last axis; inactive lanes read 0 (their terms vanish in sums)."""
    lo, count = index.lo, index.count
    if lo is not None and lo + count <= data.shape[-1]:
        width = index.rows.shape[-1]
        if count == width:
            return data[..., lo : lo + count].copy()
        out = np.zeros(data.shape[:-1] + (width,), dtype=data.dtype)
        out[..., :count] = data[..., lo : lo + count]
        return out
    if index.all_active:
        return _lanes_of(data, index.rows)
    out = _lanes_of(data, index.safe)
    return np.where(index.mask, out, out.dtype.type(0))


def _group_axis_mask(groups: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a ``(groups, 1)`` mask to broadcast along axis 0 of ``ndim`` dims."""
    return np.asarray(groups).reshape((-1,) + (1,) * (ndim - 1))


def _put_lanes(data: np.ndarray, index: LaneIndex, value: Any, groups: Any) -> None:
    """Masked scatter along the last axis: only active lanes of active groups write.

    ``data`` is ``(groups, m)`` (``groups`` masks its rows; ``None`` means
    every group) or a shared ``(m,)`` vector. Duplicate targets (all lanes
    of a sub-group storing the same reduced total to their shared row) are
    benign because the value is uniform across the duplicates — NumPy
    keeps one of them.
    """
    width = index.rows.shape[-1]
    value = np.asarray(value)
    # scalars and (groups, 1) columns broadcast as they are
    has_lanes = value.ndim > 0 and value.shape[-1] == width
    lo, count = index.lo, index.count
    if lo is not None and lo + count <= data.shape[-1]:
        target = data[..., lo : lo + count]
        source = value[..., :count] if has_lanes else value
        if groups is None:
            target[...] = source
        else:
            np.copyto(target, source, casting="unsafe", where=_group_axis_mask(groups, data.ndim))
        return
    if index.all_active:
        rows, source = index.rows, value
    else:
        rows = index.rows[index.mask]
        source = value[..., index.mask] if has_lanes else value
    if groups is None:
        data[..., rows] = source
        return
    current = _lanes_of(data, rows)
    np.copyto(current, source, casting="unsafe", where=_group_axis_mask(groups, data.ndim))
    data[..., rows] = current


_BASIC = (int, np.integer, slice)


class WideArray:
    """Lane-aware view over one kernel argument or SLM array.

    ``grouped`` arrays (SLM, ``values[sysid]``) carry the group axis
    first and every key indexes the per-group part; ``shape``/``len``
    describe one group. Shared arrays (kernel arguments) take the
    launch's group ids as an optional leading key. :class:`LaneIndex`
    keys — standalone or trailing a tuple key — perform the masked
    gather/scatter described in the module docstring; per-group keys
    (``res_history[sysid, iters]``) index each group's own element; raw
    integer arrays (the column gathers of the SpMV inner loop) fancy-index
    the item axis directly. Stores honour the lockstep's active groups.
    """

    __slots__ = ("data", "grouped", "lockstep")

    def __init__(
        self, data: np.ndarray, grouped: bool = False, lockstep: Lockstep | None = None
    ) -> None:
        self.data = np.asarray(data)
        self.grouped = grouped
        self.lockstep = lockstep

    # -- ndarray façade -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[1:] if self.grouped else self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.data, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WideArray({self.data!r}, grouped={self.grouped})"

    # -- lane-aware indexing ------------------------------------------------

    def _locate(self, key: Any) -> tuple[np.ndarray, bool, tuple]:
        """Split ``key`` into (array, whether its axis 0 is the group axis, rest)."""
        parts = key if isinstance(key, tuple) else (key,)
        if self.grouped:
            return self.data, True, parts
        if parts and isinstance(parts[0], GroupValue):
            ls = self.lockstep
            if ls is None or parts[0] is not ls.group_ids:
                raise WideBackendError(
                    "a kernel argument's leading per-group key must be the "
                    "launch's own item.group_id"
                )
            if self.data.shape[0] < ls.num_groups:
                raise IndexError(
                    f"group id {ls.num_groups - 1} out of bounds for axis 0 "
                    f"with size {self.data.shape[0]}"
                )
            return self.data[: ls.num_groups], True, parts[1:]
        return self.data, False, parts

    def _active(self) -> Any:
        return None if self.lockstep is None else self.lockstep.active

    def _per_group_index(self, base: np.ndarray, parts: tuple) -> tuple:
        """Fancy index selecting one element per group (``res_history[sysid, iters]``).

        Inactive groups index element 0 instead of their own key (a frozen
        group's ``iters`` may run past the end), so reads stay in bounds and
        a masked read-modify-write leaves their memory unchanged.
        """
        groups = self._active()
        index = [np.arange(base.shape[0], dtype=np.int64)[:, None]]
        for part in parts:
            if isinstance(part, GroupValue):
                part = np.asarray(part)
                if groups is not None:
                    part = np.where(np.asarray(groups), part, 0)
            elif not isinstance(part, _BASIC):
                raise WideBackendError(f"a per-group index cannot be combined with {part!r}")
            index.append(part)
        return tuple(index)

    def __getitem__(self, key: Any) -> Any:
        # the hot keys of the kernels' inner loops first
        if isinstance(key, LaneIndex):
            return _take_lanes(self.data, key)
        if isinstance(key, np.ndarray) and not isinstance(key, GroupValue):
            return _lanes_of(self.data, key) if self.grouped else self.data[key]
        base, grouped, parts = self._locate(key)
        if parts and isinstance(parts[-1], LaneIndex):
            lead = (slice(None),) * grouped + parts[:-1]
            return _take_lanes(base[lead], parts[-1])
        if not grouped:
            value = base[key]
            if isinstance(value, np.ndarray) and not any(
                isinstance(p, np.ndarray) for p in parts
            ):
                return WideArray(value, lockstep=self.lockstep)
            return value
        if any(isinstance(p, GroupValue) for p in parts):
            return as_group(base[self._per_group_index(base, parts)])
        value = base[(slice(None),) + parts]
        if value.ndim == 1:
            return group_column(value.copy())
        if any(isinstance(p, np.ndarray) for p in parts):
            return value
        return WideArray(value, grouped=True, lockstep=self.lockstep)

    def __setitem__(self, key: Any, value: Any) -> None:
        if isinstance(key, LaneIndex):
            _put_lanes(self.data, key, value, self._active() if self.grouped else None)
            return
        base, grouped, parts = self._locate(key)
        groups = self._active() if grouped else None
        if parts and isinstance(parts[-1], LaneIndex):
            lead = (slice(None),) * grouped + parts[:-1]
            _put_lanes(base[lead], parts[-1], value, groups)
            return
        if not grouped:
            base[key] = value
            return
        if any(isinstance(p, GroupValue) for p in parts):
            index = self._per_group_index(base, parts)
        else:
            index = (slice(None),) + parts
        value = np.asarray(value)
        target = base[index]
        if value.ndim == 2 and value.shape[1] == 1 and target.ndim == 1:
            value = value[:, 0]
        if groups is None:
            base[index] = value
            return
        np.copyto(
            target,
            np.broadcast_to(value, target.shape),
            casting="unsafe",
            where=_group_axis_mask(groups, target.ndim),
        )
        base[index] = target
