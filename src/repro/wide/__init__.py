"""repro.wide — NumPy-vectorized lockstep execution backend.

The third execution backend (after the faithful SYCL interpreter and the
CUDA-dialect stream): one Python generator per *launch* instead of one
per work-item, with the ``(groups, items)`` lane space materialized as
NumPy arrays and every :class:`~repro.sycl.group.SyncOp` collective
evaluated as a vectorized array operation. Runs the same kernel sources in
:mod:`repro.kernels` unmodified — see ``docs/wide_backend.md``.
"""

from repro.wide.executor import (
    WideItem,
    evaluate_wide_collective,
    wide_launch,
)
from repro.wide.lanes import (
    GroupMask,
    GroupValue,
    LaneArray,
    LaneIndex,
    LaneMask,
    WideArray,
    wide_float,
    wide_int,
    wide_range,
)
from repro.wide.lower import lower_kernel
from repro.wide.queue import WideQueue

__all__ = [
    "GroupMask",
    "GroupValue",
    "LaneArray",
    "LaneIndex",
    "LaneMask",
    "WideArray",
    "WideItem",
    "WideQueue",
    "evaluate_wide_collective",
    "lower_kernel",
    "wide_launch",
    "wide_float",
    "wide_int",
    "wide_range",
]
