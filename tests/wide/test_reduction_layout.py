"""Collectives over a Fortran-ordered ``(groups, items)`` operand.

Lane data gathered with a fancy index along the item axis
(``slm.x[:, cols]``) comes back Fortran-ordered, and NumPy sums a strided
axis element by element instead of pairwise. The executor reduces
C-contiguous rows, so every group's result must carry the same bits as
evaluating that group's lanes alone as a 1-D operand of a one-group
launch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sycl.group import GROUP, SUB_GROUP, SyncOp
from repro.sycl.ndrange import NDRange
from repro.wide.executor import evaluate_wide_collective

GROUPS, WG, SG = 12, 64, 16

_OPS = [
    (GROUP, "reduce", ("sum",)),
    (GROUP, "reduce", ("max",)),
    (GROUP, "reduce", ("prod",)),
    (SUB_GROUP, "reduce", ("sum",)),
    (GROUP, "inclusive_scan", ("sum",)),
    (GROUP, "exclusive_scan", ("sum",)),
    (SUB_GROUP, "shuffle", ("down", 3)),
    (SUB_GROUP, "shuffle", ("xor", 5)),
]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("scope,kind,params", _OPS)
def test_fortran_ordered_operand_reduces_like_each_group_alone(scope, kind, params):
    rng = np.random.default_rng(11)
    # magnitudes spread over many binades, so summation order shows in the bits
    lanes = rng.standard_normal((GROUPS, WG)) * 10.0 ** rng.integers(-8, 8, (GROUPS, WG))
    operand = np.asfortranarray(lanes)
    assert not operand.flags.c_contiguous

    launch = evaluate_wide_collective(
        SyncOp(kind, scope, operand, params), NDRange(GROUPS * WG, WG, SG)
    )
    for g in range(GROUPS):
        alone = evaluate_wide_collective(
            SyncOp(kind, scope, np.ascontiguousarray(lanes[g]), params), NDRange(WG, WG, SG)
        )
        np.testing.assert_array_equal(
            _bits(launch[g]), _bits(alone[0]), err_msg=f"group {g} of {scope} {kind}{params}"
        )


def test_strided_sum_really_differs():
    """The trap is real: summing the Fortran-ordered axis changes bits."""
    rng = np.random.default_rng(11)
    lanes = rng.standard_normal((GROUPS, WG)) * 10.0 ** rng.integers(-8, 8, (GROUPS, WG))
    strided = np.asfortranarray(lanes).sum(axis=1)
    pairwise = np.array([np.ascontiguousarray(row).sum() for row in lanes])
    assert not np.array_equal(_bits(strided), _bits(pairwise))
