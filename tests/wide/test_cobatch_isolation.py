"""Co-batch isolation: a system's answer does not depend on its batch.

One lockstep generator runs every work-group of a launch, and groups
that stop early keep executing, masked, until the last one stops. These
properties pin the frozen-group semantics: for the fused CG, BiCGSTAB
and Richardson kernels on a ``WideQueue``, every system's ``x``,
iteration count and residual history are bitwise identical

* when it is solved alone (a batch of one, same sparsity pattern),
* in any permutation of its batch, and
* beside systems that converge at iteration 0 (zero right-hand side),
  hit ``max_iters``, or break down (a skew-symmetric matrix gives
  ``r . A r == 0``: BiCGSTAB stops on ``omega == 0``, CG makes no
  progress until ``max_iters``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matrix.batch_csr import BatchCsr
from repro.kernels import (
    run_batch_bicgstab_on_device,
    run_batch_cg_on_device,
    run_batch_richardson_on_device,
)
from repro.sycl.device import pvc_stack_device
from repro.wide import WideQueue

pytestmark = pytest.mark.no_sanitize  # bare lockstep launches, no fallback

_DEVICE = pvc_stack_device(1)
_MAX_ITERS = 25
_RUNNERS = {
    "cg": run_batch_cg_on_device,
    "bicgstab": run_batch_bicgstab_on_device,
    "richardson": run_batch_richardson_on_device,
}
_KINDS = ("healthy", "zero_rhs", "skew")


def _system(kind: str, n: int, rng: np.random.Generator):
    """One dense system of the given kind (all share one dense pattern)."""
    e = rng.standard_normal((n, n)) * (0.2 / np.sqrt(n))
    b = rng.standard_normal(n)
    if kind == "skew":
        a = rng.standard_normal((n, n))
        return a - a.T, b
    a = np.eye(n) + 0.5 * (e + e.T)
    if kind == "zero_rhs":
        b = np.zeros(n)
    return a, b


def _solve(solver: str, matrix: BatchCsr, b: np.ndarray):
    nb = matrix.num_batch
    history = np.full((nb, _MAX_ITERS + 1), np.nan)
    x, iters, _ = _RUNNERS[solver](
        _DEVICE,
        matrix,
        b,
        tolerance=1e-8,
        max_iterations=_MAX_ITERS,
        queue=WideQueue(_DEVICE),
        res_history=history,
    )
    return np.asarray(x), np.asarray(iters), history


def _subset(matrix: BatchCsr, rows) -> BatchCsr:
    """The given systems of ``matrix`` on the same sparsity pattern."""
    return BatchCsr(
        matrix.row_ptrs, matrix.col_idxs, matrix.values[list(rows)], num_cols=matrix.num_cols
    )


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_same(got, want, what: str) -> None:
    x, iters, hist = got
    x_ref, iters_ref, hist_ref = want
    assert iters == iters_ref, f"{what}: iterations {iters} != {iters_ref}"
    np.testing.assert_array_equal(_bits(x), _bits(x_ref), err_msg=f"{what}: x")
    np.testing.assert_array_equal(_bits(hist), _bits(hist_ref), err_msg=f"{what}: res_history")


@settings(max_examples=12, deadline=None)
@given(
    solver=st.sampled_from(sorted(_RUNNERS)),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=2, max_size=5),
    n=st.integers(3, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_each_system_solves_as_if_alone(solver, kinds, n, seed, data):
    rng = np.random.default_rng(seed)
    systems = [_system(kind, n, rng) for kind in kinds]
    matrix = BatchCsr.from_dense(np.stack([a for a, _ in systems]))
    b = np.stack([rhs for _, rhs in systems])

    x, iters, hist = _solve(solver, matrix, b)
    order = data.draw(st.permutations(range(len(kinds))), label="order")
    px, piters, phist = _solve(solver, _subset(matrix, order), b[list(order)])

    for k, kind in enumerate(kinds):
        alone = _solve(solver, _subset(matrix, [k]), b[k : k + 1])
        alone = (alone[0][0], int(alone[1][0]), alone[2][0])
        _assert_same((x[k], int(iters[k]), hist[k]), alone, f"{kind} system {k} in its batch")
        p = list(order).index(k)
        _assert_same(
            (px[p], int(piters[p]), phist[p]), alone, f"{kind} system {k} at position {p}"
        )


def test_neighbours_cover_every_stopping_reason():
    """The three kinds really stop at iteration 0, at ``max_iters`` and early."""
    rng = np.random.default_rng(3)
    systems = [_system(kind, 8, rng) for kind in _KINDS]
    matrix = BatchCsr.from_dense(np.stack([a for a, _ in systems]))
    b = np.stack([rhs for _, rhs in systems])

    _, cg_iters, _ = _solve("cg", matrix, b)
    assert 0 < cg_iters[0] < _MAX_ITERS
    assert cg_iters[1] == 0
    assert cg_iters[2] == _MAX_ITERS

    _, bicgstab_iters, _ = _solve("bicgstab", matrix, b)
    assert 0 < bicgstab_iters[0] < _MAX_ITERS
    assert bicgstab_iters[1] == 0
    assert bicgstab_iters[2] == 1  # omega == 0 breakdown after one iteration
