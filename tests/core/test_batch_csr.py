"""BatchCsr: construction, validation, SpMV, diagonal, storage formula."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.counters import TrafficLedger
from repro.core.matrix import BatchCsr
from repro.exceptions import BadSparsityPatternError, DimensionMismatchError
from repro.kernels.spmv import spmv_csr_item_rows
from repro.sycl.device import cpu_device
from repro.sycl.ndrange import NDRange
from repro.sycl.queue import Queue
from repro.workloads.pele import pele_batch


def _small_batch():
    # 2x: [[2, -1, 0], [0, 3, 1], [-1, 0, 4]] with per-item scaling
    row_ptrs = np.array([0, 2, 4, 6], dtype=np.int32)
    col_idxs = np.array([0, 1, 1, 2, 0, 2], dtype=np.int32)
    values = np.array(
        [[2.0, -1.0, 3.0, 1.0, -1.0, 4.0], [4.0, -2.0, 6.0, 2.0, -2.0, 8.0]]
    )
    return BatchCsr(row_ptrs, col_idxs, values)


class TestConstruction:
    def test_shape_and_nnz(self):
        m = _small_batch()
        assert m.shape == (2, 3, 3)
        assert m.nnz_per_item == 6
        assert m.format_name == "csr"

    def test_columns_are_normalized_sorted(self):
        # give row 0 columns out of order; values must follow the permutation
        m = BatchCsr(
            np.array([0, 2]), np.array([1, 0]), np.array([[10.0, 20.0]]), num_cols=2
        )
        assert list(m.col_idxs) == [0, 1]
        assert list(m.values[0]) == [20.0, 10.0]

    def test_bad_row_ptrs_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([1, 2]), np.array([0]), np.ones((1, 1)))

    def test_decreasing_row_ptrs_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 2, 1, 3]), np.arange(3), np.ones((1, 3)), num_cols=3)

    def test_out_of_range_column_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 1]), np.array([5]), np.ones((1, 1)), num_cols=3)

    def test_duplicate_column_in_row_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 2]), np.array([1, 1]), np.ones((1, 2)), num_cols=3)

    def test_values_must_be_2d(self):
        with pytest.raises(DimensionMismatchError):
            BatchCsr(np.array([0, 1]), np.array([0]), np.ones(1))


class TestFromDense:
    def test_union_pattern_shared(self):
        batch = np.zeros((2, 2, 2))
        batch[0, 0, 0] = 1.0
        batch[1, 1, 1] = 2.0
        m = BatchCsr.from_dense(batch)
        # union pattern has both entries; missing ones stored as explicit 0
        assert m.nnz_per_item == 2
        assert np.allclose(m.to_batch_dense(), batch)

    def test_first_pattern_drops_other_entries(self):
        batch = np.zeros((2, 2, 2))
        batch[0, 0, 0] = 1.0
        batch[1, 1, 1] = 2.0
        m = BatchCsr.from_dense(batch, keep_pattern_of="first")
        assert m.nnz_per_item == 1
        assert m.to_batch_dense()[1, 1, 1] == 0.0

    def test_all_zero_batch_keeps_diagonal(self):
        m = BatchCsr.from_dense(np.zeros((1, 3, 3)))
        assert m.nnz_per_item == 3
        assert np.all(m.diagonal() == 0.0)


class TestFromScipy:
    def test_round_trip(self):
        a = sp.random(6, 6, density=0.4, random_state=0, format="csr")
        a.setdiag(5.0)
        b = a.copy()
        b.data = b.data * 2.0
        m = BatchCsr.from_scipy_batch([a, b])
        assert m.num_batch == 2
        assert np.allclose(m.item_scipy(0).toarray(), a.toarray())
        assert np.allclose(m.item_scipy(1).toarray(), b.toarray())

    def test_mismatched_patterns_rejected(self):
        a = sp.eye(4, format="csr")
        b = sp.csr_matrix(np.triu(np.ones((4, 4))))
        with pytest.raises(BadSparsityPatternError, match="share"):
            BatchCsr.from_scipy_batch([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BatchCsr.from_scipy_batch([])


class TestSpMV:
    def test_matches_dense_reference(self):
        m = _small_batch()
        x = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        expected = np.einsum("bij,bj->bi", m.to_batch_dense(), x)
        assert np.allclose(m.apply(x), expected)

    def test_broadcast_1d_input(self):
        m = _small_batch()
        x = np.array([1.0, 2.0, 3.0])
        y = m.apply(x)
        expected = np.einsum("bij,j->bi", m.to_batch_dense(), x)
        assert np.allclose(y, expected)

    def test_out_parameter(self):
        m = _small_batch()
        x = np.ones((2, 3))
        out = np.empty((2, 3))
        y = m.apply(x, out=out)
        assert y is out

    def test_empty_rows_handled(self):
        # row 1 has no entries
        m = BatchCsr(
            np.array([0, 1, 1, 2]),
            np.array([0, 2]),
            np.array([[3.0, 5.0]]),
            num_cols=3,
        )
        y = m.apply(np.array([[1.0, 1.0, 1.0]]))
        assert list(y[0]) == [3.0, 0.0, 5.0]

    def test_ledger_tally(self):
        m = _small_batch()
        ledger = TrafficLedger()
        m.apply(np.ones((2, 3)), ledger=ledger, x_name="p", y_name="t")
        assert ledger.flops == 2 * 2 * 6
        assert ledger.calls["spmv"] == 2
        assert "A_values" in ledger.bytes_by_object
        assert "A_pattern" in ledger.bytes_by_object
        assert ledger.bytes_by_object["p"] == 8.0 * 2 * 6

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            _small_batch().apply(np.ones((2, 4)))


class TestDiagonalAndScaling:
    def test_diagonal_extraction(self):
        m = _small_batch()
        assert np.allclose(m.diagonal(), [[2.0, 3.0, 4.0], [4.0, 6.0, 8.0]])

    def test_diagonal_missing_entry_is_zero(self):
        m = BatchCsr(np.array([0, 1, 2]), np.array([1, 0]), np.ones((1, 2)), num_cols=2)
        assert np.all(m.diagonal() == 0.0)

    def test_scaled_copy(self):
        m = _small_batch()
        scaled = m.scaled_copy(np.array([2.0, 0.5]))
        assert np.allclose(scaled.values[0], 2.0 * m.values[0])
        assert np.allclose(scaled.values[1], 0.5 * m.values[1])

    def test_scaled_copy_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            _small_batch().scaled_copy(np.ones(3))


class TestStorageFormula:
    def test_matches_fig2(self):
        m = _small_batch()
        # [nb x nnz] fp64 + [(rows+1) + nnz] int32
        expected = 8 * 2 * 6 + 4 * (3 + 1) + 4 * 6
        assert m.storage_bytes == expected

    def test_pattern_amortized_across_batch(self):
        one = _small_batch()
        row_ptrs, cols = one.row_ptrs, one.col_idxs
        big = BatchCsr(row_ptrs, cols, np.ones((100, 6)))
        assert big.storage_bytes - 100 * 8 * 6 == one.storage_bytes - 2 * 8 * 6


@settings(max_examples=25, deadline=None)
@given(
    nb=st.integers(1, 4),
    n=st.integers(1, 10),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 1000),
)
def test_dense_round_trip_property(nb, n, density, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nb, n, n)) * (rng.random((n, n)) < density)
    m = BatchCsr.from_dense(batch)
    assert np.allclose(m.to_batch_dense(), batch)


@settings(max_examples=25, deadline=None)
@given(
    nb=st.integers(1, 4),
    n=st.integers(2, 10),
    density=st.floats(0.2, 0.9),
    seed=st.integers(0, 1000),
)
def test_spmv_matches_dense_property(nb, n, density, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nb, n, n)) * (rng.random((n, n)) < density)
    m = BatchCsr.from_dense(batch)
    x = rng.standard_normal((nb, n))
    assert np.allclose(m.apply(x), np.einsum("bij,bj->bi", batch, x))


# -- reference implementations -------------------------------------------------
#
# Loop versions of the SpMV and of the pattern set-up BatchCsr replaced with
# whole-array operations; the tests below require identical results.


def _spmv_loop(row_ptrs, col_idxs, values, x, acc_dtype):
    """Per-row ``acc = 0; acc += v * x`` in stored order, in ``acc_dtype``."""
    nb, n = values.shape[0], row_ptrs.shape[0] - 1
    y = np.zeros((nb, n), dtype=values.dtype)
    for k in range(nb):
        for row in range(n):
            acc = acc_dtype(0.0)
            for pos in range(row_ptrs[row], row_ptrs[row + 1]):
                acc += acc_dtype(values[k, pos]) * acc_dtype(x[k, col_idxs[pos]])
            y[k, row] = acc
    return y


def _unique_rows_loop(row_ptrs, col_idxs):
    for row in range(row_ptrs.shape[0] - 1):
        cols = col_idxs[row_ptrs[row] : row_ptrs[row + 1]]
        if np.unique(cols).shape[0] != cols.shape[0]:
            raise BadSparsityPatternError(f"row {row} contains duplicate column indices")


def _sort_within_rows_loop(row_ptrs, col_idxs):
    order = np.arange(col_idxs.shape[0], dtype=np.int64)
    for row in range(row_ptrs.shape[0] - 1):
        start, end = row_ptrs[row], row_ptrs[row + 1]
        order[start:end] = start + np.argsort(col_idxs[start:end], kind="stable")
    return order


def _locate_diagonal_loop(row_ptrs, col_idxs, num_rows, num_cols):
    positions = np.full(num_rows, -1, dtype=np.int64)
    for row in range(min(num_rows, num_cols)):
        start, end = row_ptrs[row], row_ptrs[row + 1]
        cols = col_idxs[start:end]
        hit = np.searchsorted(cols, row)
        if hit < cols.shape[0] and cols[hit] == row:
            positions[row] = start + hit
    return positions


@st.composite
def _unsorted_patterns(draw, max_rows=10, max_cols=10):
    """Row pointers + column indices in drawn (unsorted) order, rows may be empty."""
    num_rows = draw(st.integers(1, max_rows))
    num_cols = draw(st.integers(1, max_cols))
    rows = [
        draw(st.lists(st.integers(0, num_cols - 1), unique=True, max_size=num_cols))
        for _ in range(num_rows)
    ]
    row_ptrs = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    col_idxs = np.array([c for r in rows for c in r], dtype=np.int32)
    return row_ptrs, col_idxs, num_cols


# -- SpMV summation order ------------------------------------------------------


def _item_rows_kernel_spmv(matrix, x):
    """``spmv_csr_item_rows`` on the faithful SYCL queue, one launch per item."""
    queue = Queue(cpu_device())
    n = matrix.num_rows
    y = np.zeros((matrix.num_batch, n), dtype=matrix.dtype)

    def kernel(item, slm, vals, x, y):
        yield from spmv_csr_item_rows(
            item, matrix.row_ptrs, matrix.col_idxs, vals, x, y, n
        )

    for k in range(matrix.num_batch):
        args = (matrix.values[k], x[k], y[k])
        queue.parallel_for(NDRange(64, 64, 16), kernel, args=args)
    return y


@pytest.mark.parametrize("mechanism", ["drm19", "gri30", "isooctane"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_spmv_order_matches_item_rows_kernel(mechanism, dtype):
    matrix = pele_batch(mechanism, num_batch=2).astype(dtype)
    x = np.random.default_rng(3).standard_normal((2, matrix.num_cols)).astype(dtype)
    y = matrix.apply(x)
    args = (matrix.row_ptrs, matrix.col_idxs, matrix.values, x)
    # the host sums each row from zero in stored order, in the matrix dtype
    assert np.array_equal(y, _spmv_loop(*args, acc_dtype=dtype))
    kernel_y = _item_rows_kernel_spmv(matrix, x)
    # the interpreted kernel accumulates in Python floats (binary64) and
    # rounds once at the store: identical to the host in FP64; in FP32 it
    # is that binary64 sum rounded, not the host's FP32 running sum
    assert np.array_equal(kernel_y, _spmv_loop(*args, acc_dtype=np.float64))
    if dtype is np.float64:
        assert np.array_equal(y, kernel_y)


def test_spmv_order_with_empty_rows_and_rectangular_shape():
    # 4 x 6, rows 1 and 3 empty, row 2 given out of order
    row_ptrs = np.array([0, 3, 3, 6, 6], dtype=np.int32)
    col_idxs = np.array([5, 0, 2, 4, 1, 3], dtype=np.int32)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 6))
    m = BatchCsr(row_ptrs, col_idxs, values, num_cols=6)
    x = rng.standard_normal((3, 6))
    expected = _spmv_loop(m.row_ptrs, m.col_idxs, m.values, x, acc_dtype=float)
    y = m.apply(x)
    assert np.array_equal(y, expected)
    assert np.all(y[:, [1, 3]] == 0.0)
    tall = BatchCsr(
        np.array([0, 2, 3, 3, 4, 5]),
        np.array([1, 0, 1, 0, 1]),
        rng.standard_normal((2, 5)),
        num_cols=2,
    )
    xt = rng.standard_normal((2, 2))
    expected = _spmv_loop(
        tall.row_ptrs, tall.col_idxs, tall.values, xt, acc_dtype=float
    )
    assert np.array_equal(tall.apply(xt), expected)


@settings(max_examples=40, deadline=None)
@given(pattern=_unsorted_patterns(), nb=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_spmv_matches_scipy_per_item_property(pattern, nb, seed):
    row_ptrs, col_idxs, num_cols = pattern
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((nb, col_idxs.size))
    m = BatchCsr(row_ptrs, col_idxs, values, num_cols=num_cols)
    x = rng.standard_normal((nb, num_cols))
    y = m.apply(x)
    for k in range(nb):
        assert np.array_equal(y[k], m.item_scipy(k) @ x[k])


# -- loop-free pattern set-up --------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(pattern=_unsorted_patterns(), nb=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_pattern_setup_matches_loop_reference_property(pattern, nb, seed):
    row_ptrs, col_idxs, num_cols = pattern
    values = np.random.default_rng(seed).standard_normal((nb, col_idxs.size))
    m = BatchCsr(row_ptrs, col_idxs, values, num_cols=num_cols)
    order = _sort_within_rows_loop(row_ptrs, col_idxs)
    assert np.array_equal(m.col_idxs, col_idxs[order])
    assert np.array_equal(m.values, values[:, order])
    num_rows = row_ptrs.size - 1
    expected_diag = _locate_diagonal_loop(row_ptrs, m.col_idxs, num_rows, num_cols)
    assert np.array_equal(m.diag_positions, expected_diag)
    assert m.diag_positions.dtype == expected_diag.dtype


def test_duplicates_in_several_rows_report_lowest_row():
    # rows 1 and 3 both repeat a column, each out of sorted order
    row_ptrs = np.array([0, 2, 5, 6, 9], dtype=np.int32)
    col_idxs = np.array([1, 0, 2, 0, 2, 1, 3, 3, 0], dtype=np.int32)
    with pytest.raises(BadSparsityPatternError) as loop_err:
        _unique_rows_loop(row_ptrs, col_idxs)
    with pytest.raises(BadSparsityPatternError) as err:
        BatchCsr(row_ptrs, col_idxs, np.ones((1, 9)), num_cols=4)
    assert str(err.value) == str(loop_err.value) == (
        "row 1 contains duplicate column indices"
    )


def test_sorted_input_is_not_copied():
    m = pele_batch("drm19", num_batch=4)
    values = np.ascontiguousarray(m.values)
    rebuilt = BatchCsr(m.row_ptrs, m.col_idxs, values, num_cols=m.num_cols)
    assert np.shares_memory(rebuilt.values, values)
    x = np.ones((4, m.num_cols))
    assert np.shares_memory(rebuilt._block_diagonal().data, values)
    assert np.array_equal(rebuilt.apply(x), m.apply(x))
