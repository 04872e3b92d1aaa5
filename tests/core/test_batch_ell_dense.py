"""BatchEll and BatchDense: construction, SpMV, conversions, storage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matrix import BatchCsr, BatchDense, BatchEll
from repro.core.matrix.batch_ell import PADDING
from repro.exceptions import BadSparsityPatternError, DimensionMismatchError
from repro.workloads.pele import pele_batch
from repro.workloads.stencil import three_point_stencil


def _tridiag_dense(nb=3, n=6, seed=0):
    rng = np.random.default_rng(seed)
    dense = np.zeros((nb, n, n))
    i = np.arange(n)
    dense[:, i, i] = 2.0 + rng.random((nb, n))
    dense[:, i[1:], i[:-1]] = -1.0
    dense[:, i[:-1], i[1:]] = -1.0
    return dense


class TestBatchDense:
    def test_apply_matches_einsum(self):
        dense = _tridiag_dense()
        m = BatchDense(dense)
        x = np.ones((3, 6))
        assert np.allclose(m.apply(x), dense.sum(axis=2))

    def test_from_item_replicates(self):
        item = np.eye(3)
        m = BatchDense.from_item(item, 5)
        assert m.num_batch == 5
        assert np.allclose(m.to_batch_dense()[4], item)

    def test_diagonal_and_transpose(self):
        dense = _tridiag_dense()
        m = BatchDense(dense)
        assert np.allclose(m.diagonal(), dense[:, np.arange(6), np.arange(6)])
        assert np.allclose(m.transpose().values, dense.transpose(0, 2, 1))

    def test_storage_formula(self):
        m = BatchDense(np.zeros((4, 5, 6)))
        assert m.storage_bytes == 8 * 4 * 5 * 6

    def test_rejects_2d(self):
        with pytest.raises(DimensionMismatchError):
            BatchDense(np.zeros((5, 6)))

    def test_item_dense_bounds(self):
        m = BatchDense(np.zeros((2, 3, 3)))
        with pytest.raises(IndexError):
            m.item_dense(2)


class TestBatchEllConstruction:
    def test_from_csr_round_trip(self):
        dense = _tridiag_dense()
        csr = BatchCsr.from_dense(dense)
        ell = BatchEll.from_batch_csr(csr)
        assert ell.ell_width == 3
        assert np.allclose(ell.to_batch_dense(), dense)

    @pytest.mark.parametrize(
        "csr",
        [
            three_point_stencil(64, 3),
            pele_batch("isooctane", num_batch=3),
            BatchCsr(
                np.array([0, 2, 2, 5]),
                np.array([3, 0, 2, 1, 0]),
                np.arange(10.0).reshape(2, 5),
                num_cols=4,
            ),
        ],
        ids=["stencil", "isooctane", "empty_row_rectangular"],
    )
    def test_from_csr_matches_loop_conversion(self, csr):
        # the row x slot loop from_batch_csr ran before it was vectorized
        width, num_rows = csr.max_nnz_per_row(), csr.num_rows
        col_idxs = np.full((width, num_rows), PADDING, dtype=np.int32)
        values = np.zeros((csr.num_batch, width, num_rows), dtype=csr.dtype)
        lengths = np.diff(csr.row_ptrs)
        for row in range(num_rows):
            start = csr.row_ptrs[row]
            for slot in range(lengths[row]):
                col_idxs[slot, row] = csr.col_idxs[start + slot]
                values[:, slot, row] = csr.values[:, start + slot]
        ell = BatchEll.from_batch_csr(csr)
        assert np.array_equal(ell.col_idxs, col_idxs)
        assert ell.values.dtype == values.dtype
        assert np.array_equal(ell.values, values)

    def test_padding_slots_must_hold_zeros(self):
        cols = np.array([[0], [PADDING]], dtype=np.int32)
        vals = np.ones((1, 2, 1))  # nonzero in padding slot
        with pytest.raises(BadSparsityPatternError, match="padding"):
            BatchEll(cols, vals, num_cols=1)

    def test_out_of_range_column_rejected(self):
        cols = np.array([[7]], dtype=np.int32)
        with pytest.raises(BadSparsityPatternError):
            BatchEll(cols, np.ones((1, 1, 1)), num_cols=2)

    def test_nnz_counts_padding(self):
        dense = np.zeros((1, 3, 3))
        dense[0, 0] = [1.0, 1.0, 1.0]  # one long row forces width 3
        dense[0, 1, 1] = 1.0
        dense[0, 2, 2] = 1.0
        ell = BatchEll.from_dense(dense)
        assert ell.ell_width == 3
        assert ell.nnz_per_item == 9  # padded
        assert ell.nnz_unpadded == 5


class TestBatchEllSpMV:
    def test_matches_dense(self):
        dense = _tridiag_dense()
        ell = BatchEll.from_dense(dense)
        x = np.random.default_rng(1).standard_normal((3, 6))
        assert np.allclose(ell.apply(x), np.einsum("bij,bj->bi", dense, x))

    def test_agrees_with_csr(self):
        dense = _tridiag_dense()
        csr = BatchCsr.from_dense(dense)
        ell = BatchEll.from_batch_csr(csr)
        x = np.random.default_rng(2).standard_normal((3, 6))
        assert np.allclose(ell.apply(x), csr.apply(x))

    def test_diagonal(self):
        dense = _tridiag_dense()
        ell = BatchEll.from_dense(dense)
        assert np.allclose(ell.diagonal(), dense[:, np.arange(6), np.arange(6)])

    def test_scaled_copy(self):
        ell = BatchEll.from_dense(_tridiag_dense())
        scaled = ell.scaled_copy(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(scaled.values[2], 3.0 * ell.values[2])


class TestStorageComparison:
    def test_fig2_ell_formula(self):
        ell = BatchEll.from_dense(_tridiag_dense(nb=4))
        expected = 8 * 4 * ell.nnz_per_item + 4 * ell.ell_width * ell.num_rows
        assert ell.storage_bytes == expected

    def test_sparse_formats_beat_dense_for_large_batches(self):
        # Fig. 2's point: the pattern cost amortizes over the batch
        dense_batch = _tridiag_dense(nb=64, n=32)
        dense = BatchDense(dense_batch)
        csr = BatchCsr.from_dense(dense_batch)
        ell = BatchEll.from_dense(dense_batch)
        assert csr.storage_bytes < dense.storage_bytes
        assert ell.storage_bytes < dense.storage_bytes


@settings(max_examples=20, deadline=None)
@given(
    nb=st.integers(1, 3),
    n=st.integers(2, 8),
    density=st.floats(0.2, 0.9),
    seed=st.integers(0, 999),
)
def test_ell_csr_dense_agree_property(nb, n, density, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nb, n, n)) * (rng.random((n, n)) < density)
    csr = BatchCsr.from_dense(batch)
    ell = BatchEll.from_batch_csr(csr)
    x = rng.standard_normal((nb, n))
    reference = np.einsum("bij,bj->bi", batch, x)
    assert np.allclose(csr.apply(x), reference)
    assert np.allclose(ell.apply(x), reference)
    assert np.allclose(ell.to_batch_dense(), batch)
