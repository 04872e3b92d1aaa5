"""BatchEll: padded ELL storage, column-major values (Fig. 2, right).

Suited to matrices with a similar number of non-zeros in every row
(Section 3.1): rows are padded to a uniform width, which removes the row
pointers and makes accesses coalesced — each work-item owns one row, so
consecutive work-items touch consecutive elements of the column-major
value array.

The shared column-index array has shape ``(ell_width, num_rows)`` with
``-1`` marking padding; the value array has shape
``(num_batch, ell_width, num_rows)`` so that the innermost axis is the row
index, mirroring the column-major device layout.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import TrafficLedger
from repro.core.matrix.base import BatchedMatrix
from repro.core.matrix.base import as_float_values
from repro.core.matrix.batch_csr import BatchCsr
from repro.exceptions import BadSparsityPatternError, DimensionMismatchError

_FP_BYTES = 8
_IDX_BYTES = 4

#: Column index marking a padding slot.
PADDING = -1


class BatchEll(BatchedMatrix):
    """A batch of ELL matrices sharing the padded column-index array."""

    format_name = "ell"

    def __init__(
        self,
        col_idxs: np.ndarray,
        values: np.ndarray,
        num_cols: int | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        col_idxs = np.ascontiguousarray(np.asarray(col_idxs, dtype=np.int32))
        values = np.ascontiguousarray(as_float_values(values, dtype))
        if col_idxs.ndim != 2:
            raise BadSparsityPatternError(
                f"col_idxs must be (ell_width, num_rows), got ndim={col_idxs.ndim}"
            )
        if values.ndim != 3 or values.shape[1:] != col_idxs.shape:
            raise DimensionMismatchError(
                f"values must be (num_batch,) + {col_idxs.shape}, got {values.shape}"
            )
        ell_width, num_rows = col_idxs.shape
        if ell_width == 0:
            raise BadSparsityPatternError("ELL width must be at least 1")
        ncols = int(num_cols) if num_cols is not None else num_rows
        super().__init__(values.shape[0], num_rows, ncols, dtype=values.dtype)

        valid = col_idxs != PADDING
        in_range = (col_idxs >= 0) & (col_idxs < ncols)
        if np.any(valid & ~in_range):
            raise BadSparsityPatternError(
                f"ELL column indices outside [0, {ncols}) (use {PADDING} for padding)"
            )
        if np.any(values[:, ~valid] != 0.0):
            raise BadSparsityPatternError("padding slots must hold zero values")

        self.col_idxs = col_idxs
        self.values = values
        self._valid = valid
        # Gather-safe indices: padding reads x[0] but is masked out of the sum.
        self._safe_cols = np.where(valid, col_idxs, 0)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_batch_csr(cls, csr: BatchCsr) -> "BatchEll":
        """Convert from :class:`BatchCsr`, padding rows to the widest row."""
        width = csr.max_nnz_per_row()
        num_rows = csr.num_rows
        col_idxs = np.full((width, num_rows), PADDING, dtype=np.int32)
        values = np.zeros((csr.num_batch, width, num_rows), dtype=csr.dtype)
        rows = csr.row_of_nnz
        slots = np.arange(csr.nnz_per_item) - csr.row_ptrs[rows]
        col_idxs[slots, rows] = csr.col_idxs
        values[:, slots, rows] = csr.values
        return cls(col_idxs, values, num_cols=csr.num_cols)

    @classmethod
    def from_dense(cls, batch: np.ndarray) -> "BatchEll":
        """Build from a dense batch via the shared union pattern."""
        return cls.from_batch_csr(BatchCsr.from_dense(batch))

    # -- BatchedMatrix interface -----------------------------------------------------

    @property
    def ell_width(self) -> int:
        """Stored entries per row (after padding)."""
        return int(self.col_idxs.shape[0])

    @property
    def nnz_per_item(self) -> int:
        # Stored entries including padding — this is what the format
        # actually keeps in memory and what the storage formula counts.
        return int(self.col_idxs.size)

    @property
    def nnz_unpadded(self) -> int:
        """Structurally meaningful entries per item (padding excluded)."""
        return int(self._valid.sum())

    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        ledger: TrafficLedger | None = None,
        x_name: str = "x",
        y_name: str = "y",
    ) -> np.ndarray:
        x = self.check_vector("x", x)
        # One fused gather per ELL slot; padding gathers x[:, 0] but is
        # zeroed by the stored zero values, so no masking multiply needed.
        y = np.zeros((self._num_batch, self._num_rows), dtype=self.dtype)
        for slot in range(self.ell_width):
            y += self.values[:, slot, :] * x[:, self._safe_cols[slot]]
        if ledger is not None:
            ledger.tally_spmv(
                self._num_batch,
                self._num_rows,
                self.nnz_per_item,
                index_bytes=self.pattern_bytes,
                mat_name="A",
                x_name=x_name,
                y_name=y_name,
            )
        if out is None:
            return y
        out[...] = y
        return out

    def to_batch_dense(self) -> np.ndarray:
        dense = np.zeros(
            (self._num_batch, self._num_rows, self._num_cols), dtype=self.dtype
        )
        rows = np.arange(self._num_rows)
        for slot in range(self.ell_width):
            valid = self._valid[slot]
            dense[:, rows[valid], self.col_idxs[slot][valid]] += self.values[:, slot, valid]
        return dense

    def diagonal(self) -> np.ndarray:
        n = min(self._num_rows, self._num_cols)
        diag = np.zeros((self._num_batch, n), dtype=self.dtype)
        for slot in range(self.ell_width):
            hit = self.col_idxs[slot][:n] == np.arange(n)
            diag[:, hit] = self.values[:, slot, :n][:, hit]
        return diag

    def scaled_copy(self, factors: np.ndarray) -> "BatchEll":
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self._num_batch,):
            raise DimensionMismatchError(
                f"factors must have shape ({self._num_batch},), got {factors.shape}"
            )
        return BatchEll(self.col_idxs, self.values * factors[:, None, None], self._num_cols)

    @property
    def pattern_bytes(self) -> int:
        """Shared padded column-index array footprint."""
        return _IDX_BYTES * self.col_idxs.size

    @property
    def storage_bytes(self) -> int:
        # Fig. 2: [num_matrices x padded nnz] values + [width x rows] indices.
        return self.value_bytes * self._num_batch * self.nnz_per_item + self.pattern_bytes

    def astype(self, dtype: np.dtype | type) -> "BatchEll":
        """Copy in another precision format (values converted, pattern shared)."""
        return BatchEll(self.col_idxs, self.values, self._num_cols, dtype=dtype)

    def take_batch(self, selection: slice) -> "BatchEll":
        """Sub-batch with the same shared padded pattern."""
        return BatchEll(
            self.col_idxs, self.values[selection], self._num_cols, dtype=self.dtype
        )
