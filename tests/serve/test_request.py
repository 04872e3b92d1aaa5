"""SolveRequest normalization, BatchKey compatibility, ticket semantics."""

import hashlib
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    BadSparsityPatternError,
    DimensionMismatchError,
    NonFiniteInputError,
    ReproError,
    UnsupportedCombinationError,
)
from repro.serve import SolveRequest, SolveTicket, assemble_batch
from repro.serve import request as request_module
from repro.serve.request import DONE, FAILED, PENDING, PatternTable, SolveOutcome


def _tridiag(n=6, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


class TestBatchKey:
    def test_same_pattern_and_config_share_a_key(self):
        r1 = SolveRequest(_tridiag(), np.ones(6), solver="cg")
        r2 = SolveRequest(_tridiag(scale=3.0), np.zeros(6), solver="cg")
        assert r1.batch_key == r2.batch_key  # values differ, pattern matches

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solver": "bicgstab"},
            {"preconditioner": "jacobi"},
            {"tolerance": 1e-4},
            {"max_iterations": 7},
            {"precision": "single"},
        ],
    )
    def test_config_differences_split_keys(self, kwargs):
        base = SolveRequest(_tridiag(), np.ones(6), solver="cg")
        other = SolveRequest(_tridiag(), np.ones(6), **{"solver": "cg", **kwargs})
        assert base.batch_key != other.batch_key

    def test_pattern_differences_split_keys(self):
        dense_pattern = sp.csr_matrix(np.ones((6, 6)))
        r1 = SolveRequest(_tridiag(), np.ones(6))
        r2 = SolveRequest(dense_pattern, np.ones(6))
        assert r1.batch_key.pattern_token != r2.batch_key.pattern_token

    def test_dense_request_keys_on_shape(self):
        r = SolveRequest(np.eye(5), np.ones(5))
        assert r.matrix_format == "dense"
        assert r.batch_key.pattern_token == "dense:5"


class TestValidation:
    def test_unknown_names_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), solver="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), preconditioner="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), criterion="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), precision="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), matrix_format="nope")

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.eye(3), np.ones(4))
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.ones((3, 4)), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.eye(3), np.ones(3), x0=np.ones(4))

    def test_empty_sparse_matrix_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            SolveRequest(sp.csr_matrix((4, 4)), np.ones(4))


def _reference_ingest(a):
    """The normalization every request went through before the fast path:
    sort, prune explicit zeros, cast, hash — kept here as the reference."""
    csr = sp.csr_matrix(a) if not sp.issparse(a) else a.tocsr()
    csr = csr.sorted_indices()
    csr.eliminate_zeros()
    if csr.nnz == 0:
        return None
    row_ptrs = csr.indptr.astype(np.int32)
    col_idxs = csr.indices.astype(np.int32)
    values = csr.data.astype(np.float64)
    digest = hashlib.sha1(row_ptrs.tobytes())
    digest.update(col_idxs.tobytes())
    return row_ptrs, col_idxs, values, digest.hexdigest()[:16]


# values include explicit zeros of both signs
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0e-300, 7.0, -1.0e300])


@st.composite
def _sparse_inputs(draw):
    """A (format, builder) pair: unsorted rows, duplicates, explicit zeros,
    empty rows and either index width, as CSR, CSC or COO."""
    n = draw(st.integers(1, 7))
    rows = [
        draw(st.lists(st.tuples(st.integers(0, n - 1), _VALUES), max_size=2 * n))
        for _ in range(n)
    ]
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    fmt = draw(st.sampled_from(["csr", "csc", "coo"]))
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(index_dtype)
    indices = np.array([c for r in rows for c, _ in r], dtype=index_dtype)
    data = np.array([v for r in rows for _, v in r], dtype=np.float64)

    def build():
        if fmt == "coo":
            row_of = np.repeat(np.arange(n), np.diff(indptr)).astype(index_dtype)
            return sp.coo_matrix((data.copy(), (row_of, indices.copy())), shape=(n, n))
        cls = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
        return cls((data.copy(), indices.copy(), indptr.copy()), shape=(n, n))

    return build


class TestIngest:
    """The canonical fast path and pattern interning change no byte."""

    @settings(max_examples=150, deadline=None)
    @given(_sparse_inputs())
    def test_fast_path_matches_reference_normalization(self, build):
        expected = _reference_ingest(build())
        a = build()
        before = a.data.copy()
        if expected is None:
            with pytest.raises(BadSparsityPatternError):
                SolveRequest(a, np.ones(a.shape[0]))
            return
        request = SolveRequest(a, np.ones(a.shape[0]))
        row_ptrs, col_idxs, values, token = expected
        assert request.row_ptrs.dtype == np.int32 and request.col_idxs.dtype == np.int32
        assert request.values.dtype == np.float64
        assert request.row_ptrs.tobytes() == row_ptrs.tobytes()
        assert request.col_idxs.tobytes() == col_idxs.tobytes()
        assert request.values.tobytes() == values.tobytes()  # -0.0 pruned too
        assert request.batch_key.pattern_token == token
        # the caller's matrix is left as it was
        assert a.data.tobytes() == before.tobytes()
        assert not np.shares_memory(request.values, a.data)

    def test_canonical_input_takes_no_normalization_copy(self, monkeypatch):
        a = _tridiag(9)
        assert a.has_sorted_indices and a.data.all()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("canonical input was re-sorted")

        monkeypatch.setattr(type(a), "sorted_indices", forbidden)
        request = SolveRequest(a, np.ones(9))
        assert request.values.tobytes() == a.data.astype(np.float64).tobytes()

    def test_co_patterned_requests_share_read_only_arrays(self):
        r1 = SolveRequest(_tridiag(11, scale=1.0), np.ones(11))
        r2 = SolveRequest(_tridiag(11, scale=2.0), np.ones(11))
        assert r1.row_ptrs is r2.row_ptrs and r1.col_idxs is r2.col_idxs
        assert not r1.row_ptrs.flags.writeable and not r1.col_idxs.flags.writeable
        with pytest.raises(ValueError):
            r1.col_idxs[0] = 3
        assert not np.shares_memory(r1.values, r2.values)  # values are copied

    def test_same_shape_and_nnz_patterns_stay_apart(self):
        n = 6
        upper = sp.csr_matrix(np.eye(n) + np.eye(n, k=1))
        lower = sp.csr_matrix(np.eye(n) + np.eye(n, k=-1))
        assert upper.nnz == lower.nnz
        ru, rl = SolveRequest(upper, np.ones(n)), SolveRequest(lower, np.ones(n))
        assert ru.batch_key.pattern_token != rl.batch_key.pattern_token
        assert ru.batch_key.pattern_token == _reference_ingest(upper)[3]
        assert rl.batch_key.pattern_token == _reference_ingest(lower)[3]
        assert not np.array_equal(ru.col_idxs, rl.col_idxs)

    def test_table_never_exceeds_its_bound(self):
        table = PatternTable(capacity=3)
        entries = []
        for k in range(10):
            # alternate two (n, nnz) classes so chains and keys both evict
            n = 5 + k % 2
            row_ptrs = np.arange(n + 1, dtype=np.int32)
            col_idxs = np.roll(np.arange(n, dtype=np.int32), k)
            entries.append(table.intern(row_ptrs, col_idxs))
            assert len(table) <= 3
            assert table.intern(row_ptrs, col_idxs) is entries[-1]
        assert len(table) == 3
        # the oldest pattern was dropped: it comes back as a new entry
        again = table.intern(np.arange(6, dtype=np.int32), np.arange(5, dtype=np.int32))
        assert again is not entries[0] and again.token == entries[0].token
        with pytest.raises(ValueError):
            PatternTable(capacity=0)

    def test_evicted_pattern_still_assembles_by_value(self, monkeypatch):
        monkeypatch.setattr(request_module, "PATTERNS", PatternTable(capacity=1))
        first = SolveRequest(_tridiag(8), np.ones(8))
        SolveRequest(sp.csr_matrix(np.eye(8)), np.ones(8))  # evicts the tridiagonal
        second = SolveRequest(_tridiag(8, scale=2.0), np.full(8, 2.0))
        assert second.row_ptrs is not first.row_ptrs
        assert first.batch_key == second.batch_key
        matrix, b, _x0 = assemble_batch([first, second])
        assert matrix.num_batch == 2
        np.testing.assert_array_equal(b[1], np.full(8, 2.0))

    def test_concurrent_builders_agree_on_one_entry(self, monkeypatch):
        monkeypatch.setattr(request_module, "PATTERNS", PatternTable(capacity=4))
        start = threading.Barrier(8)
        seen = [[] for _ in range(8)]

        def build(slot):
            start.wait()
            for k in range(25):
                seen[slot].append(SolveRequest(_tridiag(13, scale=1.0 + k), np.ones(13)))

        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the table's critical path
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(request_module.PATTERNS) == 1
        requests = [r for slot in seen for r in slot]
        assert len(requests) == 200
        assert len({r.batch_key.pattern_token for r in requests}) == 1
        assert len({id(r.row_ptrs) for r in requests}) == 1
        assert len({id(r.col_idxs) for r in requests}) == 1


class TestNonFiniteInput:
    """NaN or infinity is the caller's fault: a 422 at construction."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["sparse", "dense", "b", "x0"])
    def test_rejected_with_structured_422(self, bad, where):
        a, b, x0 = _tridiag(5), np.ones(5), np.zeros(5)
        if where == "sparse":
            a = a.copy()
            a.data[2] = bad
        elif where == "dense":
            a = a.toarray()
            a[1, 1] = bad
        elif where == "b":
            b[3] = bad
        else:
            x0[0] = bad
        with pytest.raises(NonFiniteInputError) as caught:
            SolveRequest(a, b, x0=x0)
        assert isinstance(caught.value, (ReproError, ValueError))
        assert caught.value.status_code == 422
        assert caught.value.error_code == "non_finite_input"

    def test_non_canonical_input_is_checked_too(self):
        a = sp.csr_matrix(
            (np.array([1.0, np.nan, 0.0]), np.array([1, 0, 2]), np.array([0, 3, 3, 3])),
            shape=(3, 3),
        )
        assert not a.has_sorted_indices
        with pytest.raises(NonFiniteInputError):
            SolveRequest(a, np.ones(3))


class TestAssembleBatch:
    def test_values_and_rhs_stack_in_order(self):
        requests = [
            SolveRequest(_tridiag(scale=s), np.full(6, s), solver="cg")
            for s in (1.0, 2.0, 3.0)
        ]
        matrix, b, x0 = assemble_batch(requests)
        assert matrix.num_batch == 3
        assert b.shape == (3, 6)
        assert x0 is None
        np.testing.assert_allclose(b[2], np.full(6, 3.0))
        np.testing.assert_allclose(matrix.values[1], requests[1].values)

    def test_partial_x0_zero_fills(self):
        with_guess = SolveRequest(_tridiag(), np.ones(6), x0=np.full(6, 7.0))
        without = SolveRequest(_tridiag(), np.ones(6))
        _matrix, _b, x0 = assemble_batch([with_guess, without])
        np.testing.assert_allclose(x0[0], 7.0)
        np.testing.assert_allclose(x0[1], 0.0)

    def test_pattern_mismatch_caught_even_past_digests(self):
        # assemble_batch re-verifies patterns against request 0, so a
        # hypothetical digest collision cannot silently stack mismatched
        # patterns.
        r1 = SolveRequest(_tridiag(), np.ones(6))
        r2 = SolveRequest(sp.csr_matrix(np.eye(6)), np.ones(6))
        with pytest.raises(BadSparsityPatternError):
            assemble_batch([r1, r2])

    def test_dense_requests_assemble_to_batch_dense(self):
        requests = [SolveRequest(np.eye(4) * s, np.ones(4)) for s in (1.0, 2.0)]
        matrix, _b, _x0 = assemble_batch(requests)
        assert matrix.num_batch == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            assemble_batch([])


class TestSolveTicket:
    def _outcome(self):
        return SolveOutcome(
            x=np.zeros(3),
            iterations=1,
            residual_norm=0.0,
            converged=True,
            solver_name="cg",
            used_fallback=False,
            batch_size=1,
            queue_wait_ms=0.0,
            solve_ms=0.0,
            worker="dev",
            plan_cache_hit=False,
        )

    def test_complete_delivers_outcome(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        assert ticket.status == PENDING and not ticket.done()
        ticket._complete(self._outcome())
        assert ticket.done() and ticket.status == DONE
        assert ticket.result(timeout=0.1).converged
        assert ticket.exception(timeout=0.1) is None

    def test_fail_raises_from_result(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        ticket._fail(RuntimeError("boom"))
        assert ticket.status == FAILED
        with pytest.raises(RuntimeError, match="boom"):
            ticket.result(timeout=0.1)

    def test_result_times_out_while_pending(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)

    def test_expiry_and_queue_wait(self):
        ticket = SolveTicket(
            SolveRequest(np.eye(3), np.ones(3)), submitted_ns=100, deadline_ns=200
        )
        assert not ticket.expired(150)
        assert ticket.expired(201)
        assert ticket.queue_wait_ns is None
        ticket.flushed_ns = 180
        assert ticket.queue_wait_ns == 80
