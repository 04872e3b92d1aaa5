"""SolverService end-to-end: correctness, backpressure, timeouts, fallback."""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chaos import ChaosInjector, FaultPlan, FaultSpec
from repro.chaos.plan import POISON_BATCH
from repro.core.solver.base import BatchSolveResult
from repro.exceptions import (
    NonFiniteInputError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.serve import request as request_module
from repro.serve import service as service_module
from repro.serve.request import TIMED_OUT, PatternTable
from repro.telemetry.events import REQUEST_FALLBACK, REQUEST_FLUSHED


def _tridiag(n, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _dense_of(request):
    n = request.num_rows
    dense = np.zeros((n, n))
    for row in range(n):
        lo, hi = request.row_ptrs[row], request.row_ptrs[row + 1]
        dense[row, request.col_idxs[lo:hi]] = request.values[lo:hi]
    return dense


def _poisoned(n):
    """A nonsymmetric system on the tridiagonal pattern; CG cannot converge."""
    matrix = _tridiag(n)
    data = matrix.data.copy()
    off = data < 0
    data[off] = np.where(np.arange(off.sum()) % 2 == 0, 100.0, -99.0)
    matrix.data = data
    return matrix


class TestEndToEnd:
    def test_solutions_match_lu_reference(self):
        rng = np.random.default_rng(0)
        config = ServeConfig(max_batch_size=4, max_wait_ms=50.0, num_workers=2)
        with SolverService(config) as service:
            requests = [
                SolveRequest(
                    _tridiag(12, scale=rng.uniform(0.5, 2.0)),
                    rng.standard_normal(12),
                    solver="bicgstab",
                    preconditioner="jacobi",
                    tolerance=1e-10,
                )
                for _ in range(8)
            ]
            tickets = [service.submit(r) for r in requests]
            outcomes = [t.result(timeout=30.0) for t in tickets]
        for request, outcome in zip(requests, outcomes):
            assert outcome.converged
            reference = np.linalg.solve(_dense_of(request), request.b)
            np.testing.assert_allclose(outcome.x, reference, rtol=1e-6, atol=1e-8)
        # two full size-triggered flushes of 4
        assert all(o.batch_size == 4 for o in outcomes)

    def test_incompatible_configs_get_separate_batches(self):
        rng = np.random.default_rng(1)
        config = ServeConfig(max_batch_size=16, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            loose = [
                service.submit(
                    SolveRequest(_tridiag(8), rng.standard_normal(8), tolerance=1e-4)
                )
                for _ in range(3)
            ]
            tight = [
                service.submit(
                    SolveRequest(_tridiag(8), rng.standard_normal(8), tolerance=1e-10)
                )
                for _ in range(2)
            ]
            service.flush()
            loose_outcomes = [t.result(timeout=30.0) for t in loose]
            tight_outcomes = [t.result(timeout=30.0) for t in tight]
        assert all(o.batch_size == 3 for o in loose_outcomes)
        assert all(o.batch_size == 2 for o in tight_outcomes)

    def test_deadline_flush_serves_partial_batch(self):
        config = ServeConfig(max_batch_size=64, max_wait_ms=5.0, num_workers=1)
        with SolverService(config) as service:
            ticket = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            outcome = ticket.result(timeout=30.0)
        assert outcome.converged and outcome.batch_size == 1
        assert service.metrics.counter("serve.flushes.deadline").value >= 1

    def test_plan_cache_accounting_across_flushes(self):
        config = ServeConfig(max_batch_size=2, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            tickets = [
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
                for _ in range(8)  # four size flushes, one compatibility class
            ]
            for ticket in tickets:
                ticket.result(timeout=30.0)
            assert service.plan_cache.misses == 1
            assert service.plan_cache.hits == 3
            assert service.plan_cache.hit_rate == 0.75
            hits = [t.result(timeout=1.0).plan_cache_hit for t in tickets]
        assert sum(1 for h in hits if not h) == 2  # the first flush's requests

    def test_tracer_records_serve_spans(self):
        tracer = Tracer()
        config = ServeConfig(max_batch_size=2, max_wait_ms=500.0, num_workers=1)
        with SolverService(config, tracer=tracer) as service:
            for _ in range(2):
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            service.wait_idle(timeout=30.0)
        names = {span.name for span in tracer.spans}
        assert {"serve.flush", "serve.assembly", "serve.solve", "serve.scatter"} <= names


class TestBackpressure:
    def test_submit_past_max_pending_rejected(self):
        config = ServeConfig(
            max_batch_size=64, max_wait_ms=5000.0, max_pending=2, num_workers=1
        )
        service = SolverService(config)
        try:
            for _ in range(2):
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            with pytest.raises(ServiceSaturatedError) as excinfo:
                service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            assert excinfo.value.retry_after_s > 0
            assert service.metrics.counter("serve.rejected").value == 1
        finally:
            service.close()

    def test_capacity_frees_up_after_completion(self):
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=5000.0, max_pending=1, num_workers=1
        )
        with SolverService(config) as service:
            service.submit(SolveRequest(_tridiag(8), np.ones(8))).result(timeout=30.0)
            service.wait_idle(timeout=30.0)
            # pending slot released → next submit admitted
            service.submit(SolveRequest(_tridiag(8), np.ones(8))).result(timeout=30.0)

    def test_submit_after_close_rejected(self):
        service = SolverService(ServeConfig(num_workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(SolveRequest(_tridiag(8), np.ones(8)))


class TestTimeout:
    def test_expired_request_fails_with_timeout_error(self):
        config = ServeConfig(
            max_batch_size=64,
            max_wait_ms=10_000.0,  # flusher never fires on its own
            num_workers=1,
            request_timeout_ms=1.0,
        )
        service = SolverService(config)
        try:
            ticket = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            time.sleep(0.02)  # let the 1 ms deadline lapse while queued
            service.flush()
            with pytest.raises(RequestTimeoutError):
                ticket.result(timeout=30.0)
            assert ticket.status == TIMED_OUT
            assert service.metrics.counter("serve.timeouts").value == 1
        finally:
            service.close()


class TestGracefulDegradation:
    def test_nonconvergent_request_falls_back_without_harming_batch(self):
        rng = np.random.default_rng(2)
        n = 12
        config = ServeConfig(max_batch_size=8, max_wait_ms=500.0, num_workers=1)
        with SolverService(config) as service:
            healthy = [
                service.submit(
                    SolveRequest(
                        _tridiag(n),
                        rng.standard_normal(n),
                        solver="cg",
                        preconditioner="jacobi",
                        max_iterations=40,
                    )
                )
                for _ in range(3)
            ]
            bad_request = SolveRequest(
                _poisoned(n),
                rng.standard_normal(n),
                solver="cg",
                preconditioner="jacobi",
                max_iterations=40,
            )
            assert bad_request.batch_key == healthy[0].request.batch_key
            bad = service.submit(bad_request)
            service.flush()
            bad_outcome = bad.result(timeout=30.0)
            healthy_outcomes = [t.result(timeout=30.0) for t in healthy]

        assert bad_outcome.used_fallback
        assert bad_outcome.solver_name == "direct"
        assert bad_outcome.converged
        reference = np.linalg.solve(_dense_of(bad_request), bad_request.b)
        np.testing.assert_allclose(bad_outcome.x, reference, rtol=1e-8)
        assert all(o.converged and not o.used_fallback for o in healthy_outcomes)
        assert all(o.batch_size == 4 for o in healthy_outcomes)
        assert service.metrics.counter("serve.fallbacks").value == 1
        assert service.metrics.counter("serve.failed").value == 0

    @pytest.mark.parametrize("entry", ["not_converged", "flush_failed"])
    def test_fallback_entry_points(self, entry):
        """Both ways into the per-system LU fallback: one system of the
        flush did not converge, or the whole flush failed (a poisoned
        batch), which re-solves every request alone."""
        rng = np.random.default_rng(2)
        n = 12
        chaos = (
            ChaosInjector(FaultPlan(0, (FaultSpec(POISON_BATCH, at=(0,)),)))
            if entry == "flush_failed"
            else None
        )
        config = ServeConfig(max_batch_size=4, max_wait_ms=500.0, num_workers=1)
        with SolverService(config, chaos=chaos) as service:
            requests = [
                SolveRequest(
                    matrix,
                    rng.standard_normal(n),
                    solver="cg",
                    preconditioner="jacobi",
                    max_iterations=40,
                )
                for matrix in [_tridiag(n)] * 3 + [_poisoned(n)]
            ]
            tickets = [service.submit(r) for r in requests]
            outcomes = [t.result(timeout=30.0) for t in tickets]

        rescued = outcomes if entry == "flush_failed" else outcomes[-1:]
        assert [o.used_fallback for o in outcomes].count(True) == len(rescued)
        assert all(o.used_fallback and o.solver_name == "direct" for o in rescued)
        for request, outcome in zip(requests, outcomes):
            reference = np.linalg.solve(_dense_of(request), request.b)
            np.testing.assert_allclose(outcome.x, reference, rtol=1e-6)
        counters = {
            name: service.metrics.counter(name).value
            for name in ("serve.fallbacks", "serve.fallback_failures", "serve.failed")
        }
        assert counters == {
            "serve.fallbacks": len(rescued),
            "serve.fallback_failures": 0,
            "serve.failed": 0,
        }
        records = service.events.records()
        (flush_id,) = {r["fields"]["flush_id"] for r in records if r["type"] == REQUEST_FLUSHED}
        fallbacks = [r for r in records if r["type"] == REQUEST_FALLBACK]
        assert sorted(r["trace_id"] for r in fallbacks) == sorted(
            o.trace_id for o in rescued
        )
        expected = (
            {"reason": "not_converged", "flush_id": flush_id}
            if entry == "not_converged"
            else {"reason": "flush_failed", "error": "PoisonedBatchError"}
        )
        assert all(r["fields"] == expected for r in fallbacks)

    def test_fallback_disabled_reports_nonconvergence(self):
        config = ServeConfig(
            max_batch_size=1, max_wait_ms=500.0, num_workers=1, fallback=False
        )
        with SolverService(config) as service:
            outcome = service.solve(
                SolveRequest(
                    _poisoned(12),
                    np.ones(12),
                    solver="cg",
                    preconditioner="jacobi",
                    max_iterations=40,
                ),
                timeout=30.0,
            )
        assert not outcome.converged
        assert not outcome.used_fallback
        assert service.metrics.counter("serve.fallbacks").value == 0


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        config = ServeConfig(max_batch_size=64, max_wait_ms=10_000.0, num_workers=1)
        service = SolverService(config)
        tickets = [
            service.submit(SolveRequest(_tridiag(8), np.ones(8))) for _ in range(3)
        ]
        service.close(drain=True)
        for ticket in tickets:
            assert ticket.result(timeout=1.0).converged
        assert service.pending == 0

    def test_close_is_idempotent(self):
        service = SolverService(ServeConfig(num_workers=1))
        service.close()
        service.close()


class TestWakeups:
    """The flusher and ``wait_idle`` share one condition; only their events notify it."""

    def test_only_arming_a_deadline_and_going_idle_notify(self):
        config = ServeConfig(max_batch_size=8, max_wait_ms=10_000.0, num_workers=1)
        with SolverService(config) as service:
            give_up = time.monotonic() + 5.0
            while not service._flusher_idle:  # parked, no deadline armed
                assert time.monotonic() < give_up
                time.sleep(0.001)
            notifiers = []
            notify_all = service._state.notify_all

            def counting_notify_all():
                notifiers.append(threading.current_thread().name)
                notify_all()

            service._state.notify_all = counting_notify_all
            tickets = [
                service.submit(SolveRequest(_tridiag(8), np.ones(8))) for _ in range(8)
            ]
            assert service.wait_idle(timeout=30.0)
            assert all(t.result(timeout=1.0).batch_size == 8 for t in tickets)
            # the first submit arms the deadline, the last completion wakes
            # wait_idle; joining the bucket and the other completions do not
            assert len(notifiers) == 2
            assert notifiers[0] == threading.current_thread().name

    def test_bucket_opened_under_an_armed_deadline_flushes_on_time(self):
        config = ServeConfig(max_batch_size=64, max_wait_ms=20.0, num_workers=1)
        with SolverService(config) as service:
            first = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            time.sleep(0.005)  # the flusher now waits for the first bucket
            second = service.submit(SolveRequest(_tridiag(10), np.ones(10)))
            outcomes = [first.result(timeout=5.0), second.result(timeout=5.0)]
        assert [o.batch_size for o in outcomes] == [1, 1]
        assert service.metrics.counter("serve.flushes.deadline").value == 2


class TestNonFiniteAdmission:
    def test_non_finite_request_never_reaches_the_service(self):
        config = ServeConfig(max_batch_size=2, max_wait_ms=5.0, num_workers=1)
        with SolverService(config) as service:
            offered = []
            offer = service.batcher.offer
            service.batcher.offer = lambda ticket: offered.append(ticket) or offer(ticket)
            poisoned = _tridiag(8)
            poisoned.data[4] = np.nan
            with pytest.raises(NonFiniteInputError):
                service.submit(SolveRequest(poisoned, np.ones(8)))
            with pytest.raises(NonFiniteInputError):
                service.submit(SolveRequest(_tridiag(8), np.full(8, np.inf)))
            assert offered == [] and service.pending == 0
            healthy = service.submit(SolveRequest(_tridiag(8), np.ones(8)))
            assert healthy.result(timeout=30.0).used_fallback is False
        metrics = service.metrics
        assert metrics.counter("serve.accepted").value == 1
        assert metrics.counter("serve.flushes").value == 1
        assert "serve.fallbacks" not in metrics and "serve.failed" not in metrics
        assert [e["type"] for e in service.events.records()].count("request.admitted") == 1


class _CountingCondition(threading.Condition):
    """Records which function enters the condition, one name per ``with``."""

    def __init__(self, lock=None):
        super().__init__(lock)
        self.entered_by = []

    def __enter__(self):
        self.entered_by.append(sys._getframe(1).f_code.co_name)
        return super().__enter__()


class TestHotPathWork:
    """What one 64-request flush of one pattern costs, counted not timed."""

    def test_one_flush_of_co_patterned_requests(self, monkeypatch):
        n, batch = 24, 64
        monkeypatch.setattr(request_module, "PATTERNS", PatternTable(capacity=8))
        sha1_calls = []
        real_sha1 = hashlib.sha1

        def counting_sha1(*args):
            sha1_calls.append(1)
            return real_sha1(*args)

        monkeypatch.setattr(request_module.hashlib, "sha1", counting_sha1)
        with monkeypatch.context() as construct:
            construct.setattr(service_module.threading, "Condition", _CountingCondition)
            service = SolverService(
                ServeConfig(max_batch_size=batch, max_wait_ms=60_000.0, num_workers=1)
            )
        rng = np.random.default_rng(7)

        def step():
            requests = [
                SolveRequest(_tridiag(n, rng.uniform(1.0, 2.0)), rng.standard_normal(n))
                for _ in range(batch)
            ]
            tickets = [service.submit(r) for r in requests]
            return [t.result(timeout=30.0) for t in tickets]

        def one_request_flush():
            ticket = service.submit(SolveRequest(_tridiag(n), np.ones(n)))
            service.flush()
            ticket.result(timeout=30.0)

        try:
            step()  # warm-up: plan cache, instruments, interned pattern
            one_request_flush()
            assert sha1_calls == [1]

            lookups = []
            get_or_create = MetricsRegistry._get_or_create
            monkeypatch.setattr(
                MetricsRegistry,
                "_get_or_create",
                lambda registry, name, cls: lookups.append(name)
                or get_or_create(registry, name, cls),
            )
            one_request_flush()
            per_flush = list(lookups)

            equal_calls = []
            array_equal = np.array_equal

            def counting_array_equal(*args, **kwargs):
                if sys._getframe(1).f_code.co_name == "assemble_batch":
                    equal_calls.append(1)
                return array_equal(*args, **kwargs)

            monkeypatch.setattr(np, "array_equal", counting_array_equal)

            def no_select(*_args, **_kwargs):
                raise AssertionError("select() on the healthy scatter path")

            monkeypatch.setattr(BatchSolveResult, "select", no_select)
            lookups.clear()
            service._state.entered_by.clear()
            outcomes = step()
            assert service.wait_idle(timeout=30.0)
        finally:
            service.close()

        assert sha1_calls == [1]
        assert equal_calls == []
        # the registry is asked per flush (the flush-reason counter and the
        # plan-cache hit), never per request
        assert len(lookups) == len(per_flush) == 2
        completions = [
            name
            for name in service._state.entered_by
            if name not in ("submit", "_dispatch", "_flush_loop", "wait_idle", "close")
        ]
        assert completions == ["_release"]
        assert all(o.batch_size == batch and not o.used_fallback for o in outcomes)
        for i, outcome in enumerate(outcomes):
            # a row copy each: holding one outcome does not pin the batch
            assert outcome.x.flags.owndata
            for other in outcomes[i + 1 :]:
                assert not np.shares_memory(outcome.x, other.x)
