"""Streaming (HDR-style) latency metrics wired into the serve path."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.observability import LogHistogram, render_prometheus
from repro.observability.metrics import Counter, Gauge
from repro.serve import ServeConfig, SolveRequest, SolverService


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


@pytest.fixture(scope="module")
def served_metrics():
    config = ServeConfig(max_batch_size=4, max_wait_ms=5.0, num_workers=1)
    with SolverService(config) as service:
        rng = np.random.default_rng(3)
        tickets = [
            service.submit(
                SolveRequest(
                    _tridiag(8),
                    rng.standard_normal(8),
                    solver="cg",
                    preconditioner="jacobi",
                    tolerance=1e-8,
                )
            )
            for _ in range(6)
        ]
        outcomes = [t.result(timeout=60.0) for t in tickets]
        assert all(o.converged for o in outcomes)
        yield service.metrics, service.config


def test_service_owns_only_bounded_instruments(served_metrics):
    metrics, _ = served_metrics
    hdr = metrics.log_histogram("serve.latency_hdr_ms")
    served = metrics.counter("serve.served").value
    assert served == 6
    assert hdr.count == served
    assert metrics.log_histogram("serve.flush_solve_hdr_ms").count > 0
    # no instrument keeps every sample: memory stays flat however long
    # the service runs, and a registry snapshot never sorts a sample list
    unbounded = [
        inst.name
        for inst in metrics.instruments()
        if not isinstance(inst, (Counter, Gauge, LogHistogram))
    ]
    assert unbounded == []


def test_flush_counter_labelled_by_backend_and_solver(served_metrics):
    metrics, config = served_metrics
    flushes = metrics.counter("serve.flush_solves")
    labelled = flushes.labels(backend=config.backend, solver="cg")
    assert labelled.value > 0


def test_prometheus_scrape_exposes_serve_instruments(served_metrics):
    metrics, config = served_metrics
    text = render_prometheus(metrics)
    assert "# TYPE serve_latency_hdr_ms histogram" in text
    assert 'serve_latency_hdr_ms_bucket{le="+Inf"}' in text
    assert "serve_latency_hdr_ms_count" in text
    assert (
        f'serve_flush_solves{{backend="{config.backend}",solver="cg"}}' in text
    )
