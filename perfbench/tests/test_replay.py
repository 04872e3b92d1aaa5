"""The worker-side replay solves on the path the service's config selects."""

import numpy as np

from repro.serve import PlanCache, SolveRequest, assemble_batch
from repro.sycl.device import pvc_stack_device
from repro.wide.queue import WideQueue

from perfbench import workloads
from perfbench.check import relative_residual
from perfbench.loops import RequestRecord
from perfbench.replay import kernel_solve, replay
from perfbench.tracing import SpanRecorder


def cells(count=4):
    jobs = workloads.PeleCells("drm19").cells(count, np.random.default_rng(0))
    records = []
    for job in jobs:
        record = RequestRecord(job)
        record.request = SolveRequest(job.a, job.b, **job.kwargs)
        records.append(record)
    return jobs, records


def test_kernel_solve_answers_within_tolerance():
    jobs, records = cells()
    device = pvc_stack_device(1)
    matrix, b, _ = assemble_batch([r.request for r in records])
    plan, _ = PlanCache(device).plan_for(records[0].request.batch_key)
    result = kernel_solve(plan.build_solver(matrix), plan.resolved, b, WideQueue(device))
    assert result.converged.all()
    for job, x in zip(jobs, result.x):
        assert relative_residual(job.a, x, job.b) < 10 * job.kwargs["tolerance"]


def span_names(recorder):
    return {span.name for span in recorder.spans}


def test_kernel_config_replays_fused_kernel_without_building_blocks():
    _, records = cells()
    recorder = SpanRecorder()
    config = dict(workloads.SERVICE_CONFIG, backend="wide", execution="kernel")
    stats = replay([records], pvc_stack_device(1), recorder, 0.0, config)
    assert "kernels.fused_solve" in span_names(recorder)
    assert "core.solver.solve" not in span_names(recorder)
    assert stats.solves == 1 and len(stats.solve_s) == 1
    assert not stats.kernel_calls
    assert stats.per_call_us(("spmv",)) == 0.0
    assert stats.loop_overhead_frac() == 0.0


def test_vectorized_config_times_building_blocks():
    _, records = cells()
    recorder = SpanRecorder()
    stats = replay([records], pvc_stack_device(1), recorder, 0.0, workloads.SERVICE_CONFIG)
    assert "core.solver.solve" in span_names(recorder)
    assert stats.calls_per_solve(("spmv",)) > 0
    assert stats.per_call_us(("spmv",)) > 0
