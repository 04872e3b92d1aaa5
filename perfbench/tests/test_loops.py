"""Due-time latency in the loops, on a fake clock and a fake service."""

import threading

import numpy as np
import pytest

from perfbench import loops, workloads
from perfbench.tracing import SpanRecorder
from perfbench.workloads import Job


class FakeClock:
    """Time moves only in ``sleep`` and in a stalled submit.

    ``sleep`` first waits (for real) until every submitted ticket has been
    collected, so each collector reads the clock at the instant its request
    completed and the test is deterministic whatever the thread timing.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.submitted = 0
        self.collected = 0
        self.cond = threading.Condition()

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        with self.cond:
            assert self.cond.wait_for(lambda: self.collected == self.submitted, timeout=10)
            self.now += seconds


class FakeTicket:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def result(self, timeout=None):
        with self.clock.cond:
            self.clock.collected += 1
            self.clock.cond.notify_all()
        return "outcome"


class FakeService:
    """Completes instantly, except that submit number ``stall_at`` blocks."""

    def __init__(self, clock: FakeClock, stall_at: int, stall_s: float) -> None:
        self.clock, self.stall_at, self.stall_s = clock, stall_at, stall_s
        self.calls = 0

    def submit(self, request):
        if self.calls == self.stall_at:
            self.clock.now += self.stall_s
        self.calls += 1
        with self.clock.cond:
            self.clock.submitted += 1
        return FakeTicket(self.clock)


def records(count: int) -> list:
    out = []
    for _ in range(count):
        record = loops.RequestRecord(Job(None, None, {}, "fake"))
        record.request = object()  # built ahead, as build_requests does
        out.append(record)
    return out


def test_stalled_submit_is_charged_to_the_requests_behind_it():
    clock = FakeClock()
    service = FakeService(clock, stall_at=1, stall_s=0.050)
    recs = records(5)
    loops.open_loop(
        service, recs, [0.0, 0.010, 0.020, 0.030, 0.040], clock=clock, sleep=clock.sleep
    )
    latency_ms = [round(1e3 * r.latency, 6) for r in recs]
    late_ms = [round(1e3 * (r.sent - r.due), 6) for r in recs]
    # request 1 stalls 50 ms in submit; 2-4 are sent late, the moment it returns
    assert latency_ms == [0.0, 50.0, 40.0, 30.0, 20.0]
    assert late_ms == [0.0, 0.0, 40.0, 30.0, 20.0]
    assert all(r.outcome == "outcome" and r.error is None for r in recs)


def test_no_stall_no_latency():
    clock = FakeClock()
    recs = records(3)
    loops.open_loop(
        FakeService(clock, stall_at=-1, stall_s=0.0), recs, [0.0, 0.5, 1.0],
        clock=clock, sleep=clock.sleep,
    )
    assert [r.latency for r in recs] == [0.0, 0.0, 0.0]
    assert [r.due for r in recs] == [0.0, 0.5, 1.0]


def test_traced_open_loop_spans_nest_under_the_request():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recs = records(4)
    for i, r in enumerate(recs):
        r.traced = i % 2 == 0
    loops.open_loop(
        FakeService(clock, stall_at=2, stall_s=0.2), recs, [0.0, 0.1, 0.2, 0.3],
        clock=clock, sleep=clock.sleep, recorder=recorder,
    )
    roots = [s for s in recorder.spans if s.name == "request"]
    assert len(roots) == 2  # only the traced half
    for root in roots:
        children = [s for s in recorder.spans if s.parent == root.span_id]
        assert {c.name for c in children} == {
            "generator.late", "serve.service.submit", "serve.request.SolveTicket.result"
        }
        assert all(c.trace_id == root.trace_id for c in children)
    stalled = next(r for r in roots if r.start == pytest.approx(0.2))
    assert stalled.end == pytest.approx(0.4)


def test_closed_loop_latency_runs_from_step_start():
    clock = FakeClock()

    class SlowSubmit(FakeService):
        def submit(self, request):
            clock.now += 0.001  # each submit takes 1 ms
            return super().submit(request)

    pattern, diag = workloads.stencil_pattern(8)
    rng = np.random.default_rng(0)
    jobs = [
        workloads.stencil_job(pattern, diag, rng, (0.1, 0.2), (1.0, 1.0), {}, "s")
        for _ in range(3)
    ]
    step = loops.run_step(SlowSubmit(clock, -1, 0.0), jobs, clock, loops._NULL)
    # every request is due at the step start and served after the last submit
    assert step.duration == pytest.approx(0.003)
    assert step.latencies == pytest.approx([0.003] * 3)
    assert [r.submit_s for r in step.requests] == pytest.approx([0.001] * 3)
