"""Closed- and open-loop clients of ``repro.serve.SolverService``.

Both loops time only the public calls a caller makes — ``SolveRequest(...)``,
``SolverService.submit`` and ``SolveTicket.result`` — and keep one
:class:`RequestRecord` per request. When a span recorder is given, every
second step (closed loop) or request (open loop) also records its spans
inline, so the traced and untraced halves of one run give the tracing
overhead.

Latency is measured from a request's *due* time: in a closed loop every
request of a step is due when the step starts; in the open loop a request
is due at its scheduled arrival, so a stalled submit is charged to every
request queued behind it.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.exceptions import QuotaExceededError, ServiceSaturatedError
from repro.serve import SolveRequest

from perfbench.tracing import NullRecorder
from perfbench.workloads import Job

#: Longest a loop waits for one outcome before counting it as failed.
RESULT_TIMEOUT_S = 60.0
#: Open-loop threads blocking in ``SolveTicket.result``, several at a time,
#: so an outcome is timestamped when it arrives even while an earlier
#: request is still outstanding.
COLLECTORS = 4

_NULL = NullRecorder()


@dataclass
class RequestRecord:
    """Timestamps (seconds) and result of one request."""

    job: Job
    due: float = math.nan
    ingest_s: float = math.nan
    sent: float = math.nan  # submit call entered
    submit_s: float = math.nan
    wait_start: float = math.nan
    done: float = math.nan  # outcome (or failure) returned to the caller
    outcome: object | None = None
    error: str | None = None
    refused: bool = False
    traced: bool = False
    request: SolveRequest | None = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        """Due time to outcome."""
        return self.done - self.due


@dataclass
class StepRecord:
    """One closed-loop step; ``latencies`` (seconds) of its served requests."""

    start: float
    end: float
    requests: list[RequestRecord]
    traced: bool
    latencies: list[float]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ingest(record: RequestRecord, clock, recorder, trace: int, parent) -> None:
    job = record.job
    start = clock()
    try:
        record.request = SolveRequest(job.a, job.b, **job.kwargs)
    except Exception as exc:  # a rejected input is a counted failure
        record.error = f"ingest raised {type(exc).__name__}: {exc}"
    end = clock()
    record.ingest_s = end - start
    recorder.add("serve.request.SolveRequest", start, end, trace, parent)


def _submit(service, record: RequestRecord, clock, recorder, trace: int, parent):
    """Submit one built request; returns its ticket (None when refused)."""
    record.sent = clock()
    ticket = None
    try:
        ticket = service.submit(record.request)
    except (ServiceSaturatedError, QuotaExceededError) as exc:
        record.refused = True
        record.error = f"refused: {exc}"
    except Exception as exc:
        record.error = f"submit raised {type(exc).__name__}: {exc}"
    end = clock()
    record.submit_s = end - record.sent
    recorder.add("serve.service.submit", record.sent, end, trace, parent)
    if ticket is None:
        record.done = end
    return ticket


def _wait(ticket, record: RequestRecord, clock, recorder, trace: int, parent) -> None:
    record.wait_start = clock()
    try:
        record.outcome = ticket.result(RESULT_TIMEOUT_S)
    except Exception as exc:
        record.error = f"result raised {type(exc).__name__}: {exc}"
    record.done = clock()
    recorder.add("serve.request.SolveTicket.result", record.wait_start, record.done, trace, parent)


def run_step(service, jobs: list[Job], clock, recorder) -> StepRecord:
    """Build every request, submit them all, wait for every outcome."""
    trace = recorder.new_trace()
    records = [RequestRecord(job, traced=recorder is not _NULL) for job in jobs]
    with recorder.span("step", trace) as root:
        start = clock()
        for record in records:
            record.due = start
            _ingest(record, clock, recorder, trace, root)
        tickets = [
            _submit(service, r, clock, recorder, trace, root) if r.request is not None else None
            for r in records
        ]
        for record, ticket in zip(records, tickets):
            if ticket is not None:
                _wait(ticket, record, clock, recorder, trace, root)
            elif record.request is None:
                record.done = clock()
        end = clock()
    latencies = [r.latency for r in records if r.outcome is not None]
    return StepRecord(start, end, records, recorder is not _NULL, latencies)


def closed_loop(
    service,
    steps: Iterator[list[Job]],
    seconds: float,
    cycle: int,
    *,
    recorder=None,
    on_step: Callable[[StepRecord], None] | None = None,
) -> list[StepRecord]:
    """Run whole cycles of steps until ``seconds`` have passed.

    With a recorder, even steps are traced and odd ones are not; ``cycle``
    is odd for every workload, so each step kind is traced as often as not.
    """
    clock = time.perf_counter
    records: list[StepRecord] = []
    phase_start = clock()
    index = 0
    while index % cycle or clock() - phase_start < seconds:
        jobs = next(steps)
        traced = recorder is not None and index % 2 == 0
        step = run_step(service, jobs, clock, recorder if traced else _NULL)
        records.append(step)
        if on_step is not None:
            on_step(step)
        index += 1
    return records


def build_requests(jobs: list[Job], *, recorder=None) -> list[RequestRecord]:
    """Build every open-loop request ahead of its schedule.

    Independent callers have their request in hand when it is due, so the
    open loop times ingest here, before the timed phase (one ``prebuild``
    trace holds the ingest spans).
    """
    recorder = _NULL if recorder is None else recorder
    trace = recorder.new_trace()
    records = []
    with recorder.span("prebuild", trace) as root:
        for i, job in enumerate(jobs):
            record = RequestRecord(job, traced=recorder is not _NULL and i % 2 == 0)
            _ingest(record, time.perf_counter, recorder if record.traced else _NULL, trace, root)
            records.append(record)
    return records


def open_loop(
    service,
    records: list[RequestRecord],
    offsets_s,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    recorder=None,
) -> None:
    """Submit ``records[i]`` at ``start + offsets_s[i]``, regardless of load.

    One generator (the calling thread) paces the submits; a late submit
    fires at once, never rescheduling the requests behind it; ``COLLECTORS``
    threads wait for the outcomes. Fills in each record in place.
    """
    recorder = _NULL if recorder is None else recorder
    handoff: queue.SimpleQueue = queue.SimpleQueue()

    def collect() -> None:
        while (item := handoff.get()) is not None:
            record, ticket, trace, root = item
            rec = recorder if record.traced else _NULL
            _wait(ticket, record, clock, rec, trace, root)
            rec.add("request", record.due, record.done, trace, span_id=root)

    threads = [
        threading.Thread(target=collect, name=f"bench-collector-{i}", daemon=True)
        for i in range(COLLECTORS)
    ]
    for thread in threads:
        thread.start()
    try:
        start = clock()
        for record, offset in zip(records, offsets_s):
            record.due = start + float(offset)
            delay = record.due - clock()
            if delay > 0:
                sleep(delay)
            if record.request is None:  # ingest already failed
                record.done = record.due
                continue
            rec = recorder if record.traced else _NULL
            trace = rec.new_trace()
            root = rec.reserve()
            ticket = _submit(service, record, clock, rec, trace, root)
            rec.add("generator.late", record.due, record.sent, trace, root)
            if ticket is None:
                rec.add("request", record.due, record.done, trace, span_id=root)
            else:
                handoff.put((record, ticket, trace, root))
    finally:
        for _ in threads:
            handoff.put(None)
        for thread in threads:
            thread.join(RESULT_TIMEOUT_S + 5.0)
