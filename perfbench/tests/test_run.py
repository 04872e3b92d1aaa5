"""Windowed end-to-end metrics on synthetic step records."""

import pytest

from perfbench import run
from perfbench.loops import StepRecord


def test_windows_hold_whole_cycles():
    cuts = run._windows(list(range(23)), 10, unit=5)
    assert [len(c) for c in cuts] == [5, 5, 5, 8]
    assert sum(cuts, []) == list(range(23))
    assert run._windows([1, 2], 10) == [[1], [2]]


def test_end_to_end_reports_medians_over_windows():
    # 20 one-system steps of 10 ms, except one 1 s stall in the first window
    steps = []
    t = 0.0
    for i in range(20):
        duration = 1.0 if i == 0 else 0.010
        steps.append(StepRecord(t, t + duration, [], False, [duration]))
        t += duration

    class Spec:
        cycle = 1

    record = {"steps": steps, "spec": Spec(), "setup_s": 0.5}
    metrics = run.end_to_end(record)
    assert set(metrics) == {
        "setup_s", "systems_per_s", "step_p50_ms", "latency_p50_ms", "peak_rss_mb",
    }
    # the stall moves one of ten windows, not the reported medians
    assert metrics["step_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["systems_per_s"] == (pytest.approx(100.0), "1/s")
    assert metrics["setup_s"] == (0.5, "s")
    timings = run.window_timings(record)
    assert timings["step_p90_ms"][0] == pytest.approx(10.0)
    assert set(run.DIAGNOSTIC_TIMINGS) <= set(timings)
