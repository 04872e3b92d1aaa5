"""Self-time arithmetic on nested spans, and the span file."""

import json

import pytest

from perfbench.tracing import SpanRecorder, format_table, layer_table, self_times


def nested():
    rec = SpanRecorder(clock=lambda: 0.0)
    trace = rec.new_trace()
    root = rec.add("step", 0.0, 10.0, trace)
    a = rec.add("a", 1.0, 4.0, trace, root)
    rec.add("a.child", 2.0, 3.0, trace, a)
    rec.add("b", 3.0, 6.0, trace, root)  # overlaps a
    rec.add("c", 8.0, 12.0, trace, root)  # runs past the root's end
    return rec


def test_self_time_subtracts_the_union_of_children():
    rec = nested()
    own = {s.name: own for s in rec.spans for sid, own in self_times(rec.spans).items()
           if sid == s.span_id}
    # children cover [1, 6] and [8, 10] of the root's [0, 10]
    assert own["step"] == pytest.approx(3.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["a.child"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(4.0)


def test_coverage_is_one_minus_root_self_over_wall():
    rows, wall, coverage = layer_table(nested().spans)
    assert wall == pytest.approx(10.0)
    assert coverage == pytest.approx(0.7)
    assert {r.name: r.count for r in rows}["a"] == 1


def test_table_states_its_base():
    text = format_table(nested().spans, "t")
    assert "traced wall 10000.0 ms over 1 root spans" in text
    assert "coverage 0.700" in text


def test_context_manager_and_jsonl(tmp_path):
    ticks = iter([1.0, 2.0, 3.0, 4.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    trace = rec.new_trace()
    with rec.span("outer", trace) as outer:
        with rec.span("inner", trace, outer):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(s["name"], s["start"], s["end"]) for s in lines] == [
        ("outer", 1.0, 4.0),
        ("inner", 2.0, 3.0),
    ]
    assert lines[1]["parent"] == lines[0]["span_id"]
    assert {s["trace_id"] for s in lines} == {trace}
