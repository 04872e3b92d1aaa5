"""LogHistogram, labelled instruments, and the Prometheus exposition."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    render_prometheus,
)


class TestLogHistogram:
    def test_exact_moments_approximate_quantiles(self):
        h = LogHistogram("t")
        samples = [1.0, 2.0, 3.0, 10.0, 100.0]
        h.observe_many(samples)
        # count/sum/min/max are tracked exactly, outside the buckets
        assert h.count == 5
        assert h.total == pytest.approx(sum(samples))
        assert h.min == 1.0
        assert h.max == 100.0
        assert h.mean == pytest.approx(sum(samples) / 5)

    def test_percentile_relative_error_bound(self):
        """Every quantile is within one growth step of the exact value."""
        rng = random.Random(42)
        samples = [rng.lognormvariate(1.0, 1.5) for _ in range(10_000)]
        h = LogHistogram("lat")
        h.observe_many(samples)
        ordered = sorted(samples)
        for p in (50.0, 90.0, 99.0):
            exact = ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
            estimate = h.percentile(p)
            rel = abs(estimate - exact) / exact
            assert rel < h.growth - 1.0, f"p{p}: {estimate} vs {exact}"

    def test_percentile_clamped_to_observed_range(self):
        h = LogHistogram("t")
        h.observe(5.0)
        assert h.percentile(0.0) == 5.0
        assert h.percentile(100.0) <= h.max
        assert h.percentile(50.0) >= h.min

    def test_empty_and_invalid(self):
        h = LogHistogram("t")
        assert math.isnan(h.percentile(50.0))
        with pytest.raises(ValueError):
            h.percentile(101.0)
        with pytest.raises(ValueError):
            LogHistogram("bad", growth=1.0)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = LogHistogram("t")
        h.observe_many([0.0, -1.0, 4.0])
        assert h.count == 3
        bounds = h.bucket_bounds()
        assert bounds[0] == (0.0, 2)  # two non-positive samples

    def test_merge_matches_single_stream(self):
        rng = random.Random(7)
        a_samples = [rng.uniform(0.1, 50.0) for _ in range(500)]
        b_samples = [rng.uniform(0.1, 50.0) for _ in range(500)]
        a = LogHistogram("a")
        b = LogHistogram("b")
        whole = LogHistogram("whole")
        a.observe_many(a_samples)
        b.observe_many(b_samples)
        whole.observe_many(a_samples + b_samples)
        a.merge(b)
        assert a.count == whole.count
        assert a.total == pytest.approx(whole.total)
        assert a.min == whole.min and a.max == whole.max
        for p in (50.0, 90.0, 99.0):
            assert a.percentile(p) == pytest.approx(whole.percentile(p))

    def test_merge_growth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram("a").merge(LogHistogram("b", growth=2.0))

    def test_bucket_bounds_cumulative(self):
        h = LogHistogram("t", growth=2.0)
        h.observe_many([1.5, 3.0, 3.5, 100.0])
        bounds = h.bucket_bounds()
        # cumulative counts are monotone and end at the full count
        counts = [c for _, c in bounds]
        assert counts == sorted(counts)
        assert counts[-1] == h.count
        uppers = [u for u, _ in bounds]
        assert uppers == sorted(uppers)


def _reference_percentile(h: LogHistogram, p: float) -> float:
    """The percentile walk before the bucket keys were kept sorted: it
    re-sorted every bucket index on each call. Kept as the reference."""
    if h._count == 0:
        return math.nan
    if p == 0.0:
        return h._min
    rank = math.ceil(p / 100.0 * h._count)
    seen = h._zero
    if rank <= seen:
        return 0.0
    for idx in sorted(h._buckets):
        seen += h._buckets[idx]
        if rank <= seen:
            mid = h.growth ** (idx + 0.5)
            return min(max(mid, h._min), h._max)
    return h._max


def _reference_exemplar_for(h: LogHistogram, p: float):
    if h._count == 0 or not h._exemplars or not h._buckets:
        return None
    rank = max(1, math.ceil(p / 100.0 * h._count))
    seen = h._zero
    if rank <= seen:
        return None
    target = max(h._buckets)
    for idx in sorted(h._buckets):
        seen += h._buckets[idx]
        if rank <= seen:
            target = idx
            break
    candidates = [idx for idx in h._exemplars if idx <= target]
    return h._exemplars[max(candidates)] if candidates else None


# latencies spanning many buckets, with zeros and negatives (underflow)
_SAMPLES = st.one_of(
    st.just(0.0),
    st.floats(-5.0, 0.0),
    st.floats(1e-4, 1e5, allow_nan=False, allow_infinity=False),
)


class TestSortedKeys:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(_SAMPLES, st.booleans(), st.booleans()), max_size=120),
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
    )
    def test_matches_the_resorting_walk(self, stream, percentiles):
        left, right = LogHistogram("l"), LogHistogram("r")
        for i, (value, to_right, traced) in enumerate(stream):
            (right if to_right else left).observe(value, trace_id=f"t{i}" if traced else None)
            for h in (left, right):
                assert h._keys == sorted(h._buckets)
        left.merge(right)
        assert left._keys == sorted(left._buckets)
        for p in percentiles + [0.0, 50.0, 99.0, 100.0]:
            expected = _reference_percentile(left, p)
            got = left.percentile(p)
            assert got == expected or (math.isnan(got) and math.isnan(expected))
            assert left.exemplar_for(p) == _reference_exemplar_for(left, p)
        cumulative, bounds = left._zero, [(0.0, left._zero)] if left._zero else []
        for idx in sorted(left._buckets):
            cumulative += left._buckets[idx]
            bounds.append((left.growth ** (idx + 1), cumulative))
        assert left.bucket_bounds() == bounds


class TestLabels:
    def test_counter_labels_children(self):
        registry = MetricsRegistry()
        flushes = registry.counter("serve.flushes")
        flushes.labels(backend="sycl").inc()
        flushes.labels(backend="sycl").inc()
        flushes.labels(backend="cuda").inc()
        sycl = flushes.labels(backend="sycl")
        assert sycl.value == 2
        assert sycl.name == 'serve.flushes{backend="sycl"}'
        # children are stable objects, keyed by sorted label set
        assert flushes.labels(backend="sycl") is sycl
        names = [m.name for m in registry.instruments()]
        assert "serve.flushes" in names
        assert 'serve.flushes{backend="cuda"}' in names

    def test_label_key_order_canonical(self):
        counter = Counter("c")
        a = counter.labels(x="1", y="2")
        b = counter.labels(y="2", x="1")
        assert a is b

    def test_labels_require_at_least_one(self):
        with pytest.raises(ValueError):
            Gauge("g").labels()


class TestPrometheusRender:
    def test_all_four_families(self):
        registry = MetricsRegistry()
        registry.counter("solve.count").inc(3)
        registry.gauge("queue.depth").set(7.0)
        registry.histogram("exact_ms").observe_many([1.0, 2.0, 3.0])
        registry.log_histogram("hdr_ms").observe_many([1.0, 2.0, 4.0])
        text = render_prometheus(registry)
        assert "# TYPE solve_count counter" in text
        assert "solve_count 3.0" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7.0" in text
        assert "# TYPE exact_ms summary" in text
        assert 'exact_ms{quantile="0.5"}' in text
        assert "exact_ms_sum 6.0" in text
        assert "exact_ms_count 3.0" in text
        assert "# TYPE hdr_ms histogram" in text
        assert 'hdr_ms_bucket{le="+Inf"} 3.0' in text
        assert "hdr_ms_count 3.0" in text

    def test_labelled_children_render_as_family_samples(self):
        registry = MetricsRegistry()
        flushes = registry.counter("serve.flushes")
        flushes.labels(backend="sycl", solver="cg").inc(5)
        text = render_prometheus(registry)
        assert '# TYPE serve_flushes counter' in text
        assert 'serve_flushes{backend="sycl",solver="cg"} 5.0' in text
        # only one TYPE header per family
        assert text.count("# TYPE serve_flushes counter") == 1

    def test_nan_gauge_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("unset")
        text = render_prometheus(registry)
        assert "# TYPE unset gauge" in text
        assert "\nunset " not in text

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("serve.latency-ms.p99").inc()
        text = render_prometheus(registry)
        assert "serve_latency_ms_p99 1.0" in text

    def test_log_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        h = registry.log_histogram("lat")
        h.observe_many([1.0, 2.0, 4.0, 8.0])
        text = render_prometheus(registry)
        bucket_lines = [
            line for line in text.splitlines() if line.startswith("lat_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4.0
