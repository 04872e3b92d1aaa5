"""End-to-end and per-layer solve benchmark over ``repro.serve.SolverService``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pele_step --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with the benchmark's own spans around the public
calls, replays the formed flushes for the worker-side layers, writes the
spans to ``.bench_out/`` and reports the per-layer metrics. Either way every
outcome is checked against an independently recomputed residual. The last
line of standard output is one JSON object; the exit code is non-zero when
any output is wrong (or a traced run's health check fails).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Services built and warmed per run; ``setup_s`` is their median.
SETUP_REPEATS = 61
#: Consecutive windows of the timed phase; end-to-end timings are medians.
WINDOWS = 10
#: Traced-run health bounds (stated here, checked on every traced run).
MIN_TRACE_COVERAGE = 0.9
MAX_TRACE_OVERHEAD_PCT = 15.0

WORKLOADS = ("pele_step", "serve_open", "stencil_large", "pele_kernel_wide")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _counter(service, name: str) -> float:
    """A counter's total, label children included."""
    counter = service.metrics.counter(name)
    return counter.value + sum(child.value for child in counter.children())


def _counters(service) -> dict[str, float]:
    names = (
        "serve.flushes",
        "serve.kernel_solves",
        "serve.fallbacks",
        "serve.plan_cache.hits",
        "serve.plan_cache.misses",
    )
    return {name: _counter(service, name) for name in names}


# -- set-up ---------------------------------------------------------------------------


def setup(spec, check):
    """Build and warm ``SETUP_REPEATS`` services; keep the last one.

    Each repeat times constructing the service until one warm-up request
    per ``BatchKey`` is served, cold plan-cache misses included.
    """
    from repro.serve import ServeConfig, SolveRequest, SolverService
    from perfbench.loops import RESULT_TIMEOUT_S

    times = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        start = time.perf_counter()
        service = SolverService(ServeConfig(**spec.config))
        tickets = [
            service.submit(SolveRequest(job.a, job.b, **job.kwargs)) for job in spec.warmups
        ]
        outcomes = [ticket.result(RESULT_TIMEOUT_S) for ticket in tickets]
        times.append(time.perf_counter() - start)
        for job, outcome in zip(spec.warmups, outcomes):
            check(job, outcome, "warm-up")
    return _median(times), service


# -- one workload -------------------------------------------------------------------


class Checker:
    """Counts wrong answers, errors and refusals; keeps the first reasons."""

    def __init__(self, iterative_only: bool) -> None:
        self.iterative_only = iterative_only
        self.failures: list[str] = []
        # timed-phase requests only, warm-ups excluded
        self.attempted = self.failed_requests = self.poisoned = 0

    def __call__(self, job, outcome, where: str) -> bool:
        from perfbench.check import check_outcome

        reason = check_outcome(job, outcome, iterative_only=self.iterative_only)
        if reason is not None:
            self.failures.append(f"{where} ({job.label}): {reason}")
        return reason is None

    def record(self, record, where: str) -> None:
        """Check one request record, then drop its bulky inputs and ``x``."""
        self.attempted += 1
        self.poisoned += record.job.poisoned
        if record.error is not None:
            self.failures.append(f"{where} ({record.job.label}): {record.error}")
            self.failed_requests += 1
        else:
            self.failed_requests += not self(record.job, record.outcome, where)
            record.outcome.x = None
        record.job.a = record.job.b = None


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench import loops, workloads
    from perfbench.tracing import SpanRecorder

    spec = workloads.make_workload(name, seed, seconds)
    checker = Checker(iterative_only=name == "stencil_large")
    setup_s, service = setup(spec, checker)
    recorder = SpanRecorder() if traced else None
    before = _counters(service)
    try:
        if isinstance(spec, workloads.ClosedLoopSpec):

            def on_step(step) -> None:
                where = f"step {len(step_starts)}"
                step_starts.append(step.start)
                for record in step.requests:
                    checker.record(record, where)
                if not traced:
                    # keep the step's timings only, so memory stays flat
                    # however many steps a run completes
                    step.requests = []

            step_starts: list[float] = []
            steps = loops.closed_loop(
                service, spec.steps, seconds, spec.cycle, recorder=recorder, on_step=on_step
            )
            records = [r for step in steps for r in step.requests]
        else:
            steps = None
            records = loops.build_requests(spec.jobs, recorder=recorder)
            loops.open_loop(service, records, spec.offsets_s, recorder=recorder)
            for i, record in enumerate(records):
                checker.record(record, f"request {i}")
    finally:
        service.close()
    after = _counters(service)
    delta = {k: after[k] - before[k] for k in after}

    if delta["serve.fallbacks"] != checker.poisoned:
        checker.failures.append(
            f"{delta['serve.fallbacks']:.0f} fallbacks for {checker.poisoned} poisoned requests"
        )
    kernel_path = delta["serve.kernel_solves"] / delta["serve.flushes"] if delta["serve.flushes"] else 0.0
    if spec.config.get("execution") == "kernel" and kernel_path != 1.0:
        checker.failures.append(f"kernel.path_frac {kernel_path:.3f} != 1.0 (vectorized fallback)")

    return dict(
        spec=spec,
        records=records,
        steps=steps,
        setup_s=setup_s,
        delta=delta,
        checker=checker,
        kernel_path=kernel_path,
        service=service,
        recorder=recorder,
    )


def _windows(items: list, count: int, unit: int = 1) -> list[list]:
    """``items`` cut into at most ``count`` consecutive windows of whole units."""
    units = len(items) // unit
    count = max(1, min(count, units))
    size = (units // count) * unit
    cuts = [items[i * size : (i + 1) * size] for i in range(count - 1)]
    return cuts + [items[(count - 1) * size :]]


#: Window timings measured on every run but reported as per-layer diagnostics:
#: on a shared 2-vCPU host the open loop's p90 spread 0.16-0.46 (IQR/median)
#: over ten runs of the same code, too wide to gate, like p99 before it.
DIAGNOSTIC_TIMINGS = ("step_p90_ms", "latency_p90_ms")


def window_timings(run: dict) -> dict[str, tuple[float, str]]:
    """Throughput and step/latency percentiles, each the median over windows.

    The timed phase is cut into up to ``WINDOWS`` consecutive windows
    (whole step cycles in a closed loop, equal request counts in the open
    loop); every timing is computed per window and the median reported,
    so a transient stall of the shared host moves one window, not the run.
    """
    steps = run["steps"]
    if steps is not None:
        windows = [
            ([lat for s in w for lat in s.latencies], w)
            for w in _windows(steps, WINDOWS, run["spec"].cycle)
        ]
    else:
        # the open loop: every request is its own one-request step, and the
        # served rate is taken over the whole run (completions per second)
        ordered = sorted(run["records"], key=lambda r: r.due)
        done = [r for r in ordered if r.outcome is not None]
        served_rate = len(done) / (max(r.done for r in done) - ordered[0].due)
        windows = [
            ([r.latency for r in w if r.outcome is not None], None)
            for w in _windows(ordered, WINDOWS)
        ]
    per_window: dict[str, list[float]] = {}
    for latencies_s, window_steps in windows:
        latencies = [1e3 * lat for lat in latencies_s]
        if window_steps is not None:
            step_ms = [1e3 * s.duration for s in window_steps]
            rate = len(latencies) / sum(s.duration for s in window_steps)
        else:
            step_ms = latencies
            rate = served_rate
        for name, value in (
            ("systems_per_s", rate),
            ("step_p50_ms", _pct(step_ms, 50)),
            ("step_p90_ms", _pct(step_ms, 90)),
            ("latency_p50_ms", _pct(latencies, 50)),
            ("latency_p90_ms", _pct(latencies, 90)),
        ):
            per_window.setdefault(name, []).append(value)
    units = {"systems_per_s": "1/s"}
    return {name: (_median(v), units.get(name, "ms")) for name, v in per_window.items()}


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    """The gated end-to-end metrics (see ``DIAGNOSTIC_TIMINGS`` for the rest)."""
    timings = window_timings(run)
    metrics = {"setup_s": (run["setup_s"], "s")}
    metrics.update((k, v) for k, v in timings.items() if k not in DIAGNOSTIC_TIMINGS)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _overhead_pct(run: dict) -> float:
    """Traced vs untraced halves of the same run, as a percentage."""
    steps = run["steps"]
    if steps is not None:
        cycle = run["spec"].cycle
        # step i and i + cycle are the same kind with opposite tracing
        ratios = [
            steps[i].duration / steps[i + cycle].duration
            for i in range(0, len(steps) - cycle)
            if steps[i].traced and not steps[i + cycle].traced
        ]
        return 100.0 * (_median(ratios) - 1.0) if ratios else 0.0
    done = [r for r in run["records"] if r.outcome is not None]
    traced = [r.latency for r in done if r.traced]
    plain = [r.latency for r in done if not r.traced]
    return 100.0 * (_median(traced) / _median(plain) - 1.0) if traced and plain else 0.0


def per_layer(run: dict, seconds: float) -> tuple[dict[str, tuple[float, str]], str]:
    from perfbench.replay import BLAS1, REDUCE, regroup_flushes, replay
    from perfbench.tracing import format_table, layer_table

    spec, delta, recorder = run["spec"], run["delta"], run["recorder"]
    records = run["records"]
    done = [r for r in records if r.outcome is not None]
    outcomes = [r.outcome for r in done]
    serve_spans = list(recorder.spans)
    flushes = regroup_flushes(records)
    stats = replay(flushes, run["service"].device, recorder, seconds / 2, spec.config)
    replay_spans = recorder.spans[len(serve_spans):]

    max_wait_ms = run["service"].config.max_wait_ms
    waits = [o.queue_wait_ms for o in outcomes]
    lookups = delta["serve.plan_cache.hits"] + delta["serve.plan_cache.misses"]
    fallback = [r for r in done if r.outcome.used_fallback]
    iterative = [o.iterations for o in outcomes if not o.used_fallback]
    kernel = spec.config.get("execution") == "kernel"
    spmv_bytes = stats.kernel_bytes["spmv"]
    _, _, coverage = layer_table(recorder.spans)
    timings = window_timings(run)
    served = len(done)
    metrics = {
        "request.ingest_us": (1e6 * _median([r.ingest_s for r in records]), "us"),
        "submit.p50_us": (1e6 * _median([r.submit_s for r in records if r.request]), "us"),
        "submit.refused": (float(sum(r.refused for r in records)), "count"),
        "batcher.queue_wait_p50_ms": (_pct(waits, 50), "ms"),
        "batcher.queue_wait_p90_ms": (_pct(waits, 90), "ms"),
        "batcher.deadline_overrun_p50_ms": (_median([w - max_wait_ms for w in waits]), "ms"),
        "batcher.batch_size_mean": (served / delta["serve.flushes"], "count"),
        "batcher.flushes": (delta["serve.flushes"], "count"),
        "assembly.ms_per_flush": (1e3 * _median(stats.assembly_s), "ms"),
        "assembly.bytes_per_flush": (_median(stats.assembly_bytes), "B"),
        "plan_cache.hit_ratio": (
            delta["serve.plan_cache.hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "plan_cache.lookups": (lookups, "count"),
        "plan_cache.miss_ms": (1e3 * _median(stats.miss_s), "ms"),
        "solver.solve_ms_per_flush": (1e3 * _median(stats.solve_s), "ms"),
        "solver.iterations_p50": (_pct(iterative, 50), "count"),
        "solver.iterations_max": (float(max(iterative, default=0)), "count"),
        "solver.loop_overhead_frac": (stats.loop_overhead_frac(), "ratio"),
        "spmv.us_per_call": (stats.per_call_us(("spmv",)), "us"),
        "spmv.calls_per_solve": (stats.calls_per_solve(("spmv",)), "count"),
        "spmv.bytes_per_call": (
            spmv_bytes / stats.kernel_calls["spmv"] if stats.kernel_calls["spmv"] else 0.0, "B"
        ),
        "spmv.flops_per_byte": (
            stats.kernel_flops["spmv"] / spmv_bytes if spmv_bytes else 0.0, "flop/B"
        ),
        "spmv.gbps_computed": (stats.gbps(("spmv",)), "GB/s"),
        "precond.us_per_call": (stats.per_call_us(("precond",)), "us"),
        "precond.calls_per_solve": (stats.calls_per_solve(("precond",)), "count"),
        "blas1.us_per_call": (stats.per_call_us(BLAS1), "us"),
        "blas1.calls_per_solve": (stats.calls_per_solve(BLAS1), "count"),
        "blas1.gbps_computed": (stats.gbps(BLAS1), "GB/s"),
        "reduce.us_per_call": (stats.per_call_us(REDUCE), "us"),
        "reduce.calls_per_solve": (stats.calls_per_solve(REDUCE), "count"),
        "reduce.gbps_computed": (stats.gbps(REDUCE), "GB/s"),
        "scatter.us_per_request": (
            1e6 * stats.scatter_s / stats.requests if stats.requests else 0.0, "us"
        ),
        "fallback.frac": (len(fallback) / run["checker"].attempted, "ratio"),
        "fallback.count": (float(len(fallback)), "count"),
        "fallback.latency_p50_ms": (_median([1e3 * r.latency for r in fallback]), "ms"),
        "kernel.solve_ms_per_flush": (
            _median([f[0].outcome.solve_ms for f in flushes]) if kernel else 0.0, "ms"
        ),
        "kernel.path_frac": (run["kernel_path"], "ratio"),
        "diag.step_p90_ms": timings["step_p90_ms"],
        "diag.latency_p90_ms": timings["latency_p90_ms"],
        "diag.gen_late_p99_ms": (_pct([1e3 * (r.sent - r.due) for r in done], 99), "ms"),
        "diag.latency_p99_ms": (_pct([1e3 * r.latency for r in done], 99), "ms"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead_pct": (_overhead_pct(run), "%"),
        "failed_frac": (run["checker"].failed_requests / run["checker"].attempted, "ratio"),
    }
    tables = "\n".join(
        (
            format_table(serve_spans, "serve side (client calls)"),
            format_table(
                replay_spans,
                f"worker side (replay of {stats.flushes} of {len(flushes)} flushes)",
            ),
        )
    )
    return metrics, tables


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    checker = run["checker"]
    attempted, failed = checker.attempted, checker.failed_requests
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests attempted, "
          f"{failed} failed, failed_frac {failed / attempted:.4g} (base: attempted)")
    for reason in checker.failures[:10]:
        print(f"  FAIL {reason}")
    healthy = True
    if args.trace:
        metrics, tables = per_layer(run, args.seconds)
        print(tables)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run["recorder"].write_jsonl(str(path))
        print(f"spans written to {path.relative_to(ROOT)} ({len(run['recorder'].spans)} spans)")
        coverage = metrics["trace.coverage"][0]
        overhead = metrics["trace.overhead_pct"][0]
        healthy = coverage >= MIN_TRACE_COVERAGE and overhead <= MAX_TRACE_OVERHEAD_PCT
        print(f"trace health: coverage {coverage:.3f} (bound >= {MIN_TRACE_COVERAGE}), "
              f"overhead {overhead:.2f}% (bound <= {MAX_TRACE_OVERHEAD_PCT}%): "
              f"{'ok' if healthy else 'FAIL'}")
        _print_metrics("per-layer metrics (traced run):", metrics)
    else:
        metrics = end_to_end(run)
        _print_metrics("end-to-end metrics (tracing off):", metrics)
        timings = window_timings(run)
        _print_metrics(
            "diagnostics (tracing off, not gated):", {k: timings[k] for k in DIAGNOSTIC_TIMINGS}
        )
    correct = not checker.failures and healthy
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload, each in its own process, and summarise."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
