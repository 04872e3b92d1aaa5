"""Worker-side layer timing: replay the formed flushes on one thread.

The service's worker threads are not instrumented, so the traced run
rebuilds each flush from the serve-side records (requests regrouped by
``BatchKey`` in submission order, chunked by the ``batch_size`` each
outcome reported) and replays it through the same public calls a worker
makes: ``assemble_batch`` -> ``PlanCache.plan_for`` ->
``ExecutionPlan.build_solver(...).solve`` -> ``BatchSolveResult.select``.

The solve is split further by timing the solver's own building blocks on
each replayed batch — ``BatchedMatrix.apply``, ``BatchPreconditioner.apply``
and ``repro.core.blas`` — and multiplying those per-call times by the
per-solve call counts in ``result.ledger.calls``. Bytes and FLOPs per call
are computed by the same ledger (logical traffic, not measured).

A service configured with ``execution="kernel"`` solves every flush in one
fused device kernel, so the replay does the same: it launches
``repro.kernels``' BiCGSTAB kernel on a ``WideQueue`` (the kernel-path
workload serves on the wide backend) with the Jacobi diagonal of the built
solver. The fused kernel has no separate building-block calls, so those
metrics read 0 on that path.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core import blas
from repro.core.counters import TrafficLedger
from repro.core.logger import ConvergenceLogger
from repro.core.solver.base import BatchSolveResult
from repro.kernels.bicgstab_kernel import run_batch_bicgstab_on_device
from repro.serve import PlanCache, SolveOutcome, assemble_batch
from repro.wide.queue import WideQueue

#: Ledger call kinds of each timed building block.
BLAS1 = ("axpy", "scal", "copy")
REDUCE = ("dot", "norm")
#: Timed calls per building block per replayed flush (median taken).
REPS = 25


def regroup_flushes(records) -> list[list]:
    """The flushes the service formed, as lists of request records.

    Only records with an outcome take part; each key's requests are taken
    in submission order and cut into chunks of the reported flush size.
    """
    by_key: dict = defaultdict(list)
    for record in sorted(
        (r for r in records if r.outcome is not None and r.request is not None),
        key=lambda r: r.sent,
    ):
        by_key[record.request.batch_key].append(record)
    flushes = []
    for group in by_key.values():
        i = 0
        while i < len(group):
            size = max(1, int(group[i].outcome.batch_size))
            flushes.append(group[i : i + size])
            i += size
    flushes.sort(key=lambda f: f[0].sent)
    return flushes


@dataclass
class KernelCost:
    """Per-call time and ledger-computed traffic of one building block."""

    seconds: float
    bytes: float
    flops: float


def _median_call(fn) -> float:
    times = np.empty(REPS)
    for i in range(REPS):
        start = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - start
    return float(np.median(times))


def kernel_costs(solver, b: np.ndarray) -> dict[str, KernelCost]:
    """Time every building block the solve calls on the solver's own batch."""
    matrix, precond = solver.matrix, solver.preconditioner
    nb = b.shape[0]
    x = np.array(b, dtype=float)
    y = np.empty_like(x)
    alpha = np.full(nb, 1e-3)
    one = np.ones(nb)
    ops = {
        "spmv": lambda led: matrix.apply(x, out=y, ledger=led),
        "precond": lambda led: precond.apply(x, out=y, ledger=led),
        "axpy": lambda led: blas.axpy(alpha, x, y, led),
        "scal": lambda led: blas.scal(one, y, led),
        "copy": lambda led: blas.copy(x, y, led),
        "dot": lambda led: blas.dot(x, y, led),
        "norm": lambda led: blas.norm2(x, led),
    }
    costs = {}
    for kind, op in ops.items():
        ledger = TrafficLedger(fp_bytes=x.itemsize)
        op(ledger)  # warm + tally one batched call
        costs[kind] = KernelCost(_median_call(lambda: op(None)), ledger.total_bytes, ledger.flops)
    return costs


@dataclass
class ReplayStats:
    """Accumulated worker-side timings over the replayed flushes."""

    flushes: int = 0
    requests: int = 0
    assembly_s: list[float] = field(default_factory=list)
    assembly_bytes: list[float] = field(default_factory=list)
    miss_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    scatter_s: float = 0.0
    # per building block: summed modeled seconds, batched calls, bytes, flops
    kernel_s: dict = field(default_factory=lambda: defaultdict(float))
    kernel_calls: dict = field(default_factory=lambda: defaultdict(float))
    kernel_bytes: dict = field(default_factory=lambda: defaultdict(float))
    kernel_flops: dict = field(default_factory=lambda: defaultdict(float))
    solves: int = 0

    def per_call_us(self, kinds) -> float:
        calls = sum(self.kernel_calls[k] for k in kinds)
        return 1e6 * sum(self.kernel_s[k] for k in kinds) / calls if calls else 0.0

    def calls_per_solve(self, kinds) -> float:
        return sum(self.kernel_calls[k] for k in kinds) / self.solves if self.solves else 0.0

    def gbps(self, kinds) -> float:
        seconds = sum(self.kernel_s[k] for k in kinds)
        return sum(self.kernel_bytes[k] for k in kinds) / seconds / 1e9 if seconds else 0.0

    def loop_overhead_frac(self) -> float:
        """Share of solve time the modeled building-block time leaves uncovered.

        0 when no building block was timed (the fused kernel path).
        """
        solve = sum(self.solve_s)
        covered = sum(self.kernel_s.values())
        return 1.0 - covered / solve if solve and covered else 0.0


def kernel_solve(solver, resolved, b: np.ndarray, queue) -> BatchSolveResult:
    """Solve the built solver's batch in one fused BiCGSTAB kernel on ``queue``."""
    if resolved.solver_cls.solver_name != "bicgstab":
        raise ValueError(f"kernel replay covers bicgstab, not {resolved.solver_cls.solver_name}")
    matrix = solver.matrix
    nb = matrix.num_batch
    history = np.full((nb, resolved.max_iterations + 1), np.nan)
    bb = np.asarray(b, dtype=matrix.dtype)
    x, iters, _ = run_batch_bicgstab_on_device(
        queue.device,
        matrix,
        bb,
        inv_diag=getattr(solver.preconditioner, "inv_diag", None),
        tolerance=resolved.tolerance,
        max_iterations=resolved.max_iterations,
        queue=queue,
        res_history=history,
    )
    iters = np.asarray(iters, dtype=np.int64)
    final = history[np.arange(nb), iters]
    return BatchSolveResult(
        x=np.asarray(x, dtype=np.float64),
        iterations=iters,
        residual_norms=final,
        converged=final <= resolved.tolerance * np.linalg.norm(bb, axis=1),
        logger=ConvergenceLogger(nb),
        ledger=TrafficLedger(fp_bytes=np.dtype(matrix.dtype).itemsize),
        solver_name="bicgstab",
    )


def replay(flushes, device, recorder, budget_s: float, config: dict) -> ReplayStats:
    """Replay flushes in order until ``budget_s`` is spent (>= 1 per key).

    ``config`` is the service's: with ``execution="kernel"`` each flush is
    solved by the fused kernel on a ``WideQueue``.
    """
    stats = ReplayStats()
    cache = PlanCache(device)
    queue = WideQueue(device) if config.get("execution") == "kernel" else None
    seen: set = set()
    started = time.perf_counter()
    for flush in flushes:
        key = flush[0].request.batch_key
        if key in seen and time.perf_counter() - started > budget_s:
            continue
        seen.add(key)
        _replay_one(flush, cache, queue, recorder, stats)
    return stats


def _replay_one(flush, cache: PlanCache, queue, recorder, stats: ReplayStats) -> None:
    requests = [r.request for r in flush]
    key = requests[0].batch_key
    clock = recorder.clock
    trace = recorder.new_trace()
    with recorder.span("flush", trace) as root:
        start = clock()
        matrix, b, x0 = assemble_batch(requests)
        mid = clock()
        recorder.add("serve.request.assemble_batch", start, mid, trace, root)
        plan, hit = cache.plan_for(key)
        end = clock()
        recorder.add("serve.plan_cache.plan_for", mid, end, trace, root)
        if not hit:
            stats.miss_s.append(end - mid)
        stats.assembly_s.append(mid - start)
        stats.assembly_bytes.append(
            float(matrix.values.nbytes + b.nbytes)
            + sum(getattr(matrix, a).nbytes for a in ("row_ptrs", "col_idxs") if hasattr(matrix, a))
        )
        build_start = clock()
        solver = plan.build_solver(matrix)
        solve_start = clock()
        recorder.add("serve.plan_cache.build_solver", build_start, solve_start, trace, root)
        if queue is None:
            result = solver.solve(b, x0=x0)
        else:
            result = kernel_solve(solver, plan.resolved, b, queue)
        solve_end = clock()
        recorder.add(
            "core.solver.solve" if queue is None else "kernels.fused_solve",
            solve_start, solve_end, trace, root,
        )
        stats.solve_s.append(solve_end - solve_start)
        scatter_start = clock()
        for i in range(len(requests)):
            part = result.select([i])
            SolveOutcome(
                x=part.x[0],
                iterations=int(part.iterations[0]),
                residual_norm=float(part.residual_norms[0]),
                converged=bool(part.converged[0]),
                solver_name=part.solver_name,
                used_fallback=False,
                batch_size=len(requests),
                queue_wait_ms=0.0,
                solve_ms=0.0,
                worker="replay",
                plan_cache_hit=hit,
            )
        scatter_end = clock()
        recorder.add("scatter", scatter_start, scatter_end, trace, root)
    stats.scatter_s += scatter_end - scatter_start
    stats.flushes += 1
    stats.requests += len(requests)

    stats.solves += 1
    if queue is not None:
        return  # one fused kernel: no building-block calls to time
    nb = matrix.num_batch
    costs = kernel_costs(solver, b)
    for kind, cost in costs.items():
        calls = result.ledger.calls.get(kind, 0) / nb  # batched calls this solve
        stats.kernel_s[kind] += cost.seconds * calls
        stats.kernel_calls[kind] += calls
        stats.kernel_bytes[kind] += cost.bytes * calls
        stats.kernel_flops[kind] += cost.flops * calls
