"""The residual check accepts a solution and flags a perturbed one."""

import numpy as np
import scipy.sparse.linalg as spla

from repro.serve import SolveOutcome

from perfbench import workloads
from perfbench.check import RESIDUAL_FACTOR, check_outcome, relative_residual


def outcome(x, used_fallback=False, converged=True):
    return SolveOutcome(
        x=x, iterations=3, residual_norm=0.0, converged=converged, solver_name="bicgstab",
        used_fallback=used_fallback, batch_size=1, queue_wait_ms=0.0, solve_ms=0.0,
        worker="test", plan_cache_hit=True,
    )


def job_and_solution():
    pattern, diag = workloads.stencil_pattern(16)
    job = workloads.stencil_job(
        pattern, diag, np.random.default_rng(0), (0.02, 0.1), (0.9, 1.0),
        workloads.OPEN_STENCIL_KWARGS, "stencil",
    )
    return job, spla.spsolve(job.a.tocsc(), job.b)


def test_exact_solution_passes():
    job, x = job_and_solution()
    assert relative_residual(job.a, x, job.b) < 1e-12
    assert check_outcome(job, outcome(x)) is None


def test_perturbed_solution_is_flagged():
    job, x = job_and_solution()
    bad = x.copy()
    bad[3] += 1e-4
    limit = job.kwargs["tolerance"] * RESIDUAL_FACTOR
    assert relative_residual(job.a, bad, job.b) > limit
    assert "relative residual" in check_outcome(job, outcome(bad))


def test_non_finite_solution_is_flagged():
    job, x = job_and_solution()
    x[0] = np.nan
    assert check_outcome(job, outcome(x)) is not None


def test_fallback_use_must_match_poisoning():
    job, x = job_and_solution()
    assert "healthy" in check_outcome(job, outcome(x, used_fallback=True))
    job.poisoned = True
    assert "poisoned" in check_outcome(job, outcome(x))
    assert check_outcome(job, outcome(x, used_fallback=True)) is None


def test_iterative_only_requires_convergence():
    job, x = job_and_solution()
    assert check_outcome(job, outcome(x, converged=False)) is None
    assert check_outcome(job, outcome(x, converged=False), iterative_only=True) is not None
