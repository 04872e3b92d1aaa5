"""Independent correctness check of every outcome.

The residual is recomputed with scipy from the request's own inputs, not
read from the service's reported ``residual_norm``: an outcome is wrong when
``||b - A x|| / ||b||`` exceeds the request's tolerance times
:data:`RESIDUAL_FACTOR`. The factor allows for the drift between the
solvers' recurrence residual (what their stopping test sees) and the true
residual.
"""

from __future__ import annotations

import numpy as np

#: Allowed ratio of the true relative residual to the requested tolerance.
RESIDUAL_FACTOR = 10.0


def relative_residual(a, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x||_2 / ||b||_2`` with ``A`` any scipy sparse matrix."""
    b_norm = float(np.linalg.norm(b))
    r_norm = float(np.linalg.norm(b - a @ x))
    return r_norm / b_norm if b_norm > 0 else r_norm


def check_outcome(job, outcome, *, iterative_only: bool = False) -> str | None:
    """Why ``outcome`` is wrong for ``job``, or ``None`` when it is right.

    A healthy request must not be served by the fallback; a poisoned one
    must be. ``iterative_only`` additionally requires convergence of the
    iterative solver itself.
    """
    x = np.asarray(outcome.x)
    if x.shape != job.b.shape or not np.all(np.isfinite(x)):
        return "non-finite or misshapen solution"
    limit = job.kwargs.get("tolerance", 1e-8) * RESIDUAL_FACTOR
    residual = relative_residual(job.a, x, job.b)
    if not residual <= limit:
        return f"relative residual {residual:.3e} above {limit:.1e}"
    if job.poisoned and not outcome.used_fallback:
        return "poisoned request not served by the fallback"
    if not job.poisoned and outcome.used_fallback:
        return "healthy request served by the fallback"
    if iterative_only and not outcome.converged:
        return "iterative solver did not converge"
    return None
