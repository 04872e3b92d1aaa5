"""Launch accounting of a lockstep launch equals the faithful interpreter's.

A group that has converged stops assembling collectives on the faithful
machine, so the lockstep executor must count each collective once per
*active* group. Checked on batches whose systems stop at different
iterations: ``LaunchStats.collective_counts``, ``num_groups`` and the
tracer's ``sycl.collectives.*``/``sycl.work_groups`` counters must match.

The systems are ``A = c I`` with ``c = 1 - 2**-m``: one Richardson step
with ``omega = 1`` scales the residual by exactly ``2**-m``, so both
backends reach the same iteration counts whatever their reduction order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrix.batch_csr import BatchCsr
from repro.kernels import (
    run_batch_bicgstab_on_device,
    run_batch_cg_on_device,
    run_batch_richardson_on_device,
)
from repro.observability.tracer import Tracer, use_tracer
from repro.sycl.device import pvc_stack_device
from repro.sycl.queue import Queue
from repro.wide import WideQueue

pytestmark = pytest.mark.no_sanitize  # compares bare launches of both backends

_DEVICE = pvc_stack_device(1)
_RUNNERS = {
    "cg": run_batch_cg_on_device,
    "bicgstab": run_batch_bicgstab_on_device,
    "richardson": run_batch_richardson_on_device,
}


def _mixed_batch(n: int = 8):
    """Scaled identities: 0, 1, 2, 4, 10 and (capped at 12) 20 Richardson steps."""
    steps = [None, 20, 10, 5, 2, 1]  # None: zero right-hand side
    dense = np.stack([np.eye(n) * (1.0 - 2.0 ** -(m or 1)) for m in steps])
    b = np.ones((len(steps), n))
    b[0] = 0.0
    return BatchCsr.from_dense(dense), b


def _launch(solver: str, queue):
    matrix, b = _mixed_batch()
    tracer = Tracer()
    with use_tracer(tracer):
        _, iters, event = _RUNNERS[solver](
            _DEVICE, matrix, b, tolerance=1e-6, max_iterations=12, queue=queue
        )
    counters = {
        name: snap["value"]
        for name, snap in tracer.metrics.snapshot().items()
        if name.startswith("sycl.collectives.") or name == "sycl.work_groups"
    }
    return np.asarray(iters), event.stats, counters


@pytest.mark.parametrize("solver", sorted(_RUNNERS))
def test_collective_counts_match_faithful_interpreter(solver):
    iters, stats, counters = _launch(solver, WideQueue(_DEVICE))
    ref_iters, ref_stats, ref_counters = _launch(solver, Queue(_DEVICE))

    np.testing.assert_array_equal(iters, ref_iters)
    if solver == "richardson":
        # the batch really mixes stopping points, max_iters included
        np.testing.assert_array_equal(iters, [0, 1, 2, 4, 10, 12])
    assert len(set(iters.tolist())) > 1
    assert stats.num_groups == ref_stats.num_groups == len(iters)
    assert stats.collective_counts == ref_stats.collective_counts
    assert counters == ref_counters
    assert counters["sycl.work_groups"] == len(iters)
