"""Unit tests of the kernel-lowering pass (repro.wide.lower)."""

from __future__ import annotations

import builtins

import numpy as np
import pytest

from repro.exceptions import WideBackendError
from repro.kernels import cg_kernel, spmv
from repro.kernels.blas1 import group_dot, warp_reduce_sum
from repro.wide.lanes import wide_range
from repro.wide.lower import lower_kernel


def test_lowering_rebinds_range_without_touching_the_original():
    lowered = lower_kernel(cg_kernel.batch_cg_kernel)
    assert lowered is not cg_kernel.batch_cg_kernel
    # recompiled from the same source lines by the AST pass
    assert lowered.__code__.co_filename == cg_kernel.batch_cg_kernel.__code__.co_filename
    assert lowered.__code__.co_firstlineno == cg_kernel.batch_cg_kernel.__code__.co_firstlineno
    assert "__wide__" in lowered.__code__.co_names
    assert "__wide__" not in cg_kernel.batch_cg_kernel.__code__.co_names
    assert lowered.__globals__["range"] is wide_range
    # the original kernel module still sees the builtin
    assert cg_kernel.batch_cg_kernel.__globals__.get("range", range) is builtins.range


def test_lowering_is_cached_per_function():
    assert lower_kernel(cg_kernel.batch_cg_kernel) is lower_kernel(
        cg_kernel.batch_cg_kernel
    )


def test_helpers_are_recursively_lowered():
    lowered = lower_kernel(cg_kernel.batch_cg_kernel)
    helper = lowered.__globals__["spmv_csr_item_rows"]
    assert helper is not spmv.spmv_csr_item_rows
    assert helper is lower_kernel(spmv.spmv_csr_item_rows)
    assert helper.__globals__["range"] is wide_range


def test_cuda_reduction_structure_raises_on_wide():
    stub = lower_kernel(warp_reduce_sum)
    gen = stub(None, None, 0.0)
    with pytest.raises(WideBackendError, match="group"):
        next(gen)


def test_lowered_kernel_run_per_item_matches_original():
    """Run the *lowered* code object on the faithful interpreter.

    With scalar work-item ids, ``wide_range`` falls back to the builtin
    ``range`` and ``wide_float``/``wide_int`` to the builtin casts, so
    executing the lowered clone per-item must be bitwise identical to the
    original kernel — the property that makes one source serve both
    backends.
    """
    from repro.core.launch import LaunchConfigurator
    from repro.core.matrix.batch_csr import BatchCsr
    from repro.kernels import richardson_kernel
    from repro.sycl.device import pvc_stack_device
    from repro.sycl.executor import launch
    from repro.sycl.memory import LocalSpec

    rng = np.random.default_rng(0)
    dense = np.eye(6)[None] * 3.0 + rng.standard_normal((2, 6, 6)) * 0.05
    matrix = BatchCsr.from_dense(dense)
    b = rng.standard_normal((2, 6))
    device = pvc_stack_device(1)
    x_ref, it_ref, _ = richardson_kernel.run_batch_richardson_on_device(
        device, matrix, b, tolerance=1e-10, max_iterations=50
    )

    lowered = lower_kernel(richardson_kernel.batch_richardson_kernel)
    nb, n = matrix.num_batch, matrix.num_rows
    x_out = np.zeros((nb, n))
    out_iters = np.zeros(nb, dtype=np.int64)
    thresholds = 1e-10 * np.linalg.norm(b, axis=1)
    launch(
        device,
        LaunchConfigurator(device).configure(n, nb).nd_range(),
        lowered,
        args=(
            matrix.row_ptrs,
            matrix.col_idxs,
            matrix.values,
            b,
            x_out,
            np.ones((nb, n)),
            thresholds,
            1.0,
            50,
            out_iters,
            None,
        ),
        local_specs=[LocalSpec(name, (n,)) for name in ("r", "z", "t", "x")],
    )
    np.testing.assert_array_equal(x_out, x_ref)
    np.testing.assert_array_equal(out_iters, it_ref)


@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_lowered_selects_and_breaks_run_per_item_like_the_original(solver):
    """The lowered ``a if c else b``, ``and`` and ``if c: break`` keep
    Python semantics on scalar conditions (faithful interpreter, per item)."""
    from repro.core.launch import LaunchConfigurator
    from repro.core.matrix.batch_csr import BatchCsr
    from repro.kernels import bicgstab_kernel
    from repro.sycl.device import pvc_stack_device
    from repro.sycl.executor import launch
    from repro.sycl.memory import LocalSpec

    rng = np.random.default_rng(1)
    dense = np.eye(6)[None] * 3.0 + rng.standard_normal((2, 6, 6)) * 0.05
    dense = dense + dense.transpose(0, 2, 1)
    matrix = BatchCsr.from_dense(dense)
    b = rng.standard_normal((2, 6))
    nb, n = matrix.num_batch, matrix.num_rows
    device = pvc_stack_device(1)
    if solver == "cg":
        kernel, vectors, extra = cg_kernel.batch_cg_kernel, ("r", "z", "p", "t", "x"), False
    else:
        kernel, vectors, extra = (
            bicgstab_kernel.batch_bicgstab_kernel, bicgstab_kernel._VECTORS, "group"
        )

    def run(fn):
        x_out = np.zeros((nb, n))
        out_iters = np.zeros(nb, dtype=np.int64)
        history = np.full((nb, 51), np.nan)
        launch(
            device,
            LaunchConfigurator(device).configure(n, nb).nd_range(),
            fn,
            args=(
                matrix.row_ptrs, matrix.col_idxs, matrix.values, b, x_out,
                np.ones((nb, n)), 1e-10 * np.linalg.norm(b, axis=1), 50,
                out_iters, extra, history,
            ),
            local_specs=[LocalSpec(name, (n,)) for name in vectors],
        )
        return x_out, out_iters, history

    for ref, got in zip(run(kernel), run(lower_kernel(kernel))):
        np.testing.assert_array_equal(got, ref)


def _divergent_if_kernel(item, slm, x, out):
    sysid = item.group_id
    total = yield item.reduce_over_group(float(x[sysid, item.local_id]), "sum")
    if total > 0.0:  # a per-group branch the lowering does not rewrite
        out[sysid] = 1.0


@pytest.mark.no_sanitize  # a sanitizer would route the launch to the faithful interpreter
def test_unlowered_group_divergent_branch_fails_loudly():
    from repro.sycl.device import pvc_stack_device
    from repro.sycl.ndrange import NDRange
    from repro.wide.queue import WideQueue

    queue = WideQueue(pvc_stack_device(1))
    with pytest.raises(WideBackendError, match="differ between work-groups"):
        queue.parallel_for(
            NDRange(2 * 16, 16, 16),
            _divergent_if_kernel,
            args=(np.ones((2, 16)), np.zeros(2)),
        )


def _dot_rows_kernel(item, slm, x, out):
    sysid = item.group_id
    rows = x[sysid]
    total = yield from group_dot(item, rows, rows, x.shape[1])
    if item.local_id == 0:
        out[sysid] = total


@pytest.mark.no_sanitize  # exercises the lockstep launch itself
def test_concurrent_first_launches_see_only_complete_clones(monkeypatch):
    """Serving workers lower kernels from several threads at once; a thread
    must never run a clone whose builtins or helpers are not lowered yet."""
    import sys
    import threading

    from repro.sycl.device import pvc_stack_device
    from repro.sycl.ndrange import NDRange
    from repro.wide import lower
    from repro.wide.queue import WideQueue

    x = np.arange(3 * 40, dtype=np.float64).reshape(3, 40) / 40.0
    expected = np.sum(x * x, axis=1)
    device = pvc_stack_device(1)
    errors: list = []

    def launch(start):
        start.wait(timeout=10)
        try:
            out = np.zeros(3)
            WideQueue(device).parallel_for(
                NDRange(3 * 16, 16, 16), _dot_rows_kernel, args=(x, out)
            )
            np.testing.assert_allclose(out, expected, rtol=1e-12)
        except Exception as exc:  # collected and re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            monkeypatch.setattr(lower, "_CACHE", {})  # every launch lowers afresh
            start = threading.Barrier(6)
            threads = [threading.Thread(target=launch, args=(start,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]
