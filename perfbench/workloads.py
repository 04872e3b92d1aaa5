"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the ``--seed`` argument: the same seed
yields bitwise-identical matrices and right-hand sides in any process. The
service only ever sees the generated inputs.

A :class:`Job` is the raw input of one request (a scipy CSR matrix, ``b``
and the ``SolveRequest`` keyword arguments); the loops build the
``SolveRequest`` from it inside the timed region, so request ingest is
measured where a caller would pay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from repro.workloads.pele import MECHANISMS, _mechanism_pattern
from repro.workloads.stencil import three_point_stencil

#: Table-4 mechanisms in the order the closed loops cycle through them.
PELE_CYCLE = ("drm19", "gri12", "gri30", "dodecane_lu", "isooctane")
#: The subset (n <= 54) the kernel-path workload serves.
WIDE_CYCLE = ("drm19", "gri12", "gri30")

PELE_KWARGS = dict(solver="bicgstab", preconditioner="jacobi", tolerance=1e-8)
#: Time-step factor of the Pele cells' ``A = I - GAMMA J``.
GAMMA = 0.25
#: Iteration budget of the open-loop stencil key: healthy systems converge
#: in under 30 iterations, the poisoned ones never do.
OPEN_STENCIL_BUDGET = 100
OPEN_STENCIL_KWARGS = dict(
    solver="bicgstab",
    preconditioner="jacobi",
    tolerance=1e-8,
    max_iterations=OPEN_STENCIL_BUDGET,
    tenant="a",
)
LARGE_STENCIL_KWARGS = dict(solver="cg", preconditioner="jacobi", tolerance=1e-8)

OPEN_RATE_RPS = 50.0
OPEN_STENCIL_ROWS = 32
OPEN_MIX = (("stencil", 0.8), ("drm19", 0.1), ("gri12", 0.1))
POISON_EVERY = 128
LARGE_ROWS = 1024
LARGE_BATCH = 16
#: Diagonal shift range of the large stencils: away from zero, so the
#: slowest system of a step needs ~100 CG iterations instead of up to ~1000.
LARGE_SHIFT = (0.02, 0.05)

#: The service configuration every workload shares: one worker, because on
#: two vCPUs a second worker adds GIL contention but no compute.
SERVICE_CONFIG = dict(num_workers=1)

# independent random streams per purpose, so adding a draw to one
# generator never shifts the inputs of another
_PATTERN, _VALUES, _MIX, _ARRIVALS, _POISON, _WARMUP = range(6)


@dataclass
class Job:
    """One request's raw inputs plus what the correctness check needs."""

    a: sp.csr_matrix
    b: np.ndarray
    kwargs: dict
    label: str
    poisoned: bool = False


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """The generator of one purpose-specific stream under ``seed``."""
    return np.random.default_rng([int(seed), stream])


# -- Pele chemistry cells ----------------------------------------------------


class PeleCells:
    """Fresh cells of one Table-4 mechanism on its fixed sparsity pattern.

    The pattern is the repository's Table-4 surrogate pattern, drawn from a
    seed-independent stream (a mechanism has one pattern); the values
    follow the same ``A = I - GAMMA J`` recipe as
    :func:`repro.workloads.pele.pele_batch` without its per-process string
    hash, so cells are reproducible across processes.
    """

    def __init__(self, name: str) -> None:
        mech = MECHANISMS[name]
        self.name = name
        index = list(MECHANISMS).index(name)
        self.row_ptrs, self.col_idxs, row_of = _mechanism_pattern(
            mech, rng_for(index, _PATTERN)
        )
        self.n, self.nnz = mech.num_rows, mech.nnz
        self.diag = self.col_idxs == row_of
        # (nnz, n) row indicator: off-diagonal magnitudes summed per row
        self._row_sum = sp.csr_matrix(
            (np.ones(self.nnz), (np.arange(self.nnz), row_of)), shape=(self.nnz, self.n)
        )
        self._decay = np.exp(-0.05 * np.arange(self.n))

    def cells(self, count: int, rng: np.random.Generator) -> list[Job]:
        """``count`` independent cells (matrix + chemistry-shaped rhs)."""
        j_vals = rng.standard_normal((count, self.nnz)) * np.abs(
            rng.standard_normal((count, self.nnz))
        )
        values = -GAMMA * j_vals
        off_abs = np.where(self.diag, 0.0, np.abs(values))
        row_abs = np.asarray(self._row_sum.T @ off_abs.T).T
        dominance = 1.0 + 0.5 * rng.random((count, self.n))
        values[:, self.diag] = dominance * row_abs + 1.0
        rhs = self._decay * (0.5 + rng.random((count, self.n)))
        return [
            Job(
                sp.csr_matrix(
                    (values[c], self.col_idxs, self.row_ptrs), shape=(self.n, self.n)
                ),
                rhs[c],
                dict(PELE_KWARGS),
                self.name,
            )
            for c in range(count)
        ]


# -- 3-point stencils ------------------------------------------------------------


def stencil_pattern(n: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The 3-point stencil without explicit zeros, and its diagonal mask."""
    pattern = three_point_stencil(n, 1).item_scipy(0).tocsr()
    pattern.eliminate_zeros()
    pattern.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    return pattern, pattern.indices == rows


def stencil_job(
    pattern: sp.csr_matrix,
    diag: np.ndarray,
    rng: np.random.Generator,
    shift: tuple[float, float],
    off_scale: tuple[float, float],
    kwargs: dict,
    label: str,
) -> Job:
    """A strictly diagonally dominant stencil system with a smooth rhs."""
    a = pattern.copy()
    data = np.empty(a.nnz)
    data[diag] = 2.0 + rng.uniform(*shift, size=int(diag.sum()))
    data[~diag] = -rng.uniform(*off_scale, size=int((~diag).sum()))
    a.data = data
    n = a.shape[0]
    b = np.sin(np.linspace(0.0, np.pi, n)) + 0.1 * rng.standard_normal(n)
    return Job(a, b, dict(kwargs), label)


def poisoned_job(pattern: sp.csr_matrix, diag: np.ndarray, rng: np.random.Generator) -> Job:
    """The strongly nonsymmetric stencil BiCGSTAB cannot solve in budget.

    Same pattern and key as the healthy open-loop stencils, so it is
    co-batched with them and must come back through the direct-LU fallback.
    """
    a = pattern.copy()
    data = np.empty(a.nnz)
    data[diag] = 2.0
    data[~diag] = np.where(np.arange(int((~diag).sum())) % 2 == 0, 100.0, -99.0)
    a.data = data
    return Job(
        a,
        rng.standard_normal(a.shape[0]),
        dict(OPEN_STENCIL_KWARGS),
        "stencil",
        poisoned=True,
    )


# -- workload specs -----------------------------------------------------------------


@dataclass
class ClosedLoopSpec:
    """A one-client closed loop: each step's jobs, cycled for the run."""

    name: str
    config: dict
    cycle: int  # steps per full cycle of the step kinds
    warmups: list[Job]
    steps: Iterator[list[Job]]


@dataclass
class OpenLoopSpec:
    """An open loop: every job with its due offset in seconds."""

    name: str
    config: dict
    warmups: list[Job]
    jobs: list[Job]
    offsets_s: np.ndarray


def _pele_steps(names, cells_per_step: int, seed: int) -> Iterator[list[Job]]:
    mechs = [PeleCells(name) for name in names]
    rng = rng_for(seed, _VALUES)
    step = 0
    while True:
        yield mechs[step % len(mechs)].cells(cells_per_step, rng)
        step += 1


def _pele_warmups(names, seed: int) -> list[Job]:
    rng = rng_for(seed, _WARMUP)
    return [PeleCells(name).cells(1, rng)[0] for name in names]


def pele_step(seed: int) -> ClosedLoopSpec:
    """64 cells per step, cycling the five Table-4 mechanisms."""
    return ClosedLoopSpec(
        "pele_step",
        SERVICE_CONFIG,
        len(PELE_CYCLE),
        _pele_warmups(PELE_CYCLE, seed),
        _pele_steps(PELE_CYCLE, 64, seed),
    )


def pele_kernel_wide(seed: int) -> ClosedLoopSpec:
    """16 cells per step of the n <= 54 mechanisms, fused kernels on wide."""
    return ClosedLoopSpec(
        "pele_kernel_wide",
        dict(SERVICE_CONFIG, backend="wide", execution="kernel"),
        len(WIDE_CYCLE),
        _pele_warmups(WIDE_CYCLE, seed),
        _pele_steps(WIDE_CYCLE, 16, seed),
    )


def stencil_large(seed: int) -> ClosedLoopSpec:
    """16 SPD n=1024 stencils per step, CG + Jacobi."""
    pattern, diag = stencil_pattern(LARGE_ROWS)

    def make(rng: np.random.Generator) -> Job:
        return stencil_job(
            pattern, diag, rng, LARGE_SHIFT, (1.0, 1.0), LARGE_STENCIL_KWARGS, "stencil1024"
        )

    def steps() -> Iterator[list[Job]]:
        rng = rng_for(seed, _VALUES)
        while True:
            yield [make(rng) for _ in range(LARGE_BATCH)]

    return ClosedLoopSpec(
        "stencil_large", SERVICE_CONFIG, 1, [make(rng_for(seed, _WARMUP))], steps()
    )


def poisson_offsets(rng: np.random.Generator, rate_rps: float, count: int) -> np.ndarray:
    """Poisson arrival offsets rescaled to span exactly ``count / rate``.

    The rescale keeps the bursts but fixes the offered load, so the served
    rate of two seeds differs only by what the service did.
    """
    gaps = rng.exponential(1.0, size=count)
    offsets = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    return offsets * ((count - 1) / rate_rps) / max(offsets[-1], 1e-12)


def serve_open(seed: int, seconds: float) -> OpenLoopSpec:
    """Poisson mix: 80% n=32 stencils (1/128 poisoned), 10% each of two mechanisms."""
    pattern, diag = stencil_pattern(OPEN_STENCIL_ROWS)
    cells = {name: PeleCells(name) for name, _ in OPEN_MIX if name != "stencil"}

    def make(kind: str, rng: np.random.Generator) -> Job:
        if kind == "stencil":
            return stencil_job(
                pattern, diag, rng, (0.02, 0.1), (0.9, 1.0), OPEN_STENCIL_KWARGS, "stencil"
            )
        job = cells[kind].cells(1, rng)[0]
        job.kwargs["tenant"] = "b"
        return job

    count = max(2, int(round(OPEN_RATE_RPS * seconds)))
    kinds = rng_for(seed, _MIX).choice(
        [k for k, _ in OPEN_MIX], size=count, p=[p for _, p in OPEN_MIX]
    )
    stencil_idx = np.flatnonzero(kinds == "stencil")
    first = int(rng_for(seed, _POISON).integers(POISON_EVERY))
    poisoned = set(stencil_idx[first::POISON_EVERY].tolist())
    rng = rng_for(seed, _VALUES)
    jobs = [
        poisoned_job(pattern, diag, rng) if i in poisoned else make(kind, rng)
        for i, kind in enumerate(kinds)
    ]
    warm_rng = rng_for(seed, _WARMUP)
    return OpenLoopSpec(
        "serve_open",
        SERVICE_CONFIG,
        [make(kind, warm_rng) for kind, _ in OPEN_MIX],
        jobs,
        poisson_offsets(rng_for(seed, _ARRIVALS), OPEN_RATE_RPS, count),
    )


def make_workload(name: str, seed: int, seconds: float):
    """The spec of workload ``name`` under ``seed`` (open loops size to ``seconds``)."""
    if name == "serve_open":
        return serve_open(seed, seconds)
    return {"pele_step": pele_step, "stencil_large": stencil_large,
            "pele_kernel_wide": pele_kernel_wide}[name](seed)
