"""The generators are deterministic in the seed, across processes too."""

import hashlib
import os
import subprocess
import sys

import numpy as np

from perfbench import workloads
from perfbench.tests.conftest import ROOT


def digest(seed: int) -> str:
    """A hash of every input the four workloads generate for ``seed``."""
    h = hashlib.sha256()

    def feed(jobs):
        for job in jobs:
            for arr in (job.a.indptr, job.a.indices, job.a.data, job.b):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(sorted(job.kwargs.items())).encode())
            h.update(bytes([job.poisoned]))

    for name in ("pele_step", "stencil_large", "pele_kernel_wide"):
        spec = workloads.make_workload(name, seed, 1.0)
        feed(spec.warmups)
        for _ in range(spec.cycle + 1):
            feed(next(spec.steps))
    spec = workloads.make_workload("serve_open", seed, 3.0)
    feed(spec.warmups)
    feed(spec.jobs)
    h.update(spec.offsets_s.tobytes())
    return h.hexdigest()


def test_same_seed_same_inputs():
    assert digest(3) == digest(3)


def test_other_seed_other_inputs():
    assert digest(3) != digest(4)


def test_same_inputs_in_another_process():
    # a different string-hash seed must not change the inputs
    env = dict(os.environ, PYTHONHASHSEED="12345")
    code = "from perfbench.tests.test_workloads import digest; print(digest(3))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(env, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT)))),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == digest(3)


def test_open_loop_schedule_and_poisoning():
    spec = workloads.serve_open(5, seconds=4.0)
    count = int(workloads.OPEN_RATE_RPS * 4.0)
    assert len(spec.jobs) == len(spec.offsets_s) == count
    assert spec.offsets_s[0] == 0.0
    assert np.isclose(spec.offsets_s[-1], (count - 1) / workloads.OPEN_RATE_RPS)
    assert np.all(np.diff(spec.offsets_s) >= 0)
    stencils = [j for j in spec.jobs if j.label == "stencil"]
    poisoned = [j for j in spec.jobs if j.poisoned]
    assert 1 <= len(poisoned) <= len(stencils) // workloads.POISON_EVERY + 1
    assert all(j.label == "stencil" for j in poisoned)
    keys = {j.kwargs.get("tenant") for j in spec.jobs}
    assert keys == {"a", "b"}
