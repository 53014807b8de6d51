#!/usr/bin/env python3
"""Re-measure the single-call baseline table of ROADMAP.md with one BLAS thread.

    python3 perfbench/baseline.py

Prints a markdown table: median CPU and wall time per call over several
repeats, and the number of ``spectra.eigenvalues`` calls each row makes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ptcoulomb import continuum, eigensolve, lattice, metrics, spectra  # noqa: E402


class SolveCounter:
    """Counts calls to ``eigenvalues`` through both modules that expose it."""

    def __init__(self):
        self.calls = 0
        self._orig = eigensolve.eigenvalues

    def __enter__(self):
        def counted(*args, **kwargs):
            self.calls += 1
            return self._orig(*args, **kwargs)

        eigensolve.eigenvalues = spectra.eigenvalues = counted
        return self

    def __exit__(self, *exc):
        eigensolve.eigenvalues = spectra.eigenvalues = self._orig


def measure(fn, repeats, inner=1):
    cpu, wall = [], []
    fn()  # warm-up
    for _ in range(repeats):
        c, w = time.process_time(), time.perf_counter()
        for _ in range(inner):
            fn()
        cpu.append((time.process_time() - c) / inner)
        wall.append((time.perf_counter() - w) / inner)
    with SolveCounter() as counter:
        fn()
    return statistics.median(cpu), statistics.median(wall), counter.calls


def fmt(seconds):
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def rows():
    h8 = lattice.build_coulomb_hamiltonian(8, 0.3, -1.0).matrix
    yield "`eigenvalues()` N=8", lambda: eigensolve.eigenvalues(h8), 9, 200
    yield "raw `np.linalg.eigvals` N=8", lambda: np.linalg.eigvals(h8), 9, 200
    yield "SVD-based `norm(H, 2)` N=8", lambda: np.linalg.norm(h8, 2), 9, 200
    for n, reps in ((4, 9), (16, 7), (64, 5), (200, 3)):
        yield f"`critical_coupling` N={n}", lambda n=n: spectra.critical_coupling(n), reps, 1
    for n, reps in ((6, 7), (10, 7), (24, 5), (48, 3)):
        yield f"`exceptional_points` N={n}", lambda n=n: spectra.exceptional_points(n), reps, 1
    yield "`sweep` N=64, 201 steps", lambda: spectra.sweep(64, -1.0, 0.0, 0.2, 201), 5, 1
    spec = continuum.ContinuumSpec(angular=0.25, z_charge=1.0, k_wave=0.5)
    joint = 0.5 * np.pi
    contour = continuum.build_contour(1.0, -3 * joint, 3 * joint, 1601)
    yield ("`ode_residual_on_contour`, 1601 samples",
           lambda: continuum.ode_residual_on_contour(spec, contour), 7, 1)
    for n, reps in ((8, 9), (16, 7)):
        h = lattice.build_coulomb_hamiltonian(n, 0.1, -1.0)
        yield (f"`dieudonne_solution_dimension` N={n}",
               lambda h=h: metrics.dieudonne_solution_dimension(h), reps, 1)
    stack = np.array([lattice.build_coulomb_hamiltonian(10, a, -1.0).matrix
                      for a in np.linspace(0.0, 3.0, 513)])
    yield "513 stacked N=10 matrices, one batched `eigvals` call", lambda: np.linalg.eigvals(stack), 7, 1
    yield ("same 513 matrices, looped `eigenvalues()`",
           lambda: [eigensolve.eigenvalues(m) for m in stack], 7, 1)


def main():
    print(f"numpy {np.__version__}, BLAS threads 1, nproc {os.cpu_count()}\n")
    print("| workload | CPU time | wall time | eigensolves |")
    print("|---|---|---|---|")
    for label, fn, repeats, inner in rows():
        cpu, wall, solves = measure(fn, repeats, inner)
        print(f"| {label} | {fmt(cpu)} | {fmt(wall)} | {solves or '–'} |", flush=True)


if __name__ == "__main__":
    main()
