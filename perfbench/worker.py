"""One workload process: set up, then a closed loop of timed ops.

Run by ``run.py``; it speaks a line protocol on stdout:

    READY <json>   set-up finished (package imported, inputs generated,
                   one warm-up op run); carries the process CPU time so far
    REF <json>     CPU time of one run of the fixed reference kernel
    OP <json>      one attempted op: its inputs, outputs and CPU/wall time
    DONE <json>    peak RSS, numpy version, BLAS threads, cores

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
loop issues the next op only after the previous one returned and always
finishes the round it is in.  Between ops, at least once per
REF_EVERY_MS of op time, it times a fixed reference kernel that does not
call ptcoulomb; run.py uses it to rescale times to a reference machine
speed.  With ``--trace 1`` every second round runs
with the tracer installed and the spans are saved to ``--spans``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ptcoulomb  # noqa: E402
from ptcoulomb import cli, continuum, eigensolve, lattice, metrics, spectra  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (ptcoulomb, lattice, eigensolve, spectra, metrics, continuum, cli)

#: the reference kernel runs before an op once this much op CPU time has
#: passed since its last run (and before the first op)
REF_EVERY_MS = 100.0

#: reference-kernel runs a set-up-only worker makes after READY
SETUP_REF_RUNS = 5


def reference_kernel():
    """Fixed mix of interpreter arithmetic, small and mid-size eigvals and an SVD."""
    rng = np.random.default_rng(20120523)
    m16, m64 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (16, 64))
    tall = rng.normal(size=(200, 100))

    def run():
        acc = 0j
        for i in range(15000):
            acc += complex(i, 1) * 1.0000001
        for _ in range(15):
            np.linalg.eigvals(m16)
        np.linalg.eigvals(m64)
        np.linalg.svd(tall, compute_uv=False)
        return acc

    return run


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def emit_reference(reference) -> None:
    start = time.process_time_ns()
    reference()
    emit("REF", {"cpu_ms": (time.process_time_ns() - start) / 1e6})


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(workload, params):
    try:
        return workload.run_op(params)
    except Exception:  # an op that raised is recorded and counted as failed
        return [{"error": traceback.format_exc(limit=3)}]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    run_op(workload, workload.warmup_input())
    emit("READY", {"cpu_s": time.process_time()})
    reference = reference_kernel()
    if args.setup_only:
        for _ in range(SETUP_REF_RUNS):
            emit_reference(reference)
        return 0

    tracer = tracing.Tracer(MODULES) if args.trace else None
    since_ref = REF_EVERY_MS
    deadline = time.perf_counter() + args.seconds
    min_rounds = 2 if args.trace else 1
    op_index = 0
    r = 0
    while r < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            for params in workload.round_inputs(r):
                if since_ref >= REF_EVERY_MS:
                    emit_reference(reference)
                    since_ref = 0.0
                if traced:
                    tracer.begin_op(op_index)
                c0, w0 = time.process_time_ns(), time.perf_counter_ns()
                steps = run_op(workload, params)
                c1, w1 = time.process_time_ns(), time.perf_counter_ns()
                if traced:
                    tracer.end_op()
                emit("OP", {"index": op_index, "round": r, "traced": traced,
                            "cpu_ms": (c1 - c0) / 1e6, "wall_ms": (w1 - w0) / 1e6,
                            "params": params, "steps": steps})
                op_index += 1
                since_ref += (c1 - c0) / 1e6
        finally:
            if traced:
                tracer.uninstall()
        r += 1

    if tracer is not None and args.spans:
        tracer.save(args.spans)
    emit("DONE", {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "rounds": r,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
