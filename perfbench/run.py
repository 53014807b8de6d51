#!/usr/bin/env python3
"""ptcoulomb benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload ep_scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in its own process
(``worker.py``) with one BLAS thread; this process measures set-up, reads
the ops the worker streams back, checks every answer against an
independent computation (``checks.py``) and prints the metrics.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, op_p50_ms,
ops_per_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones.
Times are process CPU time, which on a dedicated core equals wall time but,
unlike wall time, does not count time the hypervisor stole from the VM.
They are rescaled to a reference machine speed by a fixed reference kernel
timed between ops (see README.md), because a shared VM changes speed by up
to 1.6x for seconds at a time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("ep_scan", "large_lattice", "metric_certify", "continuum_contour")

#: set-up is measured in this many fresh processes per run (the timed
#: worker is one of them) and reported as their median
SETUP_SAMPLES = 5

#: median CPU ms of the worker's reference kernel on the reference machine
#: (2-core VM, numpy 2.4.6, one BLAS thread); times are rescaled by
#: REFERENCE_KERNEL_MS / (this run's median) so that a run on a slower or
#: faster moment of a shared machine reports the same figures
REFERENCE_KERNEL_MS = 16.0

#: reference-kernel runs around an op that set its rescaling factor
REF_WINDOW = 5

#: a worker still running this long after its window is killed
WORKER_GRACE_S = 120.0


class BenchmarkError(RuntimeError):
    pass


def start_worker(args, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, bufsize=1)


def read_worker(proc, limit_s):
    """Yield (tag, payload) lines from a worker; kill it if it overruns."""
    killer = threading.Timer(limit_s, proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            yield tag, json.loads(body)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()


class Worker:
    """Everything one worker process reported."""

    def __init__(self, args, extra, limit_s):
        start = time.perf_counter()
        proc = start_worker(args, extra)
        self.setup_wall_s = self.setup_cpu_s = self.done = None
        self.refs, self.ops = [], []
        for tag, payload in read_worker(proc, limit_s):
            if tag == "READY":
                self.setup_wall_s = time.perf_counter() - start
                self.setup_cpu_s = payload["cpu_s"]
            elif tag == "REF":
                self.refs.append(payload["cpu_ms"])
            elif tag == "OP":
                payload["ref"] = len(self.refs) - 1
                self.ops.append(payload)
            elif tag == "DONE":
                self.done = payload
        if proc.returncode != 0 or not self.refs:
            raise BenchmarkError(f"{' '.join(extra)} worker exited {proc.returncode}")

    @property
    def speed(self) -> float:
        """Factor that rescales this process's CPU times to the reference machine."""
        return REFERENCE_KERNEL_MS / statistics.median(self.refs)

    @property
    def setup_s(self) -> float:
        return self.speed * self.setup_cpu_s

    def op_ms(self, op) -> float:
        """The op's CPU time rescaled by the reference-kernel runs around it.

        A shared machine switches between speeds for seconds at a time, so
        each op is rescaled by the median of the REF_WINDOW reference runs
        nearest to it rather than by one figure for the whole run.
        """
        i = min(max(op["ref"] - REF_WINDOW // 2, 0), max(len(self.refs) - REF_WINDOW, 0))
        local = statistics.median(self.refs[i:i + REF_WINDOW])
        return op["cpu_ms"] * REFERENCE_KERNEL_MS / local


def percentile_line(label, values):
    """Median, and p90 when at least ten samples lie beyond it."""
    vals = sorted(values)
    text = f"{label}: p50 {statistics.median(vals):.3f} ms (n={len(vals)})"
    if len(vals) >= 100:
        text += f", p90 {vals[int(0.9 * len(vals))]:.3f} ms"
    return text


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ptcoulomb" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ptcoulomb sources under {ROOT / 'src'}\n")
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{tag}.spans.npz" if args.trace else None

    extra = ["--trace", str(args.trace)] + (["--spans", str(spans_path)] if args.trace else [])
    try:
        setups = [] if args.trace else [Worker(args, ["--setup-only"], WORKER_GRACE_S)
                                        for _ in range(SETUP_SAMPLES - 1)]
        main_worker = Worker(args, extra, args.seconds + WORKER_GRACE_S)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    setups.append(main_worker)
    ops, done = main_worker.ops, main_worker.done

    statuses = [checks.op_status(args.workload, op) for op in ops]
    failed = [op for op, (st, _) in zip(ops, statuses) if st == "failed"]
    wrong = [(op, msgs) for op, (st, msgs) in zip(ops, statuses) if st == "wrong"]
    for op, msgs in wrong[:5]:
        sys.stderr.write(f"WRONG op {op['index']} {op['params']}:\n  " + "\n  ".join(msgs[:5]) + "\n")
    kinds = sorted({op["params"].get("kind", args.workload) for op in failed})
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops attempted, "
          f"{len(failed)} failed {kinds or ''}, {len(wrong)} wrong")
    print(f"numpy {done['numpy']}, python {done['python']}, BLAS threads {done['blas_threads']}, "
          f"nproc {done['nproc']}, affinity {done['affinity']}")

    untraced = [op for op in ops if not op["traced"]]
    op_ms = [main_worker.op_ms(op) for op in untraced]
    print(percentile_line("op cpu", [op["cpu_ms"] for op in untraced]))
    print(percentile_line("op wall", [op["wall_ms"] for op in untraced]))
    print(f"setup: cpu median {statistics.median(w.setup_cpu_s for w in setups):.4f} s, wall median "
          f"{statistics.median(w.setup_wall_s for w in setups):.4f} s over {len(setups)} processes")
    print(f"reference kernel: median {statistics.median(main_worker.refs):.3f} ms over "
          f"{len(main_worker.refs)} runs, {REFERENCE_KERNEL_MS} ms on the reference machine")
    print(percentile_line("op cpu rescaled", op_ms))

    if args.trace:
        traced_ms = [main_worker.op_ms(op) for op in ops if op["traced"]]
        names, cols = tracing.load_spans(spans_path)
        values = tracing.layer_metrics(names, cols)
        for name, unit in tracing.PER_LAYER:
            if unit in ("ms", "us"):
                values[name] *= main_worker.speed
        values["trace.overhead_pct"] = tracing.overhead_pct(op_ms, traced_ms)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(w.setup_s for w in setups), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "ops_per_s": {"value": 1e3 * len(op_ms) / sum(op_ms), "unit": "ops/s"},
            "peak_rss_mb": {"value": done["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }

    result = {"correct": not wrong, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=done, reference_ms=main_worker.refs,
                       setups=[[w.setup_wall_s, w.setup_cpu_s, w.speed] for w in setups],
                       op_cpu_ms=[op["cpu_ms"] for op in ops],
                       op_ref=[op["ref"] for op in ops],
                       op_wall_ms=[op["wall_ms"] for op in ops]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
