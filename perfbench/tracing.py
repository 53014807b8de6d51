"""Spans around calls into ptcoulomb's public functions, and the per-layer
metrics derived from them.

The tracer wraps every public function of the package's modules through
the module attributes that callers look them up by (``spectra.eigenvalues``
as well as ``eigensolve.eigenvalues``), so calls between modules are seen
without editing the package.  A span is (name, start, end, parent, op) with
times in ns of the process CPU clock.  Spans stay in memory, one integer
column per field, until ``save`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from array import array
from typing import Dict, List

import numpy as np

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("lattice.builds_per_op", "count"),
    ("lattice.build_ms_per_op", "ms"),
    ("eigensolve.solves_per_op", "count"),
    ("eigensolve.solve_ms_per_op", "ms"),
    ("eigensolve.us_per_solve", "us"),
    ("eigensolve.eigensystems_per_op", "count"),
    ("eigensolve.eigensystem_ms_per_op", "ms"),
    ("spectra.critical_solves", "count"),
    ("spectra.eps_solves", "count"),
    ("spectra.critical_ms_per_op", "ms"),
    ("spectra.eps_ms_per_op", "ms"),
    ("spectra.sweep_ms_per_op", "ms"),
    ("spectra.self_ms_per_op", "ms"),
    ("metrics.solution_dim_ms_per_op", "ms"),
    ("metrics.biorthogonal_ms_per_op", "ms"),
    ("metrics.checks_ms_per_op", "ms"),
    ("continuum.kummer_calls_per_op", "count"),
    ("continuum.psi_ms_per_op", "ms"),
    ("continuum.residual_self_ms_per_op", "ms"),
    ("continuum.contour_ms_per_op", "ms"),
    ("cli.self_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
]

OP = "op"
FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    def __init__(self, modules):
        self.names: List[str] = [OP]
        self.cols = {f: array("q") for f in FIELDS}
        self._stack: List[int] = []
        self._op = -1
        self._wrappers: Dict[int, object] = {}
        self._patches = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("ptcoulomb."):
                    continue
                self._patches.append((mod, attr, obj, self._wrap(obj)))

    def _open(self, name_id: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self._op)
        c["end_ns"].append(0)
        self._stack.append(idx)
        c["start_ns"].append(time.process_time_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.cols["end_ns"][idx] = time.process_time_ns()
        self._stack.pop()

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name_id = len(self.names)
        self.names.append(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def install(self) -> None:
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapper in self._patches:
            setattr(mod, attr, orig)

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._op_span = self._open(0)

    def end_op(self) -> None:
        self._close(self._op_span)

    def save(self, path) -> None:
        """Write names and span columns as a .npz file."""
        np.savez(path, names=json.dumps(self.names),
                 **{f: np.frombuffer(self.cols[f], dtype=np.int64) for f in FIELDS})


def load_spans(path) -> tuple:
    with np.load(path) as data:
        return json.loads(str(data["names"])), {f: data[f] for f in FIELDS}


def layer_metrics(names: List[str], cols: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Per-layer metrics averaged over the traced ops (see PER_LAYER)."""
    name_id, parent = cols["name"], cols["parent"]
    dur = (cols["end_ns"] - cols["start_ns"]) / 1e6
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ms = dur - child
    ids = {n: i for i, n in enumerate(names)}
    module = np.array([n.split(".")[0] for n in names])[name_id]
    ops = max(int(np.count_nonzero(name_id == ids[OP])), 1)

    def is_(*fns) -> np.ndarray:
        return np.isin(name_id, [ids[f] for f in fns if f in ids])

    def under(mask: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in mask."""
        out = np.zeros_like(mask)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            out[live] |= mask[anc[live]]
            anc[live] = parent[anc[live]]
        return out

    def total_ms(*fns) -> float:
        """Time in calls to fns, counting nested calls among them once."""
        mask = is_(*fns)
        return float(dur[mask & ~under(mask)].sum())

    def module_self_ms(mod: str) -> float:
        return float(self_ms[module == mod].sum())

    solve = is_("eigensolve.eigenvalues")

    def solves_per_call(fn: str) -> float:
        calls = int(np.count_nonzero(is_(fn)))
        return int(np.count_nonzero(solve & under(is_(fn)))) / calls if calls else 0.0

    def count(*fns) -> int:
        return int(np.count_nonzero(is_(*fns)))

    solves, solve_ms = count("eigensolve.eigenvalues"), total_ms("eigensolve.eigenvalues")
    return {
        "lattice.builds_per_op": count("lattice.build_coulomb_hamiltonian",
                                       "lattice.build_general_hamiltonian") / ops,
        "lattice.build_ms_per_op": module_self_ms("lattice") / ops,
        "eigensolve.solves_per_op": solves / ops,
        "eigensolve.solve_ms_per_op": solve_ms / ops,
        "eigensolve.us_per_solve": 1e3 * solve_ms / solves if solves else 0.0,
        "eigensolve.eigensystems_per_op": count("eigensolve.eigensystem") / ops,
        "eigensolve.eigensystem_ms_per_op": total_ms("eigensolve.eigensystem") / ops,
        "spectra.critical_solves": solves_per_call("spectra.critical_coupling"),
        "spectra.eps_solves": solves_per_call("spectra.exceptional_points"),
        "spectra.critical_ms_per_op": total_ms("spectra.critical_coupling") / ops,
        "spectra.eps_ms_per_op": total_ms("spectra.exceptional_points") / ops,
        "spectra.sweep_ms_per_op": total_ms("spectra.sweep") / ops,
        "spectra.self_ms_per_op": module_self_ms("spectra") / ops,
        "metrics.solution_dim_ms_per_op": total_ms("metrics.dieudonne_solution_dimension") / ops,
        "metrics.biorthogonal_ms_per_op": total_ms("metrics.metric_from_biorthogonal") / ops,
        "metrics.checks_ms_per_op": total_ms("metrics.is_positive", "metrics.dieudonne_residual",
                                             "metrics.band_width") / ops,
        "continuum.kummer_calls_per_op": count("continuum.kummer_1f1") / ops,
        "continuum.psi_ms_per_op": total_ms("continuum.psi_value", "continuum.psi1_value",
                                            "continuum.psi2_value",
                                            "continuum.psi_solutions") / ops,
        "continuum.residual_self_ms_per_op": float(
            self_ms[is_("continuum.ode_residual_on_contour")].sum()) / ops,
        "continuum.contour_ms_per_op": total_ms("continuum.build_contour",
                                                "continuum.contour_point") / ops,
        "cli.self_ms_per_op": module_self_ms("cli") / ops,
    }


def overhead_pct(untraced_ms: List[float], traced_ms: List[float]) -> float:
    """Median traced op time over the median untraced one, in percent above 1."""
    return 100.0 * (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0)
