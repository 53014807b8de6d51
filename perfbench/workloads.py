"""The four benchmark workloads: seeded inputs and the op each one issues.

Every op of a workload has the same shape (same N, same sequence of calls);
only seeded parameters vary.  Ops are grouped in rounds and a run always
attempts whole rounds, so the share of each op kind is the same in every
run.  Inputs of round r come from ``numpy.random.default_rng`` seeded with
(seed, crc32 of the workload name, r + 1), and the warm-up op's from stream
0, so one seed always gives the same inputs.

Ops go through ``ptcoulomb.cli.main(argv)`` with stdout captured, or through
the public API where no subcommand exposes the capability.  Modules are
looked up as attributes at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
import zlib
from typing import Dict, List

import numpy as np

import ptcoulomb.cli
import ptcoulomb.continuum
import ptcoulomb.lattice
import ptcoulomb.metrics

from checks import CRITICAL_TOL, EPS_TOL, reality_edge

#: |x| at the far ends of the continuum contour, as a multiple of epsilon:
#: the contour runs to s = +-(3/2) pi epsilon, i.e. x = +-epsilon + i pi epsilon
CONTOUR_REACH_PER_EPSILON = math.sqrt(1.0 + math.pi**2)


def cli_step(argv: List[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ptcoulomb.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _num(x: float) -> str:
    return repr(float(x))


def _kappa(weights) -> str:
    return ",".join(_num(w) for w in weights)


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), stream])

    def round_inputs(self, r: int) -> List[Dict]:
        rng = self.rng(r + 1)
        return [self.make_input(rng, i) for i in range(self.round_size)]

    def warmup_input(self) -> Dict:
        return self.make_input(self.rng(0), 0)

    def make_input(self, rng: np.random.Generator, slot: int) -> Dict:
        raise NotImplementedError

    def run_op(self, params: Dict) -> List[dict]:
        raise NotImplementedError


class EpScan(Workload):
    """One threshold-table row: critical + eps at N = 10."""

    name = "ep_scan"
    n = 10

    def make_input(self, rng, slot):
        return {"n": self.n, "z": float(rng.uniform(-1.2, -0.8))}

    def run_op(self, p):
        n, z = str(p["n"]), _num(p["z"])
        return [
            cli_step(["critical", "--n", n, "--z", z, "--tol", _num(CRITICAL_TOL),
                           "--format", "json"]),
            cli_step(["eps", "--n", n, "--z", z, "--a-max", "3", "--tol", _num(EPS_TOL),
                           "--format", "json"]),
        ]


class LargeLattice(Workload):
    """critical, sweep over [0, 2 alpha] and metric at alpha / 2, N = 64."""

    name = "large_lattice"
    n = 64
    steps = 41

    def make_input(self, rng, slot):
        return {
            "n": self.n,
            "z": float(rng.uniform(-1.2, -0.8)),
            "kappa": rng.uniform(0.5, 2.0, self.n).tolist(),
        }

    def run_op(self, p):
        n, z = str(p["n"]), _num(p["z"])
        crit = cli_step(["critical", "--n", n, "--z", z, "--tol", _num(CRITICAL_TOL),
                              "--format", "json"])
        if crit["rc"] != 0:
            return [crit]
        alpha = float(json.loads(crit["out"])["results"]["rows"][0][0])
        sweep = cli_step(["sweep", "--n", n, "--z", z, "--a-min", "0",
                               "--a-max", _num(2 * alpha), "--steps", str(self.steps),
                               "--format", "json"])
        metric = cli_step(["metric", "--n", n, "--z", z, "--a", _num(alpha / 2),
                                "--kappa", _kappa(p["kappa"]), "--format", "json"])
        return [crit, sweep, metric]


class MetricCertify(Workload):
    """metric + dieudonne_solution_dimension at N = 14 inside the reality interval."""

    name = "metric_certify"
    n = 14
    z = -1.0

    def __init__(self, seed):
        super().__init__(seed)
        self.alpha = reality_edge(self.n, self.z)

    def make_input(self, rng, slot):
        return {
            "n": self.n,
            "z": self.z,
            "a": float(rng.uniform(0.1, 0.9) * self.alpha),
            "kappa": rng.uniform(0.5, 2.0, self.n).tolist(),
        }

    def run_op(self, p):
        metric = cli_step(["metric", "--n", str(p["n"]), "--z", _num(p["z"]),
                                "--a", _num(p["a"]), "--kappa", _kappa(p["kappa"]),
                                "--format", "json"])
        dim = {"value": None}
        try:
            h = ptcoulomb.lattice.build_coulomb_hamiltonian(p["n"], p["a"], p["z"])
            dim["value"] = int(ptcoulomb.metrics.dieudonne_solution_dimension(h))
        except Exception:  # recorded and counted as a failed op
            dim["error"] = traceback.format_exc(limit=2)
        return [metric, dim]


class ContinuumContour(Workload):
    """continuum-check plus psi_1, psi_2 at three points of the op's contour.

    A round is eight ops: six with seeded (L, Z, k) and contour reach |2kx|
    in [8, 10], one with L = Z = 0, and one fixed large-reach contour
    (epsilon 8, L 0.25, Z 1, k 0.5, reach 26.4) that the series admits but
    cannot evaluate accurately.  The last one does not depend on the seed.
    """

    name = "continuum_contour"
    round_size = 8
    large_reach = {"kind": "large_reach", "epsilon": 8.0, "L": 0.25, "Z": 1.0, "k": 0.5}

    def make_input(self, rng, slot):
        if slot == self.round_size - 1:
            joint = 0.5 * math.pi * self.large_reach["epsilon"]
            return dict(self.large_reach, s=[-3 * joint, 0.0, 3 * joint])
        free = slot == self.round_size - 2
        k = float(rng.uniform(0.3, 1.0))
        reach = float(rng.uniform(8.0, 10.0))
        eps = reach / (2 * k * CONTOUR_REACH_PER_EPSILON)
        joint = 0.5 * math.pi * eps
        u = rng.uniform(0.05, 1.0, 3)
        s = [-joint - 2 * joint * u[0], joint * (2 * u[1] - 1) * 0.95, joint + 2 * joint * u[2]]
        return {
            "kind": "free" if free else "general",
            "epsilon": eps,
            "L": 0.0 if free else float(rng.uniform(0.1, 0.45)),
            "Z": 0.0 if free else float(rng.uniform(0.5, 2.0)),
            "k": k,
            "s": [float(v) for v in s],
        }

    def run_op(self, p):
        check = cli_step(["continuum-check", "--epsilon", _num(p["epsilon"]),
                               "--L", _num(p["L"]), "--Z", _num(p["Z"]), "--k", _num(p["k"]),
                               "--format", "json"])
        psi = {"x": [], "values": []}
        try:
            cont = ptcoulomb.continuum
            spec = cont.ContinuumSpec(angular=p["L"], z_charge=p["Z"], k_wave=p["k"])
            for s in p["s"]:
                x = complex(cont.contour_point(p["epsilon"], s))
                vals = [cont.psi1_value(spec, x)]
                if p["kind"] != "free":
                    vals.append(cont.psi2_value(spec, x))
                psi["x"].append([x.real, x.imag])
                psi["values"].append([[complex(v).real, complex(v).imag] for v in vals])
        except Exception:  # recorded and counted as a failed op
            psi["error"] = traceback.format_exc(limit=2)
        return [check, psi]


WORKLOADS = {w.name: w for w in (EpScan, LargeLattice, MetricCertify, ContinuumContour)}
