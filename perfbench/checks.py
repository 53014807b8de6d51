"""Independent checks of every benchmark op's outputs.

Nothing here calls ``ptcoulomb``.  The Hamiltonian is rebuilt from its
defining formula, spectra come from raw ``np.linalg.eigvals`` and the
continuum solutions from mpmath at 40 digits (or the closed form
sinh(kx)/k when L = Z = 0).  Each ``check_<workload>`` takes the op's
parameters and the outputs the worker recorded and returns a list of
failure messages; an empty list means the op's answer is correct.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

import numpy as np

#: |Im eps| at or below this counts as real in the raw oracle count
REAL_TAU = 1e-7

#: a verdict is "near flipping" when some |Im eps| lies in
#: [REAL_TAU / MARGIN, REAL_TAU * MARGIN]; such sweep rows are not compared
MARGIN = 100.0

#: critical-coupling and EP tolerances the workloads ask the CLI for
CRITICAL_TOL = 1e-8
EPS_TOL = 1e-6

#: eigenvalue multiset agreement (CLI output carries 12 significant digits)
SPECTRUM_ATOL = 1e-9

#: metric checks
HERMITIAN_RTOL = 1e-11
DIEUDONNE_RTOL = 1e-10

#: continuum checks
PSI_RTOL = 1e-10
RATIO_RANGE = (3.5, 4.5)
CONTOUR_RTOL = 1e-12


# ------------------------------------------------------------------ oracles


def coulomb_matrix(n: int, a: float, z: float) -> np.ndarray:
    """Tridiagonal -1 / 2 + i a sgn(m)|m|^z, m = 1-N, 3-N, ..., N-1."""
    m = np.arange(1 - n, n, 2, dtype=float)
    h = np.diag(2.0 + 1j * a * np.sign(m) * np.abs(m) ** z)
    h -= np.eye(n, k=1) + np.eye(n, k=-1)
    return h


def real_count(n: int, a: float, z: float) -> int:
    vals = np.linalg.eigvals(coulomb_matrix(n, a, z))
    return int(np.count_nonzero(np.abs(vals.imag) <= REAL_TAU))


def reality_edge(n: int, z: float, iterations: int = 50) -> float:
    """Edge of the fully-real coupling interval by plain bisection on [0, 2]."""
    lo, hi = 0.0, 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if real_count(n, mid, z) == n:
            lo = mid
        else:
            hi = mid
    return lo


def multiset_deviation(got, want) -> float:
    """Largest distance in a greedy nearest pairing of two equal-size multisets."""
    got = list(np.asarray(got, dtype=complex))
    want = np.asarray(want, dtype=complex)
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for w in want:
        dist = [abs(g - w) for g in got]
        pick = int(np.argmin(dist))
        worst = max(worst, dist[pick])
        got.pop(pick)
    return float(worst)


def contour_x(epsilon: float, s: float) -> complex:
    """Point of the U-shaped contour: left line, lower arc, right line."""
    joint = 0.5 * math.pi * epsilon
    if s < -joint:
        return complex(-epsilon, -(s + joint))
    if s > joint:
        return complex(epsilon, s - joint)
    return complex(epsilon * math.cos(s / epsilon + 1.5 * math.pi),
                   epsilon * math.sin(s / epsilon + 1.5 * math.pi))


def psi_reference(L: float, Z: float, k: float, x: complex, which: int) -> complex:
    """psi_1 or psi_2 at x; sinh(kx)/k for psi_1 when L = Z = 0."""
    if which == 1 and L == 0 and Z == 0:
        return complex(np.sinh(k * x) / k)
    import mpmath

    with mpmath.workdps(40):
        xm = mpmath.mpc(x.real, x.imag)
        km, lm = mpmath.mpf(k), mpmath.mpf(L)
        shift = 1j * mpmath.mpf(Z) / (2 * km)
        if which == 1:
            val = mpmath.power(xm, lm + 1) * mpmath.hyp1f1(1 + lm + shift, 2 * lm + 2, 2 * km * xm)
        else:
            val = mpmath.power(xm, -lm) * mpmath.hyp1f1(-lm + shift, -2 * lm, 2 * km * xm)
        return complex(mpmath.exp(-km * xm) * val)


# ------------------------------------------------------------ CLI outputs


def _doc(step: dict) -> dict:
    return json.loads(step["out"])


def _rows(step: dict) -> list:
    return _doc(step)["results"]["rows"]


def matrix_from_rows(rows, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    for i, j, re, im in rows:
        m[int(i) - 1, int(j) - 1] = re + 1j * im
    return m


def _arg(argv: List[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# ----------------------------------------------------------------- checks


def _check_alpha(n: int, z: float, alpha: float) -> List[str]:
    bad = []
    at = real_count(n, alpha, z)
    beyond = real_count(n, alpha + 2 * CRITICAL_TOL, z)
    if at != n:
        bad.append(f"alpha={alpha!r}: {at} of {n} eigenvalues real at alpha")
    if beyond >= n:
        bad.append(f"alpha={alpha!r}: still {beyond} real at alpha + 2*tol")
    return bad


def _check_metric(n: int, a: float, z: float, theta: np.ndarray) -> List[str]:
    bad = []
    scale = float(np.max(np.abs(theta)))
    herm = float(np.max(np.abs(theta - theta.conj().T)))
    if not herm <= HERMITIAN_RTOL * scale:
        bad.append(f"Theta not Hermitian: max|Theta - Theta^dag| = {herm:.3e}")
    h = coulomb_matrix(n, a, z)
    res = np.linalg.norm(h.conj().T @ theta - theta @ h) / (
        np.linalg.norm(h) * np.linalg.norm(theta)
    )
    if not res <= DIEUDONNE_RTOL:
        bad.append(f"Dieudonne residual {res:.3e} > {DIEUDONNE_RTOL}")
    smallest = float(np.linalg.eigvalsh(0.5 * (theta + theta.conj().T))[0])
    if not smallest > 0:
        bad.append(f"Theta not positive: smallest eigenvalue {smallest:.3e}")
    return bad


def check_ep_scan(params: Dict, steps: List[dict]) -> List[str]:
    n, z = params["n"], params["z"]
    critical, eps = steps
    alpha = float(_rows(critical)[0][0])
    bad = _check_alpha(n, z, alpha)
    points = sorted(float(r[1]) for r in _rows(eps))
    if len(points) != n // 2:
        bad.append(f"{len(points)} exceptional points reported, expected {n // 2}")
    if not points:
        return bad
    clusters: List[List[float]] = []
    for p in points:
        if clusters and p - clusters[-1][-1] <= 2 * EPS_TOL:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    for cl in clusters:
        centre = 0.5 * (cl[0] + cl[-1])
        before = real_count(n, centre - 2 * EPS_TOL, z)
        after = real_count(n, centre + 2 * EPS_TOL, z)
        if before - after != 2 * len(cl):
            bad.append(
                f"EP a={centre!r} (x{len(cl)}): real count {before} -> {after}, "
                f"expected a drop of {2 * len(cl)}"
            )
    if abs(points[0] - alpha) > EPS_TOL:
        bad.append(f"first EP {points[0]!r} differs from alpha {alpha!r} by more than {EPS_TOL}")
    return bad


def check_large_lattice(params: Dict, steps: List[dict]) -> List[str]:
    n, z = params["n"], params["z"]
    critical, sweep_step, metric = steps
    alpha = float(_rows(critical)[0][0])
    bad = _check_alpha(n, z, alpha)

    argv = sweep_step["argv"]
    a_max, n_steps = float(_arg(argv, "--a-max")), int(_arg(argv, "--steps"))
    couplings = np.linspace(float(_arg(argv, "--a-min")), a_max, n_steps)
    rows = _rows(sweep_step)
    if len(rows) != n_steps:
        return bad + [f"sweep has {len(rows)} rows, expected {n_steps}"]
    compared = 0
    for a, row in zip(couplings, rows):
        if abs(row[0] - a) > 1e-11 * max(1.0, abs(a)):
            bad.append(f"sweep coupling {row[0]!r} != {a!r}")
        got = np.array(row[1:-1:2]) + 1j * np.array(row[2:-1:2])
        raw = np.linalg.eigvals(coulomb_matrix(n, a, z))
        dev = multiset_deviation(got, raw)
        if not dev <= SPECTRUM_ATOL:
            bad.append(f"sweep row a={a!r}: deviation {dev:.3e} from raw eigvals")
        mirror = multiset_deviation(got, 4.0 - np.conj(got))
        if not mirror <= SPECTRUM_ATOL:
            bad.append(f"sweep row a={a!r}: not symmetric under eps -> 4 - conj(eps) ({mirror:.3e})")
        im = np.abs(raw.imag)
        if np.any((im >= REAL_TAU / MARGIN) & (im <= REAL_TAU * MARGIN)):
            continue
        compared += 1
        want = int(np.count_nonzero(im <= REAL_TAU))
        if int(row[-1]) != want:
            bad.append(f"sweep row a={a!r}: n_real {row[-1]} != {want}")
    if compared < n_steps // 2:
        bad.append(f"only {compared} of {n_steps} sweep rows had a clear reality verdict")

    a = float(_arg(metric["argv"], "--a"))
    theta = matrix_from_rows(_rows(metric), n)
    return bad + _check_metric(n, a, z, theta)


def check_metric_certify(params: Dict, steps: List[dict]) -> List[str]:
    n, a, z = params["n"], params["a"], params["z"]
    metric, dim = steps
    theta = matrix_from_rows(_rows(metric), n)
    bad = _check_metric(n, a, z, theta)
    if dim["value"] != n:
        bad.append(f"Dieudonne solution dimension {dim['value']}, expected {n}")
    return bad


def check_continuum_contour(params: Dict, steps: List[dict]) -> List[str]:
    L, Z, k, eps = params["L"], params["Z"], params["k"], params["epsilon"]
    check_step, psi = steps
    bad = []
    measured = {c["name"]: c["measured"] for c in _doc(check_step)["checks"]}
    ratio = float(measured["convergence_ratio"])
    if not RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]:
        bad.append(f"residual convergence ratio {ratio:.4f} outside {RATIO_RANGE}")
    for s, (xr, xi), values in zip(params["s"], psi["x"], psi["values"]):
        x = complex(xr, xi)
        want_x = contour_x(eps, s)
        if abs(x - want_x) > CONTOUR_RTOL * max(1.0, abs(want_x)):
            bad.append(f"contour point s={s!r}: {x} != {want_x}")
        for which, (re, im) in enumerate(values, start=1):
            got = complex(re, im)
            want = psi_reference(L, Z, k, x, which)
            err = abs(got - want) / abs(want)
            if not err <= PSI_RTOL:
                bad.append(f"psi{which}({x}) relative error {err:.2e} > {PSI_RTOL}")
    return bad


CHECKS = {
    "ep_scan": check_ep_scan,
    "large_lattice": check_large_lattice,
    "metric_certify": check_metric_certify,
    "continuum_contour": check_continuum_contour,
}


def op_status(workload: str, record: dict) -> tuple:
    """('ok' | 'failed' | 'wrong', messages) for one recorded op.

    An op failed when the program reported an error: a CLI step exited
    non-zero or a call raised.  An op is wrong when the program reported
    success but an independent check rejects its answer.
    """
    errors = [
        f"{st['argv'][0]} exited {st['rc']}: {st['err'].strip()}"
        for st in record["steps"] if "rc" in st and st["rc"] != 0
    ] + [st["error"] for st in record["steps"] if st.get("error")]
    if errors:
        return "failed", errors
    try:
        bad = CHECKS[workload](record["params"], record["steps"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        bad = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    return ("wrong" if bad else "ok"), bad
