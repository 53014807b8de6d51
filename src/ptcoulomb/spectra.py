"""Reality domains, exceptional points, and spectral-locus sweeps.

The coupling ``a`` of the lattice Hamiltonian controls how many eigenvalues
stay real: the whole spectrum is real for |a| < alpha(N), and pairs of real
eigenvalues merge and complexify at a finite set of exceptional points as
|a| grows.  Because of the up-down symmetry eps -> 4 - conj(eps), mergers
happen in mirrored pairs; at N=4 the bottom and top mergers coincide at the
same coupling, so the spectrum jumps from fully real to fully complex there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .eigensolve import REALITY_RTOL, EigensolverError, eigenvalues
from .lattice import LatticeHamiltonian, _signed_power, _tridiagonal

#: number of uniform samples in the initial exceptional-point scan
EP_SCAN_SAMPLES = 512

#: upper edge of the default bisection bracket for the critical coupling
CRITICAL_BRACKET = 2.0

#: hard cap for bracket auto-expansion
CRITICAL_BRACKET_MAX = 64.0

#: bytes of one float64 matrix stack per LAPACK call in coupling scans; a
#: single matrix larger than this is solved on its own
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class RealityReport:
    """Count of real eigenvalues of one Hamiltonian at one coupling."""

    coupling: float
    n_real: int
    fully_real: bool
    fully_complex: bool


@dataclass(frozen=True)
class SweepTable:
    """Eigenvalue loci over a coupling range, continuity-ordered per column.

    ``eigenvalues[i, j]`` is the j-th locus at coupling ``couplings[i]``;
    columns are matched row-to-row by nearest-neighbor pairing so each
    column traces a continuous curve in the complex plane.
    """

    couplings: np.ndarray
    eigenvalues: np.ndarray
    n_real: np.ndarray


def closed_form_spectrum_n4(coupling: float) -> np.ndarray:
    """The four N=4 Coulomb eigenvalues in closed form (principal branches).

    eps(a) = 2 +- (1/6) sqrt(54 - 20 a^2 +- 2 sqrt(405 - 720 a^2 + 64 a^4))
    """
    a2 = complex(coupling) ** 2
    inner = np.sqrt(405 - 720 * a2 + 64 * a2 * a2 + 0j)
    vals = [
        2 + s1 * np.sqrt(54 - 20 * a2 + s2 * 2 * inner) / 6
        for s1 in (+1, -1)
        for s2 in (+1, -1)
    ]
    vals = np.array(vals, dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def secular_coefficients_n4(coupling: float) -> np.ndarray:
    """Printed quartic secular coefficients of the N=4 Coulomb matrix.

    det(E I - H) = E^4 - 8 E^3 + (21 + 10/9 a^2) E^2
                   - (40/9 a^2 + 20) E + 5 + a^4/9 + 5 a^2.
    """
    a2 = float(coupling) ** 2
    return np.array(
        [1.0, -8.0, 21.0 + 10.0 / 9.0 * a2, -40.0 / 9.0 * a2 - 20.0,
         5.0 + a2 * a2 / 9.0 + 5.0 * a2]
    )


def secular_coefficients_n6(coupling: float) -> np.ndarray:
    """Printed sextic secular coefficients of the N=6 Coulomb matrix."""
    a2 = float(coupling) ** 2
    a4, a6 = a2 * a2, a2 * a2 * a2
    return np.array(
        [
            1.0,
            -12.0,
            55.0 + 259.0 / 225.0 * a2,
            -120.0 - 2072.0 / 225.0 * a2,
            126.0 + 5894.0 / 225.0 * a2 + 7.0 / 45.0 * a4,
            -56.0 - 280.0 / 9.0 * a2 - 28.0 / 45.0 * a4,
            7.0 + 14.0 * a2 + 7.0 / 9.0 * a4 + a6 / 225.0,
        ]
    )


def reality_report(h, tolerance: Optional[float] = None) -> RealityReport:
    """Classify the spectrum of a Hamiltonian by its number of real eigenvalues."""
    coupling = h.coupling if isinstance(h, LatticeHamiltonian) else float("nan")
    spec = eigenvalues(h, classification_tolerance=tolerance)
    n_real = spec.n_real
    return RealityReport(
        coupling=coupling,
        n_real=n_real,
        fully_real=n_real == len(spec.eigenvalues),
        fully_complex=n_real == 0,
    )


def _spectra_along(n_points: int, exponent: float, couplings):
    """Sorted eigenvalues (M, N) and real counts (M,) of the Coulomb matrix
    at M couplings, solved a chunk of couplings per LAPACK call.

    H = A + iB with A = tridiag(-1, 2, -1) and B = a diag(s) satisfies
    PAP = A and PBP = -B for the anti-diagonal flip P, so the unitary
    Q = (I + iP)/sqrt(2) gives Q^dag H Q = A - BP: a real matrix with the
    eigenvalues and 2-norm of H.  Eigenvalues are classified as in
    ``eigensolve.eigenvalues``, with the scale sqrt(|H|_1 |H|_inf), which for
    this complex-symmetric H is its largest absolute row sum.
    """
    s = _signed_power(n_points, exponent)
    im_diag = np.atleast_1d(np.asarray(couplings, dtype=float))[:, None] * s
    if not np.all(np.isfinite(im_diag)):
        raise ValueError("matrix has non-finite entries")
    n = n_points
    lap = _tridiagonal(np.full(n, 2.0))
    rows, flip = np.arange(n), np.arange(n)[::-1]
    chunk = max(1, STACK_BYTES // lap.nbytes)
    vals = np.empty(im_diag.shape, dtype=complex)
    for start in range(0, len(im_diag), chunk):
        part = im_diag[start:start + chunk]
        stack = np.repeat(lap[None], len(part), axis=0)
        stack[:, rows, flip] -= part
        try:
            vals[start:start + chunk] = np.linalg.eigvals(stack)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    vals = np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), axis=-1)
    off_diag = np.full(n, 2.0)
    off_diag[[0, -1]] = 1.0
    scale = (np.hypot(2.0, im_diag) + off_diag).max(axis=1)
    tol = REALITY_RTOL * np.maximum(1.0, scale)
    return vals, np.count_nonzero(np.abs(vals.imag) <= tol[:, None], axis=1)


def critical_coupling(
    n_points: int, exponent: float = -1.0, tolerance: float = 1e-8
) -> float:
    """Edge alpha(N) of the reality interval, located by bisection on a.

    The predicate "spectrum fully real" is scanned on an initial grid to
    confirm it is a prefix of the bracket (true up to the edge, false
    beyond); non-monotone scans raise with the offending subinterval.
    Returns the lower (certified fully-real) edge of the final bracket.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    n = n_points

    def fully_real(couplings) -> np.ndarray:
        return _spectra_along(n, exponent, couplings)[1] == n

    hi = CRITICAL_BRACKET
    while fully_real(hi)[0]:
        hi *= 2.0
        if hi > CRITICAL_BRACKET_MAX:
            raise RuntimeError(
                f"spectrum still fully real at a = {hi / 2}; no critical coupling "
                f"below {CRITICAL_BRACKET_MAX}"
            )

    # monotonicity scan: the predicate must flip exactly once
    grid = np.linspace(0.0, hi, 65)
    values = fully_real(grid)
    flips = np.flatnonzero(values[:-1] != values[1:])
    if len(flips) != 1 or not values[0]:
        bad = flips[1] if len(flips) > 1 else 0
        raise RuntimeError(
            "fully-real predicate is not monotone on the scan grid; offending "
            f"subinterval [{grid[bad]}, {grid[bad + 1]}]"
        )

    edge = flips[:1]
    lo, _ = _bisect(n, exponent, grid[edge], grid[edge + 1], np.array([n]), tolerance)
    return lo[0]


def _require_progress(lo, hi, inner, tolerance):
    # a bracket whose inner points (one row each) all repeat its endpoints
    # cannot shrink: the tolerance is below the float spacing there
    stuck = ((inner == lo[:, None]) | (inner == hi[:, None])).all(axis=1)
    if stuck.any():
        k = np.flatnonzero(stuck)[0]
        raise ValueError(
            f"tolerance {tolerance} is below the float spacing at a = {lo[k]}; "
            f"bracket [{lo[k]}, {hi[k]}] cannot shrink"
        )


def _bisect(n_points, exponent, lo, hi, c_lo, tolerance):
    """Bisect every bracket [lo, hi] to where n_real first falls below its
    c_lo, all brackets in one engine call per round; narrows lo and hi in
    place and returns them."""
    active = hi - lo > tolerance
    while active.any():
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        _require_progress(a, b, mid[:, None], tolerance)
        stays = _spectra_along(n_points, exponent, mid)[1] >= c_lo[active]
        lo[active] = np.where(stays, mid, a)
        hi[active] = np.where(stays, b, mid)
        active = hi - lo > tolerance
    return lo, hi


def _drops(edges: np.ndarray, counts: np.ndarray):
    # (lo, hi, count at lo, drop) of every subinterval of each row of edges
    # over which n_real falls; a rise anywhere is an error
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    c_lo, c_hi = counts[:, :-1].ravel(), counts[:, 1:].ravel()
    rising = np.flatnonzero(c_hi > c_lo)
    if rising.size:
        k = rising[0]
        raise RuntimeError(f"n_real increased on [{lo[k]}, {hi[k]}]; non-monotone count")
    fall = c_hi < c_lo
    return lo[fall], hi[fall], c_lo[fall], (c_lo - c_hi)[fall]


def exceptional_points(
    n_points: int,
    exponent: float = -1.0,
    a_max: float = 3.0,
    tolerance: float = 1e-6,
) -> List[float]:
    """Couplings where pairs of real eigenvalues merge and complexify.

    An upward scan of n_real over [0, a_max] is refined by bisection at
    every drop.  A drop of 2k at a single coupling (the up-down-mirrored
    simultaneous merger) is reported as k coincident exceptional points,
    so the returned list always carries one entry per complexified pair.
    All brackets are refined together: each refinement step solves every
    pending coupling in one batch.
    """
    if a_max <= 0:
        raise ValueError(f"a_max must be positive, got {a_max}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    def n_real(couplings: np.ndarray) -> np.ndarray:
        return _spectra_along(n_points, exponent, couplings)[1]

    grid = np.linspace(0.0, a_max, EP_SCAN_SAMPLES + 1)
    lo, hi, c_lo, drop = _drops(grid[None], n_real(grid)[None])
    brackets = []
    while True:
        # a drop other than one pair over a resolvable interval is split in
        # 8 to try to separate its mergers
        split = (drop != 2) & (hi - lo > tolerance)
        brackets.append((lo[~split], hi[~split], c_lo[~split], drop[~split]))
        if not split.any():
            break
        sub = np.linspace(lo[split], hi[split], 9, axis=1)
        _require_progress(lo[split], hi[split], sub[:, 1:-1], tolerance)
        counts = np.empty(sub.shape, dtype=int)
        counts[:, 0] = c_lo[split]
        counts[:, -1] = c_lo[split] - drop[split]
        counts[:, 1:-1] = n_real(sub[:, 1:-1].ravel()).reshape(-1, 7)
        lo, hi, c_lo, drop = _drops(sub, counts)

    lo, hi, c_lo, drop = (np.concatenate(col) for col in zip(*brackets))
    pairs = drop >= 2
    lo, hi = _bisect(n_points, exponent, lo[pairs], hi[pairs], c_lo[pairs], tolerance)
    return sorted(np.repeat(0.5 * (lo + hi), drop[pairs] // 2).tolist())


def sweep(
    n_points: int,
    exponent: float,
    a_min: float,
    a_max: float,
    steps: int,
) -> SweepTable:
    """Eigenvalue loci on a uniform coupling grid, continuity-ordered.

    Greedy nearest-neighbor matching between consecutive rows keeps each
    column on one locus; adequate away from exceptional points.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not a_min < a_max:
        raise ValueError(f"need a_min < a_max, got [{a_min}, {a_max}]")
    couplings = np.linspace(a_min, a_max, steps)
    vals, n_real = _spectra_along(n_points, exponent, couplings)
    table = np.empty_like(vals)
    table[0] = vals[0]
    for i in range(1, steps):
        table[i] = vals[i, _greedy_match(table[i - 1], vals[i])]
    return SweepTable(couplings=couplings, eigenvalues=table, n_real=n_real)


def _greedy_match(ref: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """For each ref[j] in order, the index of the nearest unused entry of
    vals; ties go to the lowest index."""
    dist = np.abs(vals[None, :] - ref[:, None])
    picks = np.empty(len(ref), dtype=int)
    for j, row in enumerate(dist):
        picks[j] = np.argmin(row)
        dist[:, picks[j]] = np.inf
    return picks
