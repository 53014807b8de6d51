"""Reality domains, exceptional points, and spectral-locus sweeps.

The coupling ``a`` of the lattice Hamiltonian controls how many eigenvalues
stay real: the whole spectrum is real for |a| < alpha(N), and pairs of real
eigenvalues merge and complexify at a finite set of exceptional points as
|a| grows.  Because of the up-down symmetry eps -> 4 - conj(eps), mergers
happen in mirrored pairs; at N=4 the bottom and top mergers coincide at the
same coupling, so the spectrum jumps from fully real to fully complex there.

At a merger two real roots of p(lam, a) = det(H(a) - lam) meet, so it is a
fold: a root of p = dp/dlam = 0.  For the Coulomb family, levels 2m and
2m+1 of the a = 0 spectrum 2 - 2 cos(k pi/(N+1)) merge with each other, and
their mirror pair at the same coupling.  Both coupling searches start Newton
on the three-term recurrence from those closed-form pairs, with no
eigensolve and no scan, and accept the folds only when one dense solve of
the real count around each of them certifies them; a scan of the count and
halving of its brackets is the fallback, which also catches families whose
pairs merge otherwise.

Every dense solve along the coupling axis (sweeps, certificates, scans and
halving) goes through ``_spectra_along``, which hands LAPACK one real
N/2 x N/2 matrix per coupling: the product of the two blocks that join even
to odd sites in the real PT form, whose eigenvalues are (eps - 2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .eigensolve import REALITY_RTOL, EigensolverError, eigenvalues
from .lattice import LatticeHamiltonian, _signed_power

#: number of uniform samples in the initial exceptional-point scan
EP_SCAN_SAMPLES = 512

#: smallest tolerance of both coupling searches: within ~1e-13 of an EP the
#: real count no longer certifies the side, so a finer one raises at entry
MIN_BRACKET = 1e-13

#: longest lam step of fold Newton from a level pair, as a fraction of the
#: pair's spacing where Newton starts: a longer step could reach another pair
FOLD_STEP = 0.25

#: bytes of one stack of float64 N/2 x N/2 block products per LAPACK call
#: in coupling scans; a single block larger than this is solved on its own
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
    Q = (I + iP)/sqrt(2) gives Q^dag H Q = T = A - BP: a real matrix with the
    eigenvalues and 2-norm of H.  Every nonzero of T - 2 joins an even site
    to an odd one (k to k -+ 1, and k to N-1-k, whose sum N-1 is odd), so
    over (even, odd) sites T - 2 = [[0, X], [Y, 0]] and the eigenvalues of H
    are 2 -+ sqrt(mu) for the N/2 eigenvalues mu of the real matrix XY (a
    real mu > 0 gives two eigenvalues whose imaginary part is exactly 0).
    X and Y are divided by 2^(e-1), e the binary exponent of 1 + max|a s|,
    so that XY cannot overflow, and sqrt(mu) is multiplied back: a power of
    two scales without rounding, and it is 1 wherever max|a s| < 1.
    Eigenvalues are classified as in ``eigensolve.eigenvalues``, with the
    scale sqrt(|H|_1 |H|_inf), which for this complex-symmetric H is its
    largest absolute row sum.
    """
    s = _signed_power(n_points, exponent)
    with np.errstate(over="ignore"):  # an overflowing entry is rejected just below
        im_diag = np.atleast_1d(np.asarray(couplings, dtype=float))[:, None] * s
    if not np.all(np.isfinite(im_diag)):
        raise ValueError("matrix has non-finite entries")
    half = n_points // 2
    pow2 = np.exp2(np.frexp(1.0 + np.abs(im_diag).max(axis=1))[1] - 1.0)[:, None]
    weights = im_diag / pow2
    # -1 joins even site 2i to odd sites 2i -+ 1 (X) and odd 2i+1 to even 2i, 2i+2 (Y)
    x_hops = -np.eye(half) - np.eye(half, k=-1)
    rows, flip = np.arange(half), np.arange(half)[::-1]
    chunk = max(1, STACK_BYTES // x_hops.nbytes)
    roots = np.empty((len(im_diag), half), dtype=complex)
    for start in range(0, len(im_diag), chunk):
        part, p2 = weights[start:start + chunk], pow2[start:start + chunk]
        x, y = x_hops / p2[:, :, None], x_hops.T / p2[:, :, None]
        x[:, rows, flip] -= part[:, 0::2]
        y[:, rows, flip] -= part[:, 1::2]
        try:
            mu = np.linalg.eigvals(x @ y)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
        roots[start:start + chunk] = np.sqrt(mu.astype(complex)) * p2
    vals = np.concatenate([2.0 - roots, 2.0 + roots], axis=1)
    vals = np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), axis=-1)
    off_diag = np.full(n_points, 2.0)
    off_diag[[0, -1]] = 1.0
    scale = (np.hypot(2.0, im_diag) + off_diag).max(axis=1)
    tol = REALITY_RTOL * np.maximum(1.0, scale)
    return vals, np.count_nonzero(np.abs(vals.imag) <= tol[:, None], axis=1)


def _fold_terms(n_points: int, exponent: float, a, lam):
    """p, dp/dlam, d2p/dlam2, dp/da and d2p/dlam da of p(lam, a) = det(H(a) - lam)
    at arrays of couplings a and levels lam of one shape.

    The continuant recurrence p_k = (d_k - lam) p_{k-1} - p_{k-2}, differentiated
    term by term, costs O(N) array steps and no eigensolve.  PT symmetry makes
    all five real for real (lam, a).  The continuants grow like 4^N, so every
    8 sites they are divided by one positive factor per point: the returned
    values carry that factor, which the fold equations p = dp/dlam = 0 and
    their Newton step do not see.
    """
    s = 1j * _signed_power(n_points, exponent)
    a, lam = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(lam, dtype=float))
    diag = (2.0 - lam) + np.multiply.outer(s, a)  # d_k - lam, one row per site
    zero = np.zeros(a.shape, dtype=complex)
    prev, cur = [zero] * 5, [zero + 1.0] + [zero] * 4
    for k, (e, u) in enumerate(zip(diag, s)):
        p, pl, pll, pa, pla = cur
        step = (e * p, e * pl - p, e * pll - 2.0 * pl, e * pa + u * p, e * pla + u * pl - pa)
        prev, cur = cur, [x - y for x, y in zip(step, prev)]
        if k % 8 == 7:
            # never 0: p_k = p_{k-1} = 0 would force p_0 = 0
            scale = np.abs(cur[0]) + np.abs(prev[0])
            prev, cur = [x / scale for x in prev], [x / scale for x in cur]
    return tuple(x.real for x in cur)


def _fold_newton(n_points: int, exponent: float, a, lam, max_step) -> np.ndarray:
    """Couplings of the folds p = dp/dlam = 0, where a real pair merges,
    reached by Newton in (t = a^2, lam) from couplings a > 0 and levels lam;
    no lam step is longer than ``max_step``.

    p is even in a, so smooth in t; with dp/dlam = 0 held, the t step is a
    Newton step on the squared pair gap, which is near-linear in t.  A seed
    that fails ends as NaN or at another fold: callers certify every result
    by the dense real count.
    """
    t, lam = np.square(np.asarray(a, dtype=float)), np.asarray(lam, dtype=float)
    with np.errstate(all="ignore"):  # a diverging seed turns NaN, which is rejected later
        for _ in range(30):
            a = np.sqrt(t)
            p, pl, pll, pa, pla = _fold_terms(n_points, exponent, a, lam)
            pt, plt = pa / (2.0 * a), pla / (2.0 * a)
            det = pt * pll - pl * plt
            dt = (pl * pl - p * pll) / det
            lam = lam + np.clip((p * plt - pl * pt) / det, -max_step, max_step)
            t = np.where(t + dt > 0, t + dt, 0.25 * t)
            # convergence is quadratic: a step below 1e-12 leaves only rounding
            if np.all(np.abs(dt) <= 1e-12 * t):
                break
    return np.sqrt(t)


def _pair_seeds(n_points: int, exponent: float, pairs):
    """Start couplings, levels and lam step limits of fold Newton on the
    level pairs (2m, 2m+1), m in ``pairs``, counted from the bottom.

    At a = 0 the levels are 2 - 2 cos(k pi/(N+1)), k = 1..N.  Pair m
    (k = 2m+1, 2m+2) starts from their midpoint just above a = 0, where the
    t step is still defined, and no lam step exceeds ``FOLD_STEP`` times
    their spacing.
    """
    k = 2.0 * np.asarray(pairs, dtype=float) + 1.0
    lower, upper = 2.0 - 2.0 * np.cos(np.array([k, k + 1.0]) * np.pi / (n_points + 1))
    start = 1e-3 * (upper - lower) / np.abs(_signed_power(n_points, exponent)).max()
    return start, 0.5 * (lower + upper), FOLD_STEP * (upper - lower)


def critical_coupling(
    n_points: int, exponent: float = -1.0, tolerance: float = 1e-8
) -> float:
    """Edge alpha(N) of the reality interval, returned within ``tolerance``
    (finite and at least ``MIN_BRACKET``) below it.

    Fold Newton follows the ground pair (levels 0 and 1, ``_pair_seeds``)
    from its a = 0 values to the coupling where it merges, and returns
    r = fold - tolerance/2 (not below 0) once one dense solve of r and
    r + tolerance certifies n_real(r) = N > n_real(r + tolerance).  If the
    certificate fails, a 65-point scan of n_real over [0, 2b] takes over,
    b = sqrt(2(N-1))/|s| for the site weights s: tr H = 2N and tr H^2 =
    6N - 2 - a^2 |s|^2, so by Cauchy-Schwarz alpha <= b (equal at N = 2)
    and some |Im eps| >= sqrt(3) at 2b.  The scan must start fully real and
    never rise, or it raises with the offending subinterval, and the first
    scan cell where the count falls is halved down to ``tolerance``; its
    lower (certified fully-real) edge is returned.
    """
    _check_tolerance(tolerance)
    n = n_points
    fold = float(_fold_newton(n, exponent, *_pair_seeds(n, exponent, 0)))
    if np.isfinite(fold):
        r = max(fold - 0.5 * tolerance, 0.0)
        counts = _spectra_along(n, exponent, [r, r + tolerance])[1]
        if counts[0] == n > counts[1]:
            return r

    # [0, 2b] as in the docstring; |s| = max|s| |s/max|s|| cannot overflow
    s = _signed_power(n, exponent)
    peak = np.abs(s).max()
    grid = np.linspace(0.0, 2.0 * np.sqrt(2.0 * (n - 1)) / peak / np.linalg.norm(s / peak), 65)
    counts = _spectra_along(n, exponent, grid)[1]
    what = "fully-real predicate is not monotone on the scan grid"
    if counts[0] != n:
        raise RuntimeError(f"{what}: n_real = {counts[0]} at a = 0")
    try:
        lo, hi, _, _ = _drops(grid, counts)
    except RuntimeError as exc:
        raise RuntimeError(f"{what}: {exc}") from None
    # with c_hi = N - 2 ("some pair has merged") exactly one half stays per round
    lo, _, _, _ = _refine(n, exponent, lo[:1], hi[:1], np.array([n]), np.array([n - 2]), tolerance)
    return lo[0]


def _check_tolerance(tolerance) -> None:
    if not MIN_BRACKET <= tolerance < np.inf:
        raise ValueError(
            f"tolerance must be finite, positive and >= {MIN_BRACKET}, got {tolerance}"
        )


def _drops(edges: np.ndarray, counts: np.ndarray):
    # (lo, hi, count at lo, count at hi) of every subinterval of edges over
    # which n_real falls; a rise anywhere is an error
    lo, hi, c_lo, c_hi = edges[:-1], edges[1:], counts[:-1], counts[1:]
    rising = np.flatnonzero(c_hi > c_lo)
    if rising.size:
        k = rising[0]
        raise RuntimeError(f"n_real increased on [{lo[k]}, {hi[k]}]; non-monotone count")
    fall = c_hi < c_lo
    return lo[fall], hi[fall], c_lo[fall], c_hi[fall]


def _refine(n_points, exponent, lo, hi, c_lo, c_hi, tolerance):
    """Halve every bracket [lo, hi] over which n_real falls from c_lo to c_hi
    down to ``tolerance``, all midpoints in one engine call per round, and
    keep each half over which the count falls (two mergers split in two).
    A midpoint count outside [c_hi, c_lo] (the verdict flickers within
    ~1e-15 of an EP) is clamped into it, so the scan fixes each drop; one
    at the float spacing but wider than ``tolerance`` raises."""
    while True:
        wide = hi - lo > tolerance
        if not wide.any():
            return lo, hi, c_lo, c_hi
        a, b, c_a, c_b = lo[wide], hi[wide], c_lo[wide], c_hi[wide]
        mid = 0.5 * (a + b)
        stuck = (mid == a) | (mid == b)
        if stuck.any():
            k = np.flatnonzero(stuck)[0]
            raise ValueError(
                f"tolerance {tolerance} is below the float spacing at a = {a[k]}; "
                f"bracket [{a[k]}, {b[k]}] cannot shrink"
            )
        c_mid = np.clip(_spectra_along(n_points, exponent, mid)[1], c_b, c_a)
        left, right, done = c_mid < c_a, c_b < c_mid, ~wide
        lo = np.concatenate([lo[done], a[left], mid[right]])
        hi = np.concatenate([hi[done], mid[left], b[right]])
        c_lo = np.concatenate([c_lo[done], c_a[left], c_mid[right]])
        c_hi = np.concatenate([c_hi[done], c_mid[left], c_b[right]])


def _certified_folds(n_points, exponent, rows, lo, hi, c_lo, c_hi, tolerance):
    """Which brackets [lo, hi], over which n_real falls from c_lo to c_hi,
    are certified, and the folds found in them; ``rows`` are the eigenvalues
    at lo.

    Fold Newton starts from the (c_lo - c_hi)/2 closest adjacent real pairs
    at lo, all brackets in one batch, no lam step longer than ``FOLD_STEP``
    times the pair's spacing there.  A bracket is certified when its folds
    lie in it within ``tolerance`` of each other and one dense solve of all
    brackets counts c_lo at the lowest fold - tolerance and c_hi at the
    highest fold + tolerance.
    """
    # the real form gives real eigenvalues an imaginary part of exactly 0
    real = rows.imag == 0
    gap = np.where(real[:, 1:] & real[:, :-1], np.diff(rows.real, axis=1), np.inf)
    b, rank = np.nonzero(np.arange(gap.shape[1]) < ((c_lo - c_hi) // 2)[:, None])
    j = np.argsort(gap, axis=1)[b, rank]
    seed = 0.5 * (rows[b, j] + rows[b, j + 1]).real
    folds = _fold_newton(n_points, exponent, 0.5 * (lo + hi)[b], seed, FOLD_STEP * gap[b, j])
    folds[~np.isfinite(folds)] = -1.0  # a failed seed lands below every bracket
    first, last = np.full(lo.size, np.inf), np.full(lo.size, -np.inf)
    np.minimum.at(first, b, folds)
    np.maximum.at(last, b, folds)
    ok = np.flatnonzero((lo <= first) & (first <= last) & (last <= hi) & (last - first <= tolerance))
    if ok.size:
        edges = np.concatenate([first[ok] - tolerance, last[ok] + tolerance])
        counts = _spectra_along(n_points, exponent, edges)[1]
        ok = ok[(counts[:ok.size] == c_lo[ok]) & (counts[ok.size:] == c_hi[ok])]
    certified = np.zeros(lo.size, dtype=bool)
    certified[ok] = True
    return certified, folds[certified[b]]


def _seeded_folds(n_points, exponent, a_max, tolerance):
    """Exceptional points in [0, a_max] from fold Newton on the lower-half
    level pairs m = 0 .. ceil(N/4) - 1, all in one batch, or None when one
    dense solve does not certify them.

    Pair m and its mirror (N-2-2m, N-1-2m) merge at one coupling (the chiral
    symmetry S H S^-1 = 4 - H), so each fold counts twice, except the middle
    pair's when N/2 is odd.  The list is certified when every fold is finite
    and n_real, at each fold inside [0, a_max] -+ ``tolerance`` and at a_max,
    equals N - 2 (pairs merged at folds below that point).  If n_real never
    rises (as the scan also assumes between its samples), each fold's pairs
    then merge within ``tolerance`` of it and no others merge below a_max;
    two seeds that end on one fold fail the count.
    """
    n = n_points
    pairs = np.arange((n + 3) // 4)
    folds = _fold_newton(n, exponent, *_pair_seeds(n, exponent, pairs))
    if not np.all(np.isfinite(folds)):
        return None
    order = np.argsort(folds)
    inside = order[folds[order] < a_max]
    folds, mult = folds[inside], np.where(4 * pairs == n - 2, 1, 2)[inside]
    left = n - 2 * np.concatenate([[0], np.cumsum(mult)])
    edges = np.concatenate([folds - tolerance, folds + tolerance, [a_max]])
    counts = _spectra_along(n, exponent, edges)[1]
    if np.array_equal(counts, np.concatenate([left[:-1], left[1:], left[-1:]])):
        return np.repeat(folds, mult).tolist()
    return None


def exceptional_points(
    n_points: int,
    exponent: float = -1.0,
    a_max: float = 3.0,
    tolerance: float = 1e-6,
) -> List[float]:
    """Couplings where pairs of real eigenvalues merge and complexify.

    Fold Newton starts from every lower-half level pair at a = 0, and one
    dense solve certifies the folds: n_real at each fold -+ ``tolerance``
    (at least ``MIN_BRACKET``) and at a_max must step down from N by 2 per
    merged pair, under the assumption that n_real never rises (see
    ``_seeded_folds``).  Only when that fails does the scan run: every drop
    of an upward scan of n_real over [0, a_max] is a bracket, and a rise
    raises.  In a bracket where the count falls by 2k, fold Newton starts
    from the k closest real pairs at its lower edge, and one dense solve of
    all brackets certifies the folds (see ``_certified_folds``).  A bracket
    that fails is halved down to ``tolerance`` instead and reported at its
    midpoint; one whose count falls in both halves splits in two.  A drop
    of 2k at one coupling (the up-down-mirrored simultaneous merger) is
    reported as k coincident exceptional points: one per complexified pair.

    a_max must be finite and positive, and ``tolerance`` finite and at least
    ``MIN_BRACKET``; otherwise ValueError is raised before any solve.
    """
    if not 0 < a_max < np.inf:
        raise ValueError(f"a_max must be finite and positive, got {a_max}")
    _check_tolerance(tolerance)
    found = _seeded_folds(n_points, exponent, a_max, tolerance)
    if found is not None:
        return found
    grid = np.linspace(0.0, a_max, EP_SCAN_SAMPLES + 1)
    vals, counts = _spectra_along(n_points, exponent, grid)
    lo, hi, c_lo, c_hi = _drops(grid, counts)
    rows = vals[np.searchsorted(grid, lo)]
    done, found = _certified_folds(n_points, exponent, rows, lo, hi, c_lo, c_hi, tolerance)
    lo, hi, c_lo, c_hi = lo[~done], hi[~done], c_lo[~done], c_hi[~done]
    lo, hi, c_lo, c_hi = _refine(n_points, exponent, lo, hi, c_lo, c_hi, tolerance)
    return sorted(np.concatenate([found, np.repeat(0.5 * (lo + hi), (c_lo - c_hi) // 2)]).tolist())


def sweep(
    n_points: int,
    exponent: float,
    a_min: float,
    a_max: float,
    steps: int,
) -> SweepTable:
    """Eigenvalue loci on a uniform coupling grid, continuity-ordered.

    Greedy nearest-neighbor matching between consecutive rows keeps each
    column on one locus; adequate away from exceptional points.  Needs
    steps >= 2 and a_min < a_max with a finite span a_max - a_min, or raises
    ValueError before any solve.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (a_min < a_max and np.isfinite(float(a_max) - float(a_min))):
        raise ValueError(f"need a_min < a_max with a finite span, got [{a_min}, {a_max}]")
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
    with np.errstate(over="ignore"):  # a distance past the float range is never nearest
        dist = np.abs(vals[None, :] - ref[:, None])
    # nearest picks that are all distinct are what the loop picks: hiding
    # other columns cannot move a row's first minimum (argmin also takes the
    # first NaN as the minimum, as the loop does)
    picks = dist.argmin(axis=1)
    if np.unique(picks).size == picks.size:
        return picks
    picks = np.empty(len(ref), dtype=int)
    for j, row in enumerate(dist):
        picks[j] = np.argmin(row)
        dist[:, picks[j]] = np.inf
    return picks
