"""Shared test helpers: oracles independent of the library code paths."""

import numpy as np


def multiset_deviation(got, want) -> float:
    """Max distance under greedy nearest matching of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    want = np.asarray(want, dtype=complex)
    assert len(got) == len(want)
    worst = 0.0
    for w in want:
        dist = [abs(g - w) for g in got]
        pick = int(np.argmin(dist))
        worst = max(worst, dist[pick])
        got.pop(pick)
    return worst


def dirichlet_laplacian_eigenvalues(n: int) -> np.ndarray:
    """Closed-form spectrum 2 - 2 cos(j pi / (n+1)) of the free lattice."""
    j = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(j * np.pi / (n + 1))


def brute_force_charpoly(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by cofactor-free determinant expansion.

    Evaluates det(E I - H) at N+1 Chebyshev-like sample points by LU
    factorization and interpolates; independent of Faddeev-LeVerrier.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    pts = 2.0 + 3.0 * np.cos(np.pi * np.arange(n + 1) / n) if n > 0 else np.array([0.0])
    vals = np.array([np.linalg.det(e * np.eye(n) - m) for e in pts])
    coeffs = np.polyfit(pts, vals, n)
    return coeffs / coeffs[0]


def n_real_brute(n: int, a: float, z: float = -1.0, tol: float = 1e-9) -> int:
    """Real-eigenvalue count straight from numpy, bypassing the package."""
    j = np.arange(1, n + 1)
    d = 2.0 + 1j * a * np.sign(2 * j - n - 1) * np.abs(2 * j - n - 1) ** z
    h = np.diag(d) + np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    vals = np.linalg.eigvals(h)
    return int(np.sum(np.abs(vals.imag) <= tol * max(1.0, np.abs(vals).max())))


def trace_bound(n: int, z: float) -> float:
    """b = sqrt(2(N-1))/|s| for the site weights s = sgn(m)|m|^z.

    tr H = 2N and tr H^2 = 6N - 2 - a^2 |s|^2, and a real spectrum needs
    sum eps^2 >= (sum eps)^2/N, so it is fully real only for a <= b.
    """
    m = np.arange(1 - n, n, 2)
    return float(np.sqrt(2.0 * (n - 1)) / np.linalg.norm(np.sign(m) * np.abs(m) ** float(z)))


def n_real_mp(n: int, a: float, z: float, dps: int = 50) -> int:
    """Real-eigenvalue count of the Coulomb matrix from mpmath eigenvalues at
    ``dps`` digits; |Im eps| <= 10^(-dps/2) counts as real."""
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.matrix(n, n)
        for j in range(n):
            m = 2 * j + 1 - n
            h[j, j] = 2 + 1j * mp.mpf(a) * mp.sign(m) * mp.power(abs(m), mp.mpf(z))
            if j:
                h[j, j - 1] = h[j - 1, j] = -1
        vals = mp.eig(h, left=False, right=False)
        return sum(abs(mp.im(v)) <= mp.mpf(10) ** (-dps // 2) for v in vals)


def eigenvalues_mp(n: int, a: float, z: float, dps: int = 30):
    """Eigenvalues of the Coulomb matrix from mpmath at ``dps`` digits, rounded
    to complex doubles, and their real count (|Im eps| <= 10^(-dps/2)).

    They are those of the real matrix A - BP (A = tridiag(-1, 2, -1),
    B = a diag(s), P the flip), unitarily similar to H = A + iB: real mpmath
    arithmetic solves it about 30% faster than H.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t = mp.matrix(n, n)
        for j in range(n):
            t[j, j] = 2
            if j:
                t[j, j - 1] = t[j - 1, j] = -1
        for j in range(n):
            m = 2 * j + 1 - n
            t[j, n - 1 - j] -= mp.mpf(a) * mp.sign(m) * mp.power(abs(m), mp.mpf(z))
        vals = mp.eig(t, left=False, right=False)
        n_real = sum(abs(mp.im(v)) <= mp.mpf(10) ** (-dps // 2) for v in vals)
        return np.array([complex(v) for v in vals]), n_real


def contour_residual_reference(spec, contour, psi) -> float:
    """Max normalized ODE residual from precomputed psi, one sample at a time.

    The per-point form of the stencil: each interior sample is assigned its
    branch (left line, arc, right line, or joint within 1e-12*max(1, joint)),
    and stencils touching a joint or spanning two branches are skipped.
    """
    eps = contour.epsilon
    joint = 0.5 * np.pi * eps

    def branch(s):
        if abs(abs(s) - joint) <= 1e-12 * max(1.0, joint):
            return -1
        return 0 if s < -joint else 2 if s > joint else 1

    svals = [s for s, _ in contour.samples]
    xs = [x for _, x in contour.samples]
    h = svals[1] - svals[0]
    scale = max(abs(p) for p in psi)
    big_l, z, k = spec.angular, spec.z_charge, spec.k_wave
    worst = 0.0
    for i in range(1, len(svals) - 1):
        b = branch(svals[i])
        if b < 0 or b != branch(svals[i - 1]) or b != branch(svals[i + 1]):
            continue
        x = xs[i]
        psi_s = (psi[i + 1] - psi[i - 1]) / (2 * h)
        psi_ss = (psi[i + 1] - 2 * psi[i] + psi[i - 1]) / (h * h)
        if b == 1:
            x_s, x_ss = 1j * x / eps, -x / (eps * eps)
        else:
            x_s, x_ss = (-1j if b == 0 else 1j), 0.0
        psi_x = psi_s / x_s
        psi_xx = (psi_ss - psi_x * x_ss) / (x_s * x_s)
        res = -psi_xx + big_l * (big_l + 1) * psi[i] / (x * x) + 1j * z * psi[i] / x + k * k * psi[i]
        worst = max(worst, abs(res) / scale)
    return worst
