"""Hermitizing metrics, charges, and admissible observables.

A non-Hermitian H with real spectrum becomes Hermitian in the inner product
(psi, phi)_S = psi^dag Theta phi once Theta solves the intertwining
(Dieudonne) equation H^dag Theta = Theta H with Theta Hermitian and
positive definite.  This module assembles such metrics two ways: from the
biorthogonal eigensystem (the all-metrics kappa formula) and from the
closed-form N=2 and N=4 families, together with the positivity, band-width,
and residual diagnostics that validate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .eigensolve import EigenSystem, _norm_bound
from .lattice import _as_matrix


#: largest N of the O(N^6) Kronecker SVD, whose N^2 x N^2 map is then <= 16 MiB
KRONECKER_MAX_DIM = 32


class ComplexSpectrumError(RuntimeError):
    """No positive metric exists once the spectrum has complex pairs."""


@dataclass(frozen=True)
class MetricCandidate:
    """Hermitian matrix tagged with how it was built."""

    matrix: np.ndarray
    provenance: str = "external"


@dataclass(frozen=True)
class KappaWeights:
    """Strictly positive finite weights |kappa_n|^2 of the all-metrics formula;
    zero, negative, NaN or infinite weights raise ValueError."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all((w > 0) & (w < np.inf)):
            raise ValueError("kappa weights must be a 1D array of positive reals")
        object.__setattr__(self, "weights", w)

    @classmethod
    def ones(cls, n: int) -> "KappaWeights":
        return cls(np.ones(n))


@dataclass(frozen=True)
class ObservableCandidate:
    """2x2 crypto-Hermitian observable with its free parameters."""

    matrix: np.ndarray
    parameters: Tuple[float, float, float, float]


def dieudonne_residual(h, theta) -> float:
    """Frobenius norm of H^dag Theta - Theta H, normalized by |H| |Theta|."""
    hm = _as_matrix(h)
    tm = _as_matrix(theta)
    if hm.shape != tm.shape:
        raise ValueError(f"shape mismatch: H {hm.shape} vs Theta {tm.shape}")
    num = np.linalg.norm(hm.conj().T @ tm - tm @ hm)
    den = np.linalg.norm(hm) * np.linalg.norm(tm)
    return float(num / den) if den > 0 else float(num)


def metric_from_biorthogonal(
    system: EigenSystem, weights: Optional[KappaWeights] = None
) -> MetricCandidate:
    """All-metrics formula Theta = sum_n |psi_n>> w_n <<psi_n|.

    Requires an entirely real spectrum; with complex conjugate pairs the
    formula cannot produce a positive Hermitian solution.
    """
    spec = system.spectrum
    if not spec.fully_real:
        raise ComplexSpectrumError(
            "no positive metric exists for a complex spectrum "
            f"({len(spec.eigenvalues) - spec.n_real} complex eigenvalues)"
        )
    n = system.left_vectors.shape[1]
    if weights is None:
        weights = KappaWeights.ones(n)
    if len(weights.weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights.weights)}")
    vl = system.left_vectors
    theta = (vl * weights.weights) @ vl.conj().T
    return MetricCandidate(matrix=theta, provenance="biorthogonal-kappa")


def _finite(**params) -> Tuple[float, ...]:
    """The keyword values as floats, in order; a non-finite one raises ValueError."""
    for name, v in params.items():
        if not np.isfinite(float(v)):
            raise ValueError(f"{name} must be finite, got {v}")
    return tuple(float(v) for v in params.values())


def is_positive(theta) -> Tuple[bool, float]:
    """Positive-definiteness verdict plus the smallest Hermitian eigenvalue."""
    m = _as_matrix(theta)
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    smallest = float(np.linalg.eigvalsh(m)[0])
    return smallest > 0.0, smallest


def n2_metric(k_scale: float, m_shape: float, coupling: float) -> MetricCandidate:
    """Two-parametric N=2 metric family [[k, km-ika], [km+ika, k]]; every
    parameter must be finite."""
    k, m, a = _finite(k_scale=k_scale, m_shape=m_shape, coupling=coupling)
    mat = np.array([[k, k * m - 1j * k * a], [k * m + 1j * k * a, k]], dtype=complex)
    return MetricCandidate(matrix=mat, provenance=f"n2_family(k={k}, m={m})")


def n2_metric_angles(k_scale: float, beta: float, gamma: float) -> MetricCandidate:
    """Angle form k*[[1, e^{-ig} cos b], [e^{ig} cos b, 1]] of the N=2 family.

    Equals n2_metric(k, cos(b)cos(g), cos(b)sin(g)).  Needs a finite k > 0.
    """
    (k,) = _finite(k_scale=k_scale)
    if k <= 0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    if not (0 < beta < np.pi) or not (0 < gamma < np.pi):
        raise ValueError(f"beta and gamma must lie in (0, pi), got {beta}, {gamma}")
    off = np.exp(-1j * gamma) * np.cos(beta)
    mat = k * np.array([[1.0, off], [np.conj(off), 1.0]], dtype=complex)
    return MetricCandidate(matrix=mat, provenance=f"n2_family(angles b={beta}, g={gamma})")


def cpt_charge_n2(coupling: float) -> Tuple[np.ndarray, float]:
    """Charge C = k*[[-ia, 1], [1, ia]] with k fixed by C^2 = I.

    Only defined inside the reality interval |a| < 1; Theta = C P is then
    the unique CPT metric.
    """
    (a,) = _finite(coupling=coupling)
    if abs(a) >= 1:
        raise ValueError(f"no real-spectrum CPT frame for |a| >= 1 (a = {a})")
    k = 1.0 / np.sqrt(1.0 - a * a)
    c = k * np.array([[-1j * a, 1.0], [1.0, 1j * a]], dtype=complex)
    return c, k


def n2_observable(
    d_diag: float,
    b_im: float,
    c_im: float,
    g_im: float,
    coupling: float,
    m_shape: float = 0.0,
) -> ObservableCandidate:
    """Admissible 2x2 observable for the metric with shape parameter m.

    Lambda = (1/a) [[Da - b - c + iga, g - bm + iba],
                    [g + cm + ica,     Da - iga    ]].
    Crypto-Hermitian against n2_metric(k, m, a) for any k > 0.  Every
    parameter must be finite, and since the parametrization divides by the
    coupling, a = 0 is rejected.
    """
    d, b, c, g, a, m = _finite(
        d_diag=d_diag, b_im=b_im, c_im=c_im, g_im=g_im, coupling=coupling, m_shape=m_shape
    )
    if a == 0.0:
        raise ValueError("observable parametrization is singular at coupling a = 0")
    mat = (1.0 / a) * np.array(
        [
            [d * a - b - c + 1j * g * a, g - b * m + 1j * b * a],
            [g + c * m + 1j * c * a, d * a - 1j * g * a],
        ],
        dtype=complex,
    )
    return ObservableCandidate(matrix=mat, parameters=(d, b, c, g))


def n4_metric_ansatz(
    k_scale: float,
    m_shape: float,
    r_inner: float,
    eta_corner: float,
    coupling: float,
    exponent: float = -1.0,
) -> MetricCandidate:
    """Four-parameter closed-form metric for the N=4 Hamiltonian.

    With w = 3^z * a the Hermitian matrix

        [[k,      m-ikw,        W*,           Z*   ],
         [m+ikw,  r,            eta-i(kw+ra), W*   ],
         [W,      eta+i(kw+ra), r,            m-ikw],
         [Z,      W,            m+ikw,        k    ]]

    solves the Dieudonne equation for every finite (k, m, r, eta).
    """
    k, m, r, eta, a, z = _finite(
        k_scale=k_scale, m_shape=m_shape, r_inner=r_inner, eta_corner=eta_corner,
        coupling=coupling, exponent=exponent,
    )
    w = 3.0**z * a
    big_w = -(w * w) * k + r - k - k * w * a + 1j * (w * m + m * a)
    big_z = (
        m * a * a
        - w * w * m
        - m
        + eta
        - 1j * (k * w - k * a - k * w * a * a - r * w + w**3 * k)
    )
    inner = eta - 1j * (k * w + r * a)
    mat = np.array(
        [
            [k, m - 1j * k * w, np.conj(big_w), np.conj(big_z)],
            [m + 1j * k * w, r, inner, np.conj(big_w)],
            [big_w, np.conj(inner), r, m - 1j * k * w],
            [big_z, big_w, m + 1j * k * w, k],
        ],
        dtype=complex,
    )
    return MetricCandidate(
        matrix=mat, provenance=f"n4_ansatz(k={k}, m={m}, r={r}, eta={eta})"
    )


def n4_metric_eigenvalues(coupling: float, exponent: float = -1.0) -> np.ndarray:
    """Closed-form eigenvalues of the (k,m,r,eta) = (1,0,1,0) N=4 metric.

    theta_+- = 1 +- (w - a^2 w + w^3)/2 +- sqrt(Delta_+-)/2 with the printed
    sextic discriminants Delta_+-; returned sorted ascending.  a and z
    must be finite.
    """
    a, z = _finite(coupling=coupling, exponent=exponent)
    w = 3.0**z * a
    shift = 0.5 * (w - a * a * w + w**3)

    def disc(sign: float) -> float:
        return (
            w**6
            + (2 - 2 * a * a) * w**4
            + (sign * 8 + 4 * a) * w**3
            + (5 + sign * 8 * a + 6 * a * a + a**4) * w * w
            + (4 * a + 4 * a**3) * w
            + 4 * a * a
        )

    vals = np.array(
        [
            1 + shift + 0.5 * np.sqrt(disc(+1)),
            1 + shift - 0.5 * np.sqrt(disc(+1)),
            1 - shift + 0.5 * np.sqrt(disc(-1)),
            1 - shift - 0.5 * np.sqrt(disc(-1)),
        ]
    )
    return np.sort(vals)


def band_width(theta, tolerance: float = 1e-12) -> int:
    """Smallest band width theta with |Theta_mn| negligible for |m-n| > theta."""
    m = np.abs(_as_matrix(theta))
    i, j = np.nonzero(m > tolerance * np.max(m))
    return int(np.max(np.abs(i - j), initial=0))


def s_inner_product(psi: np.ndarray, phi: np.ndarray, theta) -> complex:
    """Physical inner product (psi, phi)_S = sum_jk psi*_j Theta_jk phi_k."""
    m = _as_matrix(theta)
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.shape != (m.shape[0],) or phi.shape != (m.shape[1],):
        raise ValueError(
            f"vector shapes {psi.shape}, {phi.shape} do not match metric {m.shape}"
        )
    return complex(psi.conj() @ m @ phi)


def dieudonne_solution_dimension(h, rank_tolerance: float = 1e-10) -> int:
    """Real dimension of the Hermitian solution space of H^dag X = X H.

    The complex solution space is closed under X -> X^dag, so its complex
    dimension equals the real dimension of its Hermitian part.
    ``rank_tolerance`` must lie in (0, 1).

    Structural path.  The equation is blind to a real shift of H, so let
    s = sqrt(|H'|_1 |H'|_inf) with H' = H - cI, c the mean real diagonal.
    For tridiagonal H whose off-diagonal entries all exceed
    rank_tolerance * s in modulus, row i of H^dag X = X H fixes row i+1:

        X_{i+1} = (X_i H - conj(H_ii) X_i - conj(H_{i-1,i}) X_{i-1})
                  / conj(H_{i+1,i}),

    so the first row determines X and there are at most N solutions.  The
    recursion runs for all N unit first rows at once, N steps on (N, N)
    blocks (O(N^3) time, O(N^2) memory), and the same formula at i = N-1
    gives the residual rows R_b of the N candidates X_b, which vanish for
    exact solutions.  If |R|_F <= rank_tolerance * s, the candidates span
    N independent solutions to tolerance: their first rows are the unit
    vectors, so |M x| <= |R|_F |x| on their span for the Kronecker map M
    below, and M has N singular values at or below rank_tolerance * s.
    The dimension is then N.  This is the case for a PT-symmetric chain
    such as the Coulomb lattice at any coupling of moderate size:
    H^dag = P H P, so the solutions are P times the commutant of H, which
    has dimension N because such an H is nonderogatory.

    Fallback.  Any other input, or one whose certificate fails (no PT
    symmetry, an off-diagonal entry at the tolerance, or a coupling so far
    outside the reality interval that the rows grow by many orders), is
    counted by the nullity of the N^2 x N^2 map
    M = kron(I, H^dag) - kron(H^T, I): its singular values at or below
    rank_tolerance times the largest one, in O(N^6), for N up to
    ``KRONECKER_MAX_DIM``; a larger N raises ValueError.
    """
    if not 0.0 < rank_tolerance < 1.0:
        raise ValueError(f"rank_tolerance must lie in (0, 1), got {rank_tolerance}")
    hm = _as_matrix(h)
    if _recursion_certifies(hm, rank_tolerance):
        return hm.shape[0]
    return _kronecker_nullity(hm, rank_tolerance)


def _recursion_certifies(hm: np.ndarray, rank_tolerance: float) -> bool:
    # True iff hm is tridiagonal with off-diagonals above the tolerance and
    # the N solutions grown from the unit first rows pass the residual row
    n = hm.shape[0]
    d, lower, upper = np.diag(hm), np.diag(hm, -1), np.diag(hm, 1)
    band = np.count_nonzero(d) + np.count_nonzero(lower) + np.count_nonzero(upper)
    if n == 0 or np.count_nonzero(hm) != band:
        return False
    # the equation is blind to a real shift and a positive scale of H, so the
    # recursion runs on H / s, which keeps |R|_F clear of underflow
    scale = _norm_bound(hm - np.mean(d.real) * np.eye(n))
    # an off-diagonal entry at the rank tolerance makes H reducible to it
    if np.abs(np.concatenate((lower, upper))).min(initial=np.inf) <= rank_tolerance * scale:
        return False
    if scale == 0:
        return True  # a real 1x1 H, which every X solves
    # rows that grow past overflow (or a subnormal s) give inf/nan, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _dieudonne_rows(d / scale, lower / scale, upper / scale):
            pass
        return bool(np.linalg.norm(rows) <= rank_tolerance)


def _dieudonne_rows(d, lower, upper):
    # row blocks X_0 .. X_{N-1} of the N candidate solutions of
    # H^dag X = X H with unit first rows (block i holds row i of every
    # candidate, candidate b on row b), then the residual row block R;
    # H is tridiagonal with diagonal d and nonzero off-diagonals lower, upper
    n = len(d)
    dc, lc, uc = d.conj(), lower.conj(), upper.conj()
    prev, cur = None, np.eye(n, dtype=complex)
    for i in range(n):
        yield cur
        nxt = cur * (d - dc[i])
        nxt[:, 1:] += cur[:, :-1] * upper
        nxt[:, :-1] += cur[:, 1:] * lower
        if i:
            nxt -= uc[i - 1] * prev
        if i < n - 1:
            nxt /= lc[i]
        prev, cur = cur, nxt
    yield cur


def _kronecker_nullity(hm: np.ndarray, rank_tolerance: float) -> int:
    # nullity of the vectorized map kron(I, H^dag) - kron(H^T, I) by SVD
    n = hm.shape[0]
    if n > KRONECKER_MAX_DIM:
        raise ValueError(f"no row-recursion certificate, and the Kronecker fallback "
                         f"supports N <= {KRONECKER_MAX_DIM}, got {n}")
    eye = np.eye(n)
    mat = np.kron(eye, hm.conj().T) - np.kron(hm.T, eye)
    s = np.linalg.svd(mat, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > rank_tolerance * scale))
    return n * n - rank
