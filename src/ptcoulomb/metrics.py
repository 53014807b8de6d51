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

from .eigensolve import EigenSystem
from .lattice import _as_matrix


class ComplexSpectrumError(RuntimeError):
    """No positive metric exists once the spectrum has complex pairs."""


@dataclass(frozen=True)
class MetricCandidate:
    """Hermitian matrix tagged with how it was built."""

    matrix: np.ndarray
    provenance: str = "external"


@dataclass(frozen=True)
class KappaWeights:
    """Strictly positive weights |kappa_n|^2 of the all-metrics formula."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or np.any(w <= 0):
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


def is_positive(theta) -> Tuple[bool, float]:
    """Positive-definiteness verdict plus the smallest Hermitian eigenvalue."""
    m = _as_matrix(theta)
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    smallest = float(np.linalg.eigvalsh(m)[0])
    return smallest > 0.0, smallest


def n2_metric(k_scale: float, m_shape: float, coupling: float) -> MetricCandidate:
    """Two-parametric N=2 metric family [[k, km-ika], [km+ika, k]]."""
    k, m, a = float(k_scale), float(m_shape), float(coupling)
    mat = np.array([[k, k * m - 1j * k * a], [k * m + 1j * k * a, k]], dtype=complex)
    return MetricCandidate(matrix=mat, provenance=f"n2_family(k={k}, m={m})")


def n2_metric_angles(k_scale: float, beta: float, gamma: float) -> MetricCandidate:
    """Angle form k*[[1, e^{-ig} cos b], [e^{ig} cos b, 1]] of the N=2 family.

    Equals n2_metric(k, cos(b)cos(g), cos(b)sin(g)).
    """
    if k_scale <= 0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    if not (0 < beta < np.pi) or not (0 < gamma < np.pi):
        raise ValueError(f"beta and gamma must lie in (0, pi), got {beta}, {gamma}")
    k = float(k_scale)
    off = np.exp(-1j * gamma) * np.cos(beta)
    mat = k * np.array([[1.0, off], [np.conj(off), 1.0]], dtype=complex)
    return MetricCandidate(matrix=mat, provenance=f"n2_family(angles b={beta}, g={gamma})")


def cpt_charge_n2(coupling: float) -> Tuple[np.ndarray, float]:
    """Charge C = k*[[-ia, 1], [1, ia]] with k fixed by C^2 = I.

    Only defined inside the reality interval |a| < 1; Theta = C P is then
    the unique CPT metric.
    """
    a = float(coupling)
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
    Crypto-Hermitian against n2_metric(k, m, a) for any k > 0.  The
    parametrization divides by the coupling, so a = 0 is rejected.
    """
    a = float(coupling)
    if a == 0.0:
        raise ValueError("observable parametrization is singular at coupling a = 0")
    d, b, c, g, m = map(float, (d_diag, b_im, c_im, g_im, m_shape))
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

    solves the Dieudonne equation for every (k, m, r, eta).
    """
    k, m, r, eta = map(float, (k_scale, m_shape, r_inner, eta_corner))
    a, z = float(coupling), float(exponent)
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
    sextic discriminants Delta_+-; returned sorted ascending.
    """
    a, z = float(coupling), float(exponent)
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
    dimension equals the real dimension of its Hermitian part: the nullity
    of the vectorized map kron(I, H^dag) - kron(H^T, I).
    """
    hm = _as_matrix(h)
    n = hm.shape[0]
    eye = np.eye(n)
    mat = np.kron(eye, hm.conj().T) - np.kron(hm.T, eye)
    s = np.linalg.svd(mat, compute_uv=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > rank_tolerance * scale))
    return n * n - rank
