"""Dense non-Hermitian eigen-decomposition with biorthogonal left/right pairs.

Eigenvalues come from LAPACK's backward-stable QR iteration (numpy.linalg);
the characteristic polynomial is produced by the independent
Faddeev-LeVerrier recursion so that the secular-equation checks never share
a code path with the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import _as_matrix

#: default relative tolerance for classifying an eigenvalue as real; it is
#: scaled by max(1, sqrt(|H|_1 |H|_inf)), an SVD-free bound on |H|_2 that equals
#: the largest absolute row sum for the (complex-symmetric) Coulomb matrices
REALITY_RTOL = 1e-9

#: relative minimum eigenvalue gap below which left/right pairing is refused
DEGENERACY_RTOL = 1e-8

#: Faddeev-LeVerrier exactness degrades beyond this dimension
CHARPOLY_MAX_DIM = 32


class EigensolverError(RuntimeError):
    """QR iteration failed to converge."""


class DegenerateSpectrumError(RuntimeError):
    """Spectrum too close to an exceptional point for biorthogonal pairing."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (Re, Im) with a reality flag per value."""

    eigenvalues: np.ndarray
    real_flags: np.ndarray
    classification_tolerance: float

    @property
    def n_real(self) -> int:
        return int(np.count_nonzero(self.real_flags))

    @property
    def fully_real(self) -> bool:
        return bool(np.all(self.real_flags))


@dataclass(frozen=True)
class EigenSystem:
    """Right/left eigenvector pairs normalized to <<psi_n|psi_n> = 1.

    Column n of ``right_vectors`` solves H psi = eps_n psi; column n of
    ``left_vectors`` solves H^dag psi~ = conj(eps_n) psi~, scaled so that
    left_vectors^dag @ right_vectors = I.
    """

    spectrum: Spectrum
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    normalization: str = "biorthonormal"


def _norm_bound(m: np.ndarray) -> float:
    """sqrt(|H|_1) sqrt(|H|_inf), a bound on |H|_2, at most the largest float.

    The sums run on |H| scaled by 4^-k, which brings max|H_ij| near 1, and the
    bound is scaled back by 4^k: powers of two are exact, so the bound is the
    unscaled formula's wherever that one is finite."""
    if not m.size:
        return 0.0
    a = np.abs(m)
    k = np.frexp(a.max())[1] // 2
    a = np.ldexp(a, -2 * k)
    bound = np.sqrt(a.sum(axis=0).max()) * np.sqrt(a.sum(axis=1).max())
    with np.errstate(over="ignore"):
        return float(min(np.ldexp(bound, 2 * k), np.finfo(float).max))


def _classify(vals: np.ndarray, scale: float, tolerance: Optional[float]):
    if tolerance is None:
        tolerance = REALITY_RTOL * max(1.0, scale)
    elif not tolerance >= 0:
        raise ValueError(f"classification tolerance must be None or >= 0, got {tolerance}")
    flags = np.abs(vals.imag) <= tolerance
    return flags, tolerance


def eigenvalues(h, classification_tolerance: Optional[float] = None) -> Spectrum:
    """All eigenvalues of a square complex matrix, sorted by (Re, Im)."""
    m = _as_matrix(h)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    flags, tol = _classify(vals, _norm_bound(m), classification_tolerance)
    return Spectrum(eigenvalues=vals, real_flags=flags, classification_tolerance=tol)


def eigensystem(h, classification_tolerance: Optional[float] = None) -> EigenSystem:
    """Paired right and left eigenvectors with biorthonormal scaling.

    Left vectors are obtained from the inverse of the right-eigenvector
    matrix, which enforces biorthonormality exactly up to conditioning.
    Raises DegenerateSpectrumError near eigenvalue coalescence, where the
    right-eigenvector matrix becomes singular.
    """
    m = _as_matrix(h)
    try:
        vals, vr = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals, vr = vals[order], vr[:, order]

    scale = _norm_bound(m)
    with np.errstate(over="ignore"):  # a gap past the float range is never degenerate
        gaps = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(gaps, np.inf)
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, j] < DEGENERACY_RTOL * max(1.0, scale):
        raise DegenerateSpectrumError(
            f"eigenvalues {vals[i]} and {vals[j]} are separated by "
            f"{gaps[i, j]:.3e}; too close to an exceptional point",
            pair=(vals[i], vals[j]),
        )

    try:
        vl = np.linalg.inv(vr).conj().T
    except np.linalg.LinAlgError as exc:
        raise DegenerateSpectrumError(
            "right-eigenvector matrix is singular (exceptional point)"
        ) from exc

    flags, tol = _classify(vals, scale, classification_tolerance)
    spec = Spectrum(eigenvalues=vals, real_flags=flags, classification_tolerance=tol)
    return EigenSystem(spectrum=spec, right_vectors=vr, left_vectors=vl)


def characteristic_polynomial(h) -> np.ndarray:
    """Monic coefficients of det(E*I - H) by Faddeev-LeVerrier.

    Returns [1, c_1, ..., c_N] so that the polynomial is
    E^N + c_1 E^(N-1) + ... + c_N.  Independent of the QR eigensolver.
    """
    m = _as_matrix(h)
    n = m.shape[0]
    if n > CHARPOLY_MAX_DIM:
        raise ValueError(
            f"characteristic_polynomial supports N <= {CHARPOLY_MAX_DIM}, got {n}"
        )
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ aux
        c = -np.trace(mk) / k
        coeffs[k] = c
        aux = mk + c * np.eye(n, dtype=complex)
    return coeffs
