"""Discretized PT-symmetric Hamiltonians on a symmetric 1D lattice.

The lattice is an equidistant Dirichlet box of even dimension N with nodes
placed symmetrically around (and excluding) the origin,

    x_j = (2j - N - 1) * h / 2,   j = 1..N,   h = 2*Lambda/(N+1),

so the Coulomb-like singularity at x = 0 never sits on a node.  The
resulting matrices are tridiagonal with off-diagonals -1 and diagonal
2 + h^2 V(x_j); for the imaginary power-law potential i*a*sgn(x)|x|^z in
dimensionless form the diagonal reads

    d_j = 2 + i * a * sgn(2j-N-1) * |2j-N-1|^z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Equidistant symmetric grid excluding the origin."""

    n_points: int
    cutoff: float
    spacing: float
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))


@dataclass(frozen=True)
class LatticeHamiltonian:
    """Dense tridiagonal lattice Hamiltonian with its generating parameters."""

    matrix: np.ndarray
    coupling: float
    exponent: float
    grid: Optional[GridSpec] = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ParityMatrix:
    """Anti-diagonal permutation matrix; P^2 = I."""

    matrix: np.ndarray


def build_grid(n_points: int, cutoff: float) -> GridSpec:
    """Build the symmetric zero-free grid for an even number of nodes.

    Odd n_points is rejected: the center node would collide with the
    singularity at x = 0.
    """
    if n_points < 2 or n_points % 2 != 0:
        raise ValueError(
            f"n_points must be even and >= 2, got {n_points} "
            "(odd N would place a node on the x=0 singularity)"
        )
    if not 0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be finite and positive, got {cutoff}")
    h = 2.0 * cutoff / (n_points + 1)
    j = np.arange(1, n_points + 1)
    nodes = (2 * j - n_points - 1) * h / 2.0
    return GridSpec(n_points=n_points, cutoff=cutoff, spacing=h, nodes=nodes)


def _signed_power(n_points: int, z: float) -> np.ndarray:
    # sgn(2j-N-1) * |2j-N-1|^z for j = 1..N; even N keeps 2j-N-1 odd, never zero;
    # the one entry of (N, z) for the builder and the coupling searches
    if n_points < 2 or n_points % 2 != 0:
        raise ValueError(f"n_points must be even and >= 2, got {n_points}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"exponent z must be finite, got {z}")
    try:
        (n_points - 1.0) ** z  # the largest weight; float ** raises where numpy would warn
    except OverflowError:
        raise ValueError(f"site weights |2j-N-1|^z overflow at N = {n_points}, z = {z}") from None
    m = 2 * np.arange(1, n_points + 1) - n_points - 1
    return np.sign(m) * np.abs(m) ** z


def _tridiagonal(diag: np.ndarray) -> np.ndarray:
    # the lattice matrix: diag on the diagonal, -1 on both off-diagonals
    n = len(diag)
    return np.diag(diag) - np.eye(n, k=1) - np.eye(n, k=-1)


def build_coulomb_hamiltonian(
    n_points: int, coupling: float, exponent: float = -1.0
) -> LatticeHamiltonian:
    """Tridiagonal Hamiltonian with diagonal 2 + i*a*sgn(2j-N-1)|2j-N-1|^z.

    At exponent -1 this is the discrete imaginary-Coulomb matrix with
    diagonal 2 -+ i*a/(2j-1); exponent z generalizes the power law.  The
    coupling and every diagonal entry must be finite, or ValueError is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        im_diag = float(coupling) * _signed_power(n_points, exponent)
    if not np.all(np.isfinite(im_diag)):
        raise ValueError(f"coupling a*|2j-N-1|^z must be finite, got a = {coupling}, z = {exponent}")
    m = _tridiagonal(2.0 + 1j * im_diag)
    return LatticeHamiltonian(matrix=m, coupling=float(coupling), exponent=float(exponent))


def build_general_hamiltonian(
    grid: GridSpec, potential: Callable[[float], complex]
) -> LatticeHamiltonian:
    """Tridiagonal matrix 2 + h^2 V(x_j) on the diagonal, -1 off-diagonal.

    Uses the dimensionless eigenvalue convention eps = h^2 E.  The potential
    must be finite at every node.
    """
    vals = np.empty(grid.n_points, dtype=complex)
    for idx, x in enumerate(grid.nodes):
        v = complex(potential(x))
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise ValueError(
                f"potential is singular at node index {idx} (x = {x!r}): {v!r}"
            )
        vals[idx] = v
    m = _tridiagonal(2.0 + grid.spacing**2 * vals)
    return LatticeHamiltonian(matrix=m, coupling=float("nan"), exponent=float("nan"), grid=grid)


def parity(n_points: int) -> ParityMatrix:
    """Parity operator: units along the secondary diagonal."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    return ParityMatrix(matrix=np.fliplr(np.eye(n_points)))


def _as_matrix(h) -> np.ndarray:
    # the finite complex square matrix of an array or of an object's .matrix
    h = np.asarray(getattr(h, "matrix", h), dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    return h


def is_pt_symmetric(h: np.ndarray, tolerance: float = 0.0) -> bool:
    """True iff P conj(H) P equals H entrywise within tolerance (max norm)."""
    h = _as_matrix(h)
    dev = np.max(np.abs(np.conj(h)[::-1, ::-1] - h))
    return bool(dev <= tolerance)
