"""Exact continuum solutions of the PT-symmetric Coulomb equation.

The radial-type equation

    -Psi'' + L(L+1)/x^2 Psi + iZ/x Psi = E Psi,   E = -k^2,

has the two independent confluent-hypergeometric solutions

    Psi_1(x) = e^{-kx} x^{L+1} 1F1(1 + L + iZ/(2k), 2L + 2, 2kx),
    Psi_2(x) = e^{-kx} x^{-L}  1F1(-L + iZ/(2k),   -2L,    2kx),

evaluated here with principal-branch complex powers along the U-shaped
PT-symmetric contour that dips below the x = 0 singularity.  Everything is
series-based and desk-scale: the contour is kept small enough that the
Kummer series stays in its convergent regime.

Contour points, 1F1 and the solutions accept a scalar or an array argument
and work on arrays elementwise (a scalar gives a scalar back); each element
of a series stops at its own termination rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Kummer series argument bound of the implemented regime
SERIES_ARGUMENT_MAX = 30.0

#: Kummer series term cap
SERIES_MAX_TERMS = 10_000


class KummerError(RuntimeError):
    """Kummer series pole or non-convergence."""


@dataclass(frozen=True)
class ContinuumSpec:
    """Parameters of the continuum model plus a superposition choice.

    2L integer makes Psi_2 degenerate (its 1F1 hits a pole), so it is only
    admitted when the superposition never touches Psi_2.
    """

    angular: float
    z_charge: float
    k_wave: float
    superposition: Tuple[complex, complex] = (1.0 + 0j, 0.0 + 0j)

    def __post_init__(self):
        for name in ("angular", "z_charge", "k_wave"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.angular <= -0.5:
            raise ValueError(f"angular momentum L must exceed -1/2, got {self.angular}")
        if self.k_wave <= 0:
            raise ValueError(f"k_wave must be positive, got {self.k_wave}")
        two_l = 2 * self.angular
        if abs(two_l - round(two_l)) < 1e-12 and self.superposition[1] != 0:
            raise ValueError(
                "2L is an integer, so Psi_2 is degenerate; require C2 = 0 "
                f"(got C2 = {self.superposition[1]})"
            )

    @property
    def energy(self) -> float:
        return -self.k_wave**2


@dataclass(frozen=True)
class ContourSpec:
    """Sampled PT-symmetric integration contour."""

    epsilon: float
    samples: List[Tuple[float, complex]]


def kummer_1f1(alpha: complex, beta: complex, argument: complex) -> complex:
    """Kummer's 1F1 by direct Taylor series, elementwise over the argument.

    Each element terminates when its term drops below 1e-16 of its running
    sum; raises on a non-finite alpha or beta, on a beta pole (non-positive
    integer), on a non-finite argument, on an overflowing sum, or when an
    element fails to converge within the term cap.
    """
    alpha, beta = complex(alpha), complex(beta)
    if not np.isfinite([alpha, beta]).all():  # NaN terms would run to the cap
        raise KummerError(f"1F1 parameters are not finite (alpha={alpha}, beta={beta})")
    if abs(beta.imag) < 1e-15 and beta.real <= 0 and abs(beta.real - round(beta.real)) < 1e-12:
        raise KummerError(f"1F1 pole: beta = {beta} is a non-positive integer")
    x = np.asarray(argument, dtype=complex)
    bad = ~np.isfinite(x)
    if bad.any():  # a NaN term never meets the stop rule: it would run to the cap
        raise KummerError(
            f"1F1 argument is not finite (alpha={alpha}, beta={beta}, x={complex(x[bad][0])})"
        )
    result = np.empty(x.shape, dtype=complex)
    out = result.reshape(-1)
    live = np.arange(out.size)  # flat indices of elements still summing
    xs = x.reshape(-1)
    total = np.ones(out.size, dtype=complex)
    term = np.ones(out.size, dtype=complex)
    n = 0
    # an overflowing term is caught below and raised as KummerError, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            n += 1
            if n > SERIES_MAX_TERMS:
                raise KummerError(
                    f"1F1 series did not converge within {SERIES_MAX_TERMS} terms "
                    f"(alpha={alpha}, beta={beta}, x={complex(xs[0])})"
                )
            term *= (alpha + n - 1) / (beta + n - 1) * xs / n
            total += term
            done = np.abs(term) <= 1e-16 * np.abs(total)
            if np.count_nonzero(done):
                bad = ~np.isfinite(total[done])  # inf <= 1e-16*inf passes the rule
                if bad.any():
                    x_bad = complex(xs[done][bad][0])
                    raise KummerError(f"1F1 series overflowed (alpha={alpha}, beta={beta}, x={x_bad})")
                out[live[done]] = total[done]
                keep = ~done
                live, xs, term, total = live[keep], xs[keep], term[keep], total[keep]
    return result[()]


def contour_point(epsilon: float, s: float) -> complex:
    """Point x(s) on the U-shaped PT-symmetric contour of arc radius epsilon.

    Left vertical line, lower semicircular arc through -i*epsilon, right
    vertical line; continuous at the joints s = -+ pi*epsilon/2.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    s = np.asarray(s, dtype=float)
    joint = 0.5 * np.pi * epsilon
    arc = epsilon * np.exp(1j * (s / epsilon + 1.5 * np.pi))
    x = np.where(s < -joint, -1j * (s + joint) - epsilon,
                 np.where(s > joint, 1j * (s - joint) + epsilon, arc))
    return x[()]


def build_contour(epsilon: float, s_min: float, s_max: float, n_samples: int) -> ContourSpec:
    """Uniformly sampled contour segment in the path parameter s; needs
    s_min < s_max with a finite span."""
    if n_samples < 5:
        raise ValueError(f"need at least 5 samples, got {n_samples}")
    if not (s_min < s_max and np.isfinite(float(s_max) - float(s_min))):
        raise ValueError(f"need s_min < s_max with a finite span, got [{s_min}, {s_max}]")
    svals = np.linspace(s_min, s_max, n_samples)
    samples = list(zip(svals.tolist(), contour_point(epsilon, svals)))
    return ContourSpec(epsilon=float(epsilon), samples=samples)


def psi_solutions(spec: ContinuumSpec, x: complex) -> Tuple[complex, complex]:
    """Both independent solutions (Psi_1, Psi_2) at a point or an array."""
    return psi1_value(spec, x), psi2_value(spec, x)


def _psi(spec: ContinuumSpec, x, power: float, alpha: complex, beta: float) -> complex:
    """e^{-kx} x^power 1F1(alpha, beta, 2kx) on the principal branch."""
    x = np.asarray(x, dtype=complex)
    if np.any(x == 0):
        raise ValueError("solutions are singular at x = 0")
    arg = 2 * spec.k_wave * x
    reach = np.max(np.abs(arg), initial=0.0)
    if reach > SERIES_ARGUMENT_MAX:
        raise ValueError(
            f"|2kx| = {reach:.3g} exceeds the series regime "
            f"({SERIES_ARGUMENT_MAX}); use a smaller contour"
        )
    f = kummer_1f1(alpha, beta, arg)
    return (np.exp(-spec.k_wave * x) * np.exp(power * np.log(x)) * f)[()]


def psi1_value(spec: ContinuumSpec, x: complex) -> complex:
    """Regular solution e^{-kx} x^{L+1} 1F1(1+L+iZ/(2k), 2L+2, 2kx)."""
    big_l, z, k = spec.angular, spec.z_charge, spec.k_wave
    return _psi(spec, x, big_l + 1, 1 + big_l + 1j * z / (2 * k), 2 * big_l + 2)


def psi2_value(spec: ContinuumSpec, x: complex) -> complex:
    """Second solution e^{-kx} x^{-L} 1F1(-L+iZ/(2k), -2L, 2kx)."""
    big_l, z, k = spec.angular, spec.z_charge, spec.k_wave
    return _psi(spec, x, -big_l, -big_l + 1j * z / (2 * k), -2 * big_l)


def psi_value(spec: ContinuumSpec, x: complex) -> complex:
    """General solution C1 Psi_1 + C2 Psi_2 of the spec's superposition."""
    c1, c2 = spec.superposition
    total = np.zeros(np.shape(x), dtype=complex)[()]
    if c1 != 0:
        total += c1 * psi1_value(spec, x)
    if c2 != 0:
        total += c2 * psi2_value(spec, x)
    return total


def ode_residual_on_contour(spec: ContinuumSpec, contour: ContourSpec) -> float:
    """Max normalized ODE residual of the superposition along the contour.

    Second derivatives in x are recovered from centered differences in the
    path parameter s via the chain rule.  Joint samples sit at x = -+epsilon
    (the left one on the principal branch cut) and x(s) is not smooth
    there, so stencils touching a joint or spanning two branches are
    skipped.  Returns 0 for the zero superposition.  The samples must be
    uniform in s with a finite non-zero spacing, or ValueError is raised.
    """
    if len(contour.samples) < 5:
        raise ValueError("contour too coarse: need at least 5 samples")
    svals, xs = map(np.array, zip(*contour.samples))
    ds = np.diff(svals)
    h = float(ds[0])
    if h == 0 or not np.all(np.isfinite(ds)):
        raise ValueError("contour samples need a finite non-zero spacing in s")
    if np.max(ds) - np.min(ds) > 1e-9 * np.max(np.abs(ds)):
        raise ValueError("contour samples must be uniform in s for 3-point stencils")

    psi = psi_value(spec, xs)
    scale = np.max(np.abs(psi))
    if scale == 0:
        return 0.0

    # branch 0/1/2 = left line/arc/right line, -1 = joint sample
    eps = contour.epsilon
    joint = 0.5 * np.pi * eps
    branch = np.where(svals < -joint, 0, np.where(svals > joint, 2, 1))
    branch[np.abs(np.abs(svals) - joint) <= 1e-12 * max(1.0, joint)] = -1
    b = branch[1:-1]
    keep = (b >= 0) & (branch[:-2] == b) & (branch[2:] == b)

    x, p = xs[1:-1], psi[1:-1]
    psi_s = (psi[2:] - psi[:-2]) / (2 * h)
    psi_ss = (psi[2:] - 2 * p + psi[:-2]) / (h * h)
    x_s = np.where(b == 1, 1j * x / eps, np.where(b == 0, -1j, 1j))
    x_ss = np.where(b == 1, -x / (eps * eps), 0.0)
    psi_x = psi_s / x_s
    psi_xx = (psi_ss - psi_x * x_ss) / (x_s * x_s)
    big_l, z, k = spec.angular, spec.z_charge, spec.k_wave
    res = -psi_xx + big_l * (big_l + 1) * p / (x * x) + 1j * z * p / x + k * k * p
    return float(np.max(np.abs(res[keep]), initial=0.0) / scale)
