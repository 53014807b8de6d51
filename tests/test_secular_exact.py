"""Exact secular polynomial p(lambda; a) = det(H(a) - lambda) in rationals.

For z = -1 and z = -2 the diagonal 2 + i a sgn(m)|m|^z is rational in a, so
p can be expanded exactly as a polynomial in lambda and a, with no rounding
and no rescaling: the determinant of a tridiagonal matrix is a sum over the
matchings of its path graph, each matched neighbour pair a transposition
(sign -1, weight (-1)(-1) = 1) and each unmatched site its diagonal entry
x + i a s_k, with x = 2 - lambda.  Polynomials are dicts
{(power of x, power of a): (Re, Im)}; derivatives are taken term by term.
"""

from fractions import Fraction
from math import comb, perm

import numpy as np
import pytest

from ptcoulomb import (
    build_coulomb_hamiltonian,
    characteristic_polynomial,
    critical_coupling,
    secular_coefficients_n4,
    secular_coefficients_n6,
    spectra,
)
from helpers import n_real_brute, trace_bound


def site_weights(n, z):
    # sgn(m) |m|^z for m = 1-N, 3-N, ..., N-1 and integer z < 0
    return [Fraction(1 if m > 0 else -1, abs(m) ** -z) for m in range(1 - n, n, 2)]


def add(p, q, sign=1):
    out = dict(p)
    for key, (re, im) in q.items():
        r0, i0 = out.get(key, (0, 0))
        out[key] = (r0 + sign * re, i0 + sign * im)
    return out


def times_site(p, s):
    # p * (x + i a s)
    out = {}
    for (i, j), (re, im) in p.items():
        out = add(out, {(i + 1, j): (re, im), (i, j + 1): (-im * s, re * s)})
    return out


def exact_secular(n, z):
    s = site_weights(n, z)
    memo = {n: {(0, 0): (Fraction(1), Fraction(0))}}
    # det of the trailing block from site k on: site k unmatched, or matched to k + 1
    for k in range(n - 1, -1, -1):
        alone = times_site(memo[k + 1], s[k])
        memo[k] = add(alone, memo[k + 2], sign=-1) if k + 1 < n else alone
    return {key: c for key, c in memo[0].items() if c != (0, 0)}


def evaluate(p, lam, a, d_lam=0, d_a=0):
    """Real part of a mixed partial of p at rational (lam, a)."""
    x = 2 - lam
    total = Fraction(0)
    for (i, j), (re, _) in p.items():
        if i < d_lam or j < d_a:
            continue
        # d/dlambda = -d/dx
        total += (-1) ** d_lam * perm(i, d_lam) * perm(j, d_a) * re * x ** (i - d_lam) * a ** (j - d_a)
    return total


def coefficients_in_lambda(p, a):
    """Coefficients of p(lambda) at rational a, highest power first."""
    n = max(i for i, _ in p)
    coef = [Fraction(0)] * (n + 1)
    for (i, j), (re, _) in p.items():
        # x^i = (2 - lambda)^i
        for k in range(i + 1):
            coef[k] += re * a**j * comb(i, k) * 2 ** (i - k) * (-1) ** k
    return coef[::-1]


CASES = [(n, z) for z in (-1, -2) for n in (4, 6, 8)]


@pytest.mark.parametrize("n, z", CASES)
def test_imaginary_part_vanishes_identically(n, z):
    p = exact_secular(n, z)
    assert p and all(im == 0 for _, im in p.values())


@pytest.mark.parametrize("n, z", CASES)
def test_chiral_identity(n, z):
    # p(4 - lambda) = p(lambda) is x -> -x: no odd power of x survives
    p = exact_secular(n, z)
    assert all(i % 2 == 0 for i, _ in p)
    for lam in (Fraction(1, 3), Fraction(7, 5)):
        for a in (Fraction(1, 2), Fraction(9, 7)):
            assert evaluate(p, 4 - lam, a) == evaluate(p, lam, a)


@pytest.mark.parametrize("n, printed", [(4, secular_coefficients_n4), (6, secular_coefficients_n6)])
@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 4)])
def test_printed_secular_coefficients(n, printed, a):
    # det(E - H) = det(H - E) for even N
    want = [float(c) for c in coefficients_in_lambda(exact_secular(n, -1), a)]
    np.testing.assert_allclose(printed(float(a)), want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n, z", CASES)
def test_recurrence_matches_exact_partials(n, z):
    # dyadic points are exact in float64; the recurrence returns the five
    # partials times one positive factor per point
    p = exact_secular(n, z)
    lams = [Fraction(3, 8), Fraction(5, 4), Fraction(21, 8)]
    couplings = [Fraction(1, 4), Fraction(5, 8), Fraction(3, 2)]
    points = [(lam, a) for lam in lams for a in couplings]
    got = spectra._fold_terms(
        n, float(z), np.array([float(a) for _, a in points]), np.array([float(lam) for lam, _ in points])
    )
    orders = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    for k, (lam, a) in enumerate(points):
        want = np.array([float(evaluate(p, lam, a, *order)) for order in orders])
        factor = got[0][k] / want[0]
        assert factor > 0
        for g, w in zip(got, want):
            assert abs(g[k] / factor - w) <= 1e-13 * abs(w)


@pytest.mark.parametrize("n, z", CASES)
def test_trace_identities(n, z):
    # p(lambda) = lambda^N - e1 lambda^(N-1) + e2 lambda^(N-2) - ... for even N,
    # with e1 = sum eps = tr H and e1^2 - 2 e2 = sum eps^2 = tr H^2
    p = exact_secular(n, z)
    norm2 = sum(s * s for s in site_weights(n, z))
    for a in (Fraction(0), Fraction(1, 3), Fraction(5, 4), Fraction(7, 2)):
        one, minus_e1, e2 = coefficients_in_lambda(p, a)[:3]
        assert one == 1 and -minus_e1 == 2 * n
        assert minus_e1**2 - 2 * e2 == 6 * n - 2 - a * a * norm2


@pytest.mark.parametrize("n, z", CASES)
def test_faddeev_leverrier_matches_exact_coefficients(n, z):
    # det(E - H) = det(H - E) for even N; the worst relative error over these
    # cases is 1.2e-13 (N = 8, z = -2, a = 1/4)
    p = exact_secular(n, z)
    for a in (Fraction(1, 4), Fraction(5, 8), Fraction(3, 2), Fraction(7, 2)):
        want = np.array([float(c) for c in coefficients_in_lambda(p, a)])
        got = characteristic_polynomial(build_coulomb_hamiltonian(n, float(a), float(z)))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("z", [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0])
def test_critical_coupling_within_the_trace_bound(z):
    # the real count is monotone here: alpha <= b = sqrt(2(N-1))/|s|, equal
    # at N = 2, and at 2b the identities force some |Im eps| >= sqrt(3)
    tol = 1e-8
    for n in range(2, 65, 2):
        b = trace_bound(n, z)
        alpha = critical_coupling(n, z, tol)
        assert alpha <= b
        if n == 2:
            assert b - alpha <= tol
        vals = np.linalg.eigvals(build_coulomb_hamiltonian(n, 2 * b, z).matrix)
        assert np.abs(vals.imag).max() >= np.sqrt(3.0) * (1 - 1e-12)
        assert n_real_brute(n, 2 * b, z) < n
