"""Array arguments of the continuum functions: shapes, agreement with scalar
calls, errors, the residual stencil against a per-point oracle, and Psi_1,
Psi_2 against mpmath."""

import numpy as np
import pytest

from helpers import contour_residual_reference
from ptcoulomb import (
    ContinuumSpec,
    KummerError,
    build_contour,
    kummer_1f1,
    ode_residual_on_contour,
    psi1_value,
    psi2_value,
    psi_value,
)

SPEC = ContinuumSpec(0.3, 0.8, 0.9, (1.0, 0.5 - 0.25j))


def _points(shape, seed=3):
    """Lower-half-plane points with 0.1 <= |x| <= 5 (|2kx| <= 9 for SPEC)."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 5.0, shape)
    return r * np.exp(-1j * rng.uniform(0.0, np.pi, shape))


FUNCTIONS = {
    "kummer_1f1": lambda x: kummer_1f1(0.7 - 0.4j, 1.6, 2 * SPEC.k_wave * x),
    "psi1_value": lambda x: psi1_value(SPEC, x),
    "psi2_value": lambda x: psi2_value(SPEC, x),
    "psi_value": lambda x: psi_value(SPEC, x),
    "psi_value_zero": lambda x: psi_value(ContinuumSpec(0.3, 0.8, 0.9, (0.0, 0.0)), x),
}


class TestArrayArguments:
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_shape_and_scalar_agreement(self, name, shape):
        f = FUNCTIONS[name]
        xs = _points(shape)
        got = f(xs)
        assert isinstance(got, np.ndarray) and got.shape == shape
        want = np.array([f(x) for x in xs.ravel()]).reshape(shape)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_scalar_argument_gives_scalar(self, name):
        got = FUNCTIONS[name](0.4 - 0.3j)
        assert isinstance(got, complex) and np.ndim(got) == 0

    def test_empty_array(self):
        assert kummer_1f1(0.5, 1.5, np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, 40.0 - 2.0j])
    @pytest.mark.parametrize("f", [psi1_value, psi2_value, psi_value])
    def test_one_bad_point_raises_like_scalar(self, f, bad):
        with pytest.raises(ValueError) as scalar:
            f(SPEC, bad)
        xs = _points((2, 3))
        xs[1, 2] = bad
        with pytest.raises(ValueError) as array:
            f(SPEC, xs)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("x", [800.0, -800.0, np.array([0.5, -800.0])])
    def test_overflowing_series_raises(self, x):
        # the terms overflow to inf, which the 1e-16 stop rule would accept
        with pytest.raises(KummerError, match=r"overflowed .*x=\(-?800\+0j\)"):
            kummer_1f1(1.0, 1.0, x)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 1.5), (0.5, np.nan), (complex(0.5, np.inf), 1.5)])
    def test_non_finite_parameters_raise_before_any_term(self, alpha, beta):
        # the series loop raises only "overflowed" or "did not converge"
        with pytest.raises(KummerError, match="parameters are not finite"):
            kummer_1f1(alpha, beta, np.array([0.5, 1.0]))

    def test_non_convergence_names_first_argument(self):
        xs = np.array([0.5, complex(np.nan, 1.0), complex(2.0, np.nan)])
        with pytest.raises(KummerError, match=r"x=\(nan\+1j\)"):
            kummer_1f1(0.5, 1.5, xs)


def _contours():
    eps = 0.5
    joint = 0.5 * np.pi * eps
    spec = ContinuumSpec(0.3, 0.8, 1.0)
    both = ContinuumSpec(0.3, 0.8, 1.0, (1.0, 0.5))
    return [
        (spec, build_contour(eps, -2 * joint, 2 * joint, 9)),
        (spec, build_contour(eps, -2 * joint, 2 * joint, 801)),
        (spec, build_contour(eps, -2 * joint, 2 * joint, 1601)),
        (spec, build_contour(eps, -joint - 2.0, -joint - 0.1, 401)),
        (spec, build_contour(eps, -0.9 * joint, 0.9 * joint, 301)),
        (spec, build_contour(eps, joint + 0.1, joint + 2.0, 401)),
        (both, build_contour(eps, -2.5, 2.5, 1001)),
    ]


@pytest.mark.parametrize("case", range(len(_contours())))
def test_residual_matches_per_point_stencil(case):
    spec, contour = _contours()[case]
    xs = np.array([x for _, x in contour.samples])
    want = contour_residual_reference(spec, contour, psi_value(spec, xs))
    assert want > 0
    assert ode_residual_on_contour(spec, contour) == pytest.approx(want, rel=1e-12)


def test_solutions_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(12):
        big_l, z, k = (float(v) for v in rng.uniform([0.1, -2.0, 0.3], [0.4, 2.0, 1.0]))
        spec = ContinuumSpec(big_l, z, k, (1.0, 1.0))
        # |2kx| <= 10 in the lower half-plane
        xs = rng.uniform(0.05, 5.0 / k, 5) * np.exp(-1j * rng.uniform(0.0, np.pi, 5))
        for f, power, alpha, beta in (
            (psi1_value, big_l + 1, 1 + big_l + 1j * z / (2 * k), 2 * big_l + 2),
            (psi2_value, -big_l, -big_l + 1j * z / (2 * k), -2 * big_l),
        ):
            got = f(spec, xs)
            for x, g in zip(xs, got):
                xm = mpmath.mpc(x)
                want = (mpmath.exp(-k * xm) * mpmath.power(xm, power)
                        * mpmath.hyp1f1(alpha, beta, 2 * k * xm))
                worst = max(worst, float(abs(g - complex(want)) / abs(want)))
    assert worst <= 1e-12
