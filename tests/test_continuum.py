import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcoulomb import (
    ContinuumSpec,
    ContourSpec,
    KummerError,
    build_contour,
    contour_point,
    kummer_1f1,
    ode_residual_on_contour,
    psi1_value,
    psi2_value,
    psi_solutions,
    psi_value,
)

finite = dict(allow_nan=False, allow_infinity=False)


class TestContinuumSpec:
    def test_energy(self):
        assert ContinuumSpec(0.0, 0.0, 2.0).energy == -4.0

    def test_rejects_small_angular(self):
        with pytest.raises(ValueError, match="-1/2"):
            ContinuumSpec(-0.5, 0.0, 1.0)

    @pytest.mark.parametrize("field", ["angular", "z_charge", "k_wave"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, field, bad):
        args = {"angular": 0.25, "z_charge": 1.0, "k_wave": 0.5, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ContinuumSpec(**args)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="positive"):
            ContinuumSpec(0.2, 0.0, 0.0)

    def test_integer_two_l_needs_zero_c2(self):
        with pytest.raises(ValueError, match="C2"):
            ContinuumSpec(0.5, 1.0, 1.0, (1.0, 1.0))
        # fine when Psi_2 is never used
        ContinuumSpec(0.5, 1.0, 1.0, (1.0, 0.0))

    def test_generic_angular_allows_both(self):
        ContinuumSpec(0.3, 1.0, 1.0, (1.0, 1.0))


class TestKummer:
    def test_at_zero_argument(self):
        assert kummer_1f1(0.7 + 0.2j, 1.3, 0.0) == 1.0

    @pytest.mark.parametrize("x", [-10.0, -1.0, 0.5, 3.0, 10.0, 2.0 + 5.0j])
    def test_exponential_special_case(self, x):
        # 1F1(1, 1, x) = e^x; for negative x the alternating series cancels,
        # so the achievable absolute error scales with the largest term
        got = kummer_1f1(1.0, 1.0, x)
        assert abs(got - np.exp(x)) <= 1e-13 * np.exp(abs(x))

    def test_terminating_polynomial_case(self):
        # alpha = -2 truncates the series: 1 - 2x/b + x^2/(b(b+1))
        b, x = 1.7, 0.9
        want = 1 - 2 * x / b + x * x / (b * (b + 1))
        assert kummer_1f1(-2.0, b, x) == pytest.approx(want, abs=1e-15)

    @given(
        ar=st.floats(min_value=-2, max_value=2, **finite),
        ai=st.floats(min_value=-2, max_value=2, **finite),
        b=st.floats(min_value=0.3, max_value=3, **finite),
        x=st.floats(min_value=-3, max_value=3, **finite),
    )
    @settings(max_examples=40)
    def test_satisfies_kummer_ode(self, ar, ai, b, x):
        # x w'' + (b - x) w' - a w = 0, derivatives by 5-point stencils
        a = ar + 1j * ai
        h = 5e-3
        w = [kummer_1f1(a, b, x + k * h) for k in (-2, -1, 0, 1, 2)]
        w1 = (-w[4] + 8 * w[3] - 8 * w[1] + w[0]) / (12 * h)
        w2 = (-w[4] + 16 * w[3] - 30 * w[2] + 16 * w[1] - w[0]) / (12 * h * h)
        res = x * w2 + (b - x) * w1 - a * w[2]
        assert abs(res) <= 1e-6 * max(1.0, abs(w[2]))

    @pytest.mark.parametrize("beta", [0.0, -1.0, -3.0])
    def test_beta_pole(self, beta):
        with pytest.raises(KummerError, match="pole"):
            kummer_1f1(0.5, beta, 1.0)


class TestContour:
    def test_arc_bottom(self):
        for eps in (0.1, 1.0, 10.0):
            assert contour_point(eps, 0.0) == pytest.approx(-1j * eps, abs=1e-15 * max(1.0, eps))

    def test_left_branch_example(self):
        got = contour_point(1.0, -np.pi / 2 - 1.0)
        assert got == pytest.approx(-1.0 + 1.0j, abs=1e-12)

    def test_right_branch_example(self):
        got = contour_point(1.0, np.pi / 2 + 2.0)
        assert got == pytest.approx(1.0 + 2.0j, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_continuity_at_joints(self, eps):
        joint = 0.5 * np.pi * eps
        for sj in (-joint, joint):
            left = contour_point(eps, sj - 1e-9)
            right = contour_point(eps, sj + 1e-9)
            assert abs(left - right) <= 1e-8 * max(1.0, eps)
            assert abs(contour_point(eps, sj)) == pytest.approx(eps, abs=1e-12 * eps)

    @given(
        eps=st.floats(min_value=0.05, max_value=5, **finite),
        s=st.floats(min_value=-20, max_value=20, **finite),
    )
    @settings(max_examples=60)
    def test_pt_antisymmetry(self, eps, s):
        # x(-s) = -conj(x(s)): the contour is mapped to itself by PT
        lhs = contour_point(eps, -s)
        rhs = -np.conj(contour_point(eps, s))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, eps, abs(s))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            contour_point(0.0, 1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            contour_point(eps, 1.0)

    def test_build_contour(self):
        c = build_contour(0.5, -2.0, 2.0, 9)
        assert isinstance(c, ContourSpec)
        assert len(c.samples) == 9
        assert c.samples[0][0] == -2.0 and c.samples[-1][0] == 2.0
        assert c.samples[4][1] == pytest.approx(-0.5j, abs=1e-15)

    def test_build_contour_errors(self):
        with pytest.raises(ValueError, match="samples"):
            build_contour(0.5, -1.0, 1.0, 3)
        with pytest.raises(ValueError, match="s_min"):
            build_contour(0.5, 1.0, -1.0, 9)

    @pytest.mark.parametrize(
        "s_min, s_max", [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)]
    )
    def test_build_contour_needs_a_finite_span(self, s_min, s_max):
        with pytest.raises(ValueError, match="s_min < s_max with a finite span"):
            build_contour(1.0, s_min, s_max, 5)


class TestSolutionValues:
    def test_sinh_identity(self):
        # at Z = 0, L = 0: Psi_1 = sinh(kx) / k
        spec = ContinuumSpec(0.0, 0.0, 1.3)
        for x in (0.2, 1.0, -0.5 - 0.4j, 2.0j):
            got = psi1_value(spec, x)
            want = np.sinh(1.3 * x) / 1.3
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_psi2_free_limit_is_cosh(self):
        # at Z = 0, L -> 0 from generic L, Psi_2 -> cosh(kx)
        spec = ContinuumSpec(1e-9, 0.0, 0.7)
        x = 0.8
        assert psi2_value(spec, x) == pytest.approx(np.cosh(0.7 * x), abs=1e-6)

    def test_power_law_near_singularity(self):
        # Psi_2 ~ x^{-L} as x -> 0 along the lower imaginary axis
        spec = ContinuumSpec(0.25, 0.6, 1.0, (0.0, 1.0))
        t1, t2 = 1e-4, 2e-4
        v1 = abs(psi2_value(spec, -1j * t1))
        v2 = abs(psi2_value(spec, -1j * t2))
        slope = np.log(v2 / v1) / np.log(t2 / t1)
        assert slope == pytest.approx(-0.25, abs=1e-3)

    def test_psi1_power_law_near_singularity(self):
        spec = ContinuumSpec(0.25, 0.6, 1.0)
        t1, t2 = 1e-4, 2e-4
        v1 = abs(psi1_value(spec, -1j * t1))
        v2 = abs(psi1_value(spec, -1j * t2))
        slope = np.log(v2 / v1) / np.log(t2 / t1)
        assert slope == pytest.approx(1.25, abs=1e-3)

    def test_solutions_independent(self):
        # Wronskian-like check at two nearby points
        spec = ContinuumSpec(0.3, 0.5, 1.0, (1.0, 1.0))
        x, h = -0.5j + 0.3, 1e-5
        rows = []
        for f in (psi1_value, psi2_value):
            val = f(spec, x)
            der = (f(spec, x + h) - f(spec, x - h)) / (2 * h)
            rows.append([val, der])
        wronskian = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        assert abs(wronskian) > 1e-3

    def test_superposition_linearity(self):
        spec = ContinuumSpec(0.3, 0.5, 1.0, (2.0, -1.0j))
        x = -0.4j + 0.2
        p1, p2 = psi_solutions(spec, x)
        assert psi_value(spec, x) == pytest.approx(2.0 * p1 - 1.0j * p2, abs=1e-14)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            psi1_value(ContinuumSpec(0.0, 0.0, 1.0), 0.0)

    def test_series_regime_bound(self):
        with pytest.raises(ValueError, match="series regime"):
            psi1_value(ContinuumSpec(0.0, 0.0, 1.0), 100.0)


class TestOdeResidual:
    def test_right_branch_small_residual(self):
        spec = ContinuumSpec(0.0, 0.8, 1.0)
        joint = 0.5 * np.pi * 0.5
        contour = build_contour(0.5, joint + 0.1, joint + 2.1, 2001)
        assert ode_residual_on_contour(spec, contour) <= 1e-5

    def test_full_contour_small_residual(self):
        spec = ContinuumSpec(0.3, 0.8, 1.0, (1.0, 0.5))
        contour = build_contour(0.5, -2.5, 2.5, 4001)
        assert ode_residual_on_contour(spec, contour) <= 1e-4

    def test_second_order_convergence(self):
        spec = ContinuumSpec(0.0, 0.8, 1.0)
        coarse = ode_residual_on_contour(spec, build_contour(0.5, -2.5, 2.5, 501))
        fine = ode_residual_on_contour(spec, build_contour(0.5, -2.5, 2.5, 1001))
        ratio = coarse / fine
        assert 3.0 < ratio < 5.0

    def test_zero_superposition(self):
        spec = ContinuumSpec(0.0, 0.8, 1.0, (0.0, 0.0))
        contour = build_contour(0.5, -1.0, 1.0, 11)
        assert ode_residual_on_contour(spec, contour) == 0.0

    def test_nonuniform_contour_rejected(self):
        spec = ContinuumSpec(0.0, 0.8, 1.0)
        samples = [(s, contour_point(0.5, s)) for s in (1.0, 1.1, 1.3, 1.4, 1.5)]
        with pytest.raises(ValueError, match="uniform"):
            ode_residual_on_contour(spec, ContourSpec(0.5, samples))

    @pytest.mark.parametrize(
        "svals", [[1.0] * 5, [1.0, np.inf, 1.2, 1.3, 1.4], [1.0, 1.1, 1.2, 1.3, np.nan]]
    )
    def test_zero_or_non_finite_spacing_rejected(self, svals):
        spec = ContinuumSpec(0.0, 0.8, 1.0)
        samples = [(s, contour_point(0.5, 1.0)) for s in svals]
        with pytest.raises(ValueError, match="finite non-zero spacing"):
            ode_residual_on_contour(spec, ContourSpec(0.5, samples))

    def test_coarse_contour_rejected(self):
        spec = ContinuumSpec(0.0, 0.8, 1.0)
        samples = [(s, contour_point(0.5, s)) for s in (1.0, 1.1, 1.2)]
        with pytest.raises(ValueError, match="samples"):
            ode_residual_on_contour(spec, ContourSpec(0.5, samples))
