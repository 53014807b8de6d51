from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptcoulomb.metrics as metrics
from ptcoulomb import (
    ComplexSpectrumError,
    KappaWeights,
    band_width,
    build_coulomb_hamiltonian,
    cpt_charge_n2,
    critical_coupling,
    dieudonne_residual,
    dieudonne_solution_dimension,
    eigensystem,
    is_positive,
    metric_from_biorthogonal,
    n2_metric,
    n2_metric_angles,
    n2_observable,
    n4_metric_ansatz,
    n4_metric_eigenvalues,
    parity,
    s_inner_product,
)

finite = dict(allow_nan=False, allow_infinity=False)
params = st.floats(min_value=-2.0, max_value=2.0, **finite)
pos_params = st.floats(min_value=0.1, max_value=3.0, **finite)


class TestDieudonneResidual:
    @given(k=pos_params, m=params, a=params)
    @settings(max_examples=50)
    def test_n2_family_solves(self, k, m, a):
        h = build_coulomb_hamiltonian(2, a, -1.0)
        assert dieudonne_residual(h, n2_metric(k, m, a)) <= 1e-14

    def test_hermitian_with_identity(self):
        m = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        assert dieudonne_residual(m, np.eye(4)) == 0.0

    def test_nonhermitian_with_identity_positive(self):
        h = build_coulomb_hamiltonian(4, 0.5, -1.0)
        assert dieudonne_residual(h, np.eye(4)) > 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dieudonne_residual(np.eye(2), np.eye(3))


class TestBiorthogonalMetric:
    @pytest.mark.parametrize("z", [-1.0, -0.5])
    def test_hermitian_input_gives_identity(self, z):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.0, z))
        theta = metric_from_biorthogonal(sys_)
        assert np.max(np.abs(theta.matrix - np.eye(6))) < 1e-12

    def test_n2_lands_in_closed_form_family(self):
        a = 0.5
        sys_ = eigensystem(build_coulomb_hamiltonian(2, a, -1.0))
        theta = metric_from_biorthogonal(sys_)
        # fit (k, m): k from the diagonal, m from the real off-diagonal part
        k = theta.matrix[0, 0].real
        m = theta.matrix[0, 1].real / k
        want = n2_metric(k, m, a)
        assert np.max(np.abs(theta.matrix - want.matrix)) < 1e-10

    def test_n6_weighted_positive(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.3, -1.0))
        theta = metric_from_biorthogonal(sys_, KappaWeights(np.arange(1.0, 7.0)))
        herm = np.max(np.abs(theta.matrix - theta.matrix.conj().T))
        assert herm <= 1e-14 * np.max(np.abs(theta.matrix))
        pos, smallest = is_positive(theta)
        assert pos and smallest > 0
        h = build_coulomb_hamiltonian(6, 0.3, -1.0)
        assert dieudonne_residual(h, theta) <= 1e-10

    def test_complex_spectrum_rejected(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(4, 1.5, -1.0))
        with pytest.raises(ComplexSpectrumError):
            metric_from_biorthogonal(sys_)

    def test_weight_count_mismatch(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(4, 0.3, -1.0))
        with pytest.raises(ValueError):
            metric_from_biorthogonal(sys_, KappaWeights(np.ones(3)))

    def test_positivity_margin_shrinks_toward_alpha(self):
        margins = []
        for a in (0.3, 0.6, 0.75):
            sys_ = eigensystem(build_coulomb_hamiltonian(4, a, -1.0))
            _, smallest = is_positive(metric_from_biorthogonal(sys_))
            margins.append(smallest)
        assert margins[0] > margins[1] > margins[2] > 0


class TestKappaWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KappaWeights(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        sys_ = eigensystem(build_coulomb_hamiltonian(4, 0.3, -1.0))
        with pytest.raises(ValueError, match="kappa weights"):
            metric_from_biorthogonal(sys_, KappaWeights([1.0, bad, 1.0, 1.0]))

    def test_ones(self):
        np.testing.assert_array_equal(KappaWeights.ones(3).weights, [1, 1, 1])


class TestIsPositive:
    def test_identity(self):
        assert is_positive(np.eye(3)) == (True, 1.0)

    def test_n2_positive_case(self):
        pos, smallest = is_positive(n2_metric(1.0, 0.0, 0.5))
        assert pos and smallest == pytest.approx(0.5, abs=1e-12)

    def test_n2_indefinite_case(self):
        pos, smallest = is_positive(n2_metric(1.0, 1.0, 0.5))
        assert not pos
        assert smallest == pytest.approx(1.0 - np.sqrt(1.25), abs=1e-12)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            is_positive(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestN2Metric:
    def test_identity_member(self):
        np.testing.assert_array_equal(n2_metric(1.0, 0.0, 0.0).matrix, np.eye(2))

    @given(k=pos_params, m=params, a=params)
    @settings(max_examples=50)
    def test_eigenvalue_formula(self, k, m, a):
        got = np.sort(np.linalg.eigvalsh(n2_metric(k, m, a).matrix))
        root = np.sqrt(k * k * m * m + k * k * a * a)
        np.testing.assert_allclose(got, sorted([k - root, k + root]), atol=1e-12)

    @given(k=pos_params, m=params, a=params, lam=pos_params)
    @settings(max_examples=30)
    def test_scaling_covariance(self, k, m, a, lam):
        scaled = n2_metric(lam * k, m, a).matrix
        base = n2_metric(k, m, a).matrix
        assert np.max(np.abs(scaled - lam * base)) <= 1e-12 * lam * k
        assert is_positive(scaled)[0] == is_positive(base)[0]

    def test_parity_limit(self):
        # k -> 0, m -> inf with km -> 1 approaches the parity matrix
        theta = n2_metric(1e-10, 1e10, 0.7)
        assert np.max(np.abs(theta.matrix - parity(2).matrix)) < 1e-9


class TestN2MetricAngles:
    def test_beta_half_pi_is_identity(self):
        np.testing.assert_allclose(
            n2_metric_angles(1.0, np.pi / 2, 1.0).matrix, np.eye(2), atol=1e-15
        )

    def test_cpt_slice(self):
        beta = 0.8
        theta = n2_metric_angles(1.0, beta, np.pi / 2).matrix
        want = np.array([[1.0, -1j * np.cos(beta)], [1j * np.cos(beta), 1.0]])
        np.testing.assert_allclose(theta, want, atol=1e-15)

    def test_reparametrization_identity(self):
        k, beta, gamma = 2.0, np.pi / 3, np.pi / 4
        got = n2_metric_angles(k, beta, gamma).matrix
        want = n2_metric(k, np.cos(beta) * np.cos(gamma), np.cos(beta) * np.sin(gamma))
        assert np.max(np.abs(got - want.matrix)) <= 1e-15 * k

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            n2_metric_angles(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            n2_metric_angles(1.0, 4.0, 1.0)


class TestCptCharge:
    def test_zero_coupling_gives_parity(self):
        c, k = cpt_charge_n2(0.0)
        assert k == 1.0
        np.testing.assert_array_equal(c, parity(2).matrix)

    def test_involution_at_0p6(self):
        c, k = cpt_charge_n2(0.6)
        assert k == pytest.approx(1.25, abs=1e-14)
        assert np.max(np.abs(c @ c - np.eye(2))) <= 1e-14

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.6, 0.9])
    def test_cp_product_solves_dieudonne(self, a):
        c, _ = cpt_charge_n2(a)
        theta = c @ parity(2).matrix
        h = build_coulomb_hamiltonian(2, a, -1.0)
        assert dieudonne_residual(h, theta) <= 1e-14

    def test_matches_angle_family(self):
        a = 0.6
        c, k = cpt_charge_n2(a)
        theta = c @ parity(2).matrix
        beta = np.arcsin(1.0 / k)
        want = n2_metric_angles(k, beta, np.pi / 2).matrix
        assert np.max(np.abs(theta - want)) < 1e-12

    def test_outside_reality_interval(self):
        with pytest.raises(ValueError, match="CPT"):
            cpt_charge_n2(1.0)


class TestN2Observable:
    def test_reproduces_hamiltonian(self):
        a = 0.7
        obs = n2_observable(2.0, 0.0, 0.0, -a, a)
        h = build_coulomb_hamiltonian(2, a, -1.0)
        np.testing.assert_array_equal(obs.matrix, h.matrix)

    def test_trivial_identity_member(self):
        obs = n2_observable(1.0, 0.0, 0.0, 0.0, 0.4)
        np.testing.assert_allclose(obs.matrix, np.eye(2), atol=1e-15)

    @given(d=params, b=params, c=params, g=params, m=params,
           a=st.floats(min_value=0.1, max_value=2.0, **finite),
           k=pos_params)
    @settings(max_examples=50)
    def test_crypto_hermitian_against_companion_metric(self, d, b, c, g, m, a, k):
        lam = n2_observable(d, b, c, g, a, m_shape=m).matrix
        theta = n2_metric(k, m, a).matrix
        res = np.linalg.norm(lam.conj().T @ theta - theta @ lam)
        assert res <= 1e-11 * max(1.0, np.linalg.norm(lam)) * np.linalg.norm(theta)

    def test_charge_special_case(self):
        # D = b = c = 0, g = -sqrt(k^2 - 1) reproduces the charge up to the
        # off-diagonal sign convention
        a = 0.6
        c_mat, k = cpt_charge_n2(a)
        g = -np.sqrt(k * k - 1.0)
        obs = n2_observable(0.0, 0.0, 0.0, g, a, m_shape=0.0)
        np.testing.assert_allclose(np.diag(obs.matrix), np.diag(c_mat), atol=1e-12)
        np.testing.assert_allclose(
            np.abs(obs.matrix), np.abs(c_mat), atol=1e-12
        )

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            n2_observable(1.0, 0.0, 0.0, 0.0, 0.0)


class TestN4MetricAnsatz:
    def test_identity_at_zero_coupling(self):
        theta = n4_metric_ansatz(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
        np.testing.assert_array_equal(theta.matrix, np.eye(4))

    @given(k=params, m=params, r=params, eta=params,
           a=params, z=st.floats(min_value=-1.5, max_value=-0.5, **finite))
    @settings(max_examples=50)
    def test_solves_dieudonne_for_all_parameters(self, k, m, r, eta, a, z):
        theta = n4_metric_ansatz(k, m, r, eta, a, z)
        tm = theta.matrix
        assert np.max(np.abs(tm - tm.conj().T)) == 0
        h = build_coulomb_hamiltonian(4, a, z)
        num = np.linalg.norm(h.matrix.conj().T @ tm - tm @ h.matrix)
        assert num <= 1e-12 * max(1.0, np.linalg.norm(tm)) * np.linalg.norm(h.matrix)

    @pytest.mark.parametrize("a", [0.2, 0.4])
    @pytest.mark.parametrize("z", [-1.0, -0.8])
    def test_closed_form_eigenvalues(self, a, z):
        theta = n4_metric_ansatz(1.0, 0.0, 1.0, 0.0, a, z)
        got = np.sort(np.linalg.eigvalsh(theta.matrix))
        np.testing.assert_allclose(got, n4_metric_eigenvalues(a, z), atol=1e-10)


class TestBandWidth:
    def test_identity(self):
        assert band_width(np.eye(5)) == 0

    def test_n2_full(self):
        assert band_width(n2_metric(1.0, 0.5, 0.5)) == 1

    def test_generic_biorthogonal_metric_is_full(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.3, -1.0))
        theta = metric_from_biorthogonal(sys_)
        assert band_width(theta, tolerance=1e-12) == 5

    def test_tridiagonal(self):
        m = 2 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
        assert band_width(m) == 1


class TestSInnerProduct:
    def test_euclidean_with_identity(self):
        psi = np.array([1.0, 2j])
        phi = np.array([3.0, -1j])
        assert s_inner_product(psi, phi, np.eye(2)) == np.vdot(psi, phi)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        theta = n2_metric(1.2, 0.3, 0.4).matrix
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = s_inner_product(psi, phi, theta)
        rhs = s_inner_product(phi, psi, theta)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-14)

    def test_positive_norm_under_positive_metric(self):
        rng = np.random.default_rng(11)
        sys_ = eigensystem(build_coulomb_hamiltonian(4, 0.3, -1.0))
        theta = metric_from_biorthogonal(sys_)
        for _ in range(10):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            val = s_inner_product(psi, psi, theta)
            assert abs(val.imag) < 1e-12 * abs(val.real)
            assert val.real > 0

    def test_right_eigenvectors_orthonormal_under_unit_kappa(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.3, -1.0))
        theta = metric_from_biorthogonal(sys_)
        vr = sys_.right_vectors
        gram = np.array(
            [
                [s_inner_product(vr[:, i], vr[:, j], theta) for j in range(6)]
                for i in range(6)
            ]
        )
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_hamiltonian_self_adjoint(self):
        rng = np.random.default_rng(13)
        h = build_coulomb_hamiltonian(6, 0.3, -1.0)
        theta = metric_from_biorthogonal(eigensystem(h))
        for _ in range(10):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = rng.normal(size=6) + 1j * rng.normal(size=6)
            lhs = s_inner_product(psi, h.matrix @ phi, theta)
            rhs = s_inner_product(h.matrix @ psi, phi, theta)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            s_inner_product(np.ones(3), np.ones(2), np.eye(2))


class TestSolutionSpaceDimension:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.9])
    def test_n2_dimension_is_two(self, a):
        h = build_coulomb_hamiltonian(2, a, -1.0)
        assert dieudonne_solution_dimension(h) == 2

    def test_hermitian_matrix_full_commutant(self):
        # distinct-eigenvalue Hermitian H: solutions are functions of H,
        # dimension N
        m = np.diag([1.0, 2.0, 3.0])
        assert dieudonne_solution_dimension(m) == 3

    @pytest.mark.parametrize("n", [4, 6, 10])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.5, 3.0])
    def test_coulomb_dimension_is_n(self, n, frac):
        # inside and beyond the reality interval alike
        a = frac * critical_coupling(n, -1.0, 1e-8)
        assert dieudonne_solution_dimension(build_coulomb_hamiltonian(n, a, -1.0)) == n


@lru_cache(maxsize=None)
def _alpha(n, z=-1.0):
    return critical_coupling(n, z, 1e-8)


def _svd_dimension(h):
    # the Kronecker SVD count, the oracle kept for inputs off the structural path
    return metrics._kronecker_nullity(np.asarray(getattr(h, "matrix", h), dtype=complex), 1e-10)


def _nullity_at_40_digits(h):
    # nullity of the Kronecker map built and decomposed in 40-digit arithmetic
    # from the exact binary values of H: exact solutions sit near 1e-41 of the
    # largest singular value, so a count at 1e-30 tells them from the
    # near-solutions (nearly coinciding eigenvalues) that double precision
    # cannot, which stay at or above ~1e-13 for the chains drawn here
    with mpmath.workdps(40):
        hx = np.vectorize(mpmath.mpc, otypes=[object])(np.asarray(h, dtype=complex))
        eye = np.eye(hx.shape[0], dtype=int).astype(object)
        m = np.kron(eye, hx.conj().T) - np.kron(hx.T, eye)
        s = [abs(v) for v in mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)]
        return sum(v <= mpmath.mpf("1e-30") * max(s) for v in s)


def _basis(h):
    # (b, i, j): the N solutions grown from unit first rows e_b, and the
    # residual row block of each, straight from the library's recursion
    hm = h.matrix
    *rows, residual = metrics._dieudonne_rows(np.diag(hm), np.diag(hm, -1), np.diag(hm, 1))
    return np.stack(rows, axis=1), residual


def _tridiagonal(diag, lower, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def _with_entry(m, i, j, value):
    m = m.copy()
    m[i, j] = value
    return m


class TestRankTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 1.0])
    def test_outside_unit_interval_rejected(self, tol):
        # NaN and inf used to count 36 = N^2 at N=6, 0 and -1 to count 0
        h = build_coulomb_hamiltonian(6, 0.5, -1.0)
        with pytest.raises(ValueError, match="rank_tolerance"):
            dieudonne_solution_dimension(h, tol)


class TestStructuralPathAgreesWithSvd:
    @pytest.mark.parametrize("n", range(2, 17, 2))
    @pytest.mark.parametrize("z", [-2.0, -1.0, -0.5, 0.5, 1.0])
    def test_coulomb_grid(self, n, z):
        for frac in (0.0, 0.5, 0.999, 1.5, 3.0):
            h = build_coulomb_hamiltonian(n, frac * _alpha(n, z), z)
            assert metrics._recursion_certifies(h.matrix, 1e-10), frac
            assert dieudonne_solution_dimension(h) == _svd_dimension(h) == n, frac

    @given(data=st.data(), n=st.integers(1, 8), pt=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_tridiagonal(self, data, n, pt):
        entry = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
        diag, lower, upper = (
            np.array(data.draw(st.lists(entry, min_size=k, max_size=k)), dtype=complex)
            for k in (n, n - 1, n - 1)
        )
        h = _tridiagonal(diag, lower, upper)
        if pt:
            h = 0.5 * (h + np.conj(h)[::-1, ::-1])  # P conj(H) P = H
        assert dieudonne_solution_dimension(h) == _svd_dimension(h)

    @given(data=st.data(), n=st.integers(1, 8), pt=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_ill_scaled_tridiagonal(self, data, n, pt):
        # entries up to 1e6: the structural count never exceeds the SVD's, and
        # wherever it is below, the SVD's extra null directions are
        # near-solutions: the structural count is the exact nullity, which
        # 40-digit arithmetic resolves (a singular-value window in double
        # precision cannot; near-solutions reach 1.3e-14 of the largest)
        part = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.5, 1.0]))
        entry = st.builds(complex, part, part)
        diag, lower, upper = (
            np.array(data.draw(st.lists(entry, min_size=k, max_size=k)), dtype=complex)
            for k in (n, n - 1, n - 1)
        )
        h = _tridiagonal(diag, lower, upper)
        if pt:
            h = 0.5 * (h + np.conj(h)[::-1, ::-1])
        got, want = dieudonne_solution_dimension(h), _svd_dimension(h)
        assert got <= want
        if got < want:
            assert got == _nullity_at_40_digits(h)

    CASES = {
        "diag-123": (np.diag([1.0, 2.0, 3.0]), 3),
        "dense-4x4": (np.arange(16.0).reshape(4, 4) + 1j * np.eye(4), None),
        "constant-diagonal-2+1j": (_tridiagonal(np.full(6, 2 + 1j), -np.ones(5), -np.ones(5)), 0),
        "coulomb-plus-0.3i": (build_coulomb_hamiltonian(8, 0.5, -1.0).matrix + 0.3j * np.eye(8), 0),
        "coulomb-a50-n8": (build_coulomb_hamiltonian(8, 50.0, -1.0).matrix, 8),
        "coulomb-a50-n14": (build_coulomb_hamiltonian(14, 50.0, -1.0).matrix, 14),
        "coulomb-a1e4-n14": (build_coulomb_hamiltonian(14, 1e4, -1.0).matrix, 14),
        "one-off-diagonal-1e-12": (_with_entry(build_coulomb_hamiltonian(8, 0.5, -1.0).matrix, 4, 3, 1e-12), None),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fallback_cases(self, name):
        h, want = self.CASES[name]
        assert not metrics._recursion_certifies(np.asarray(h, dtype=complex), 1e-10)
        got = dieudonne_solution_dimension(h)
        assert got == _svd_dimension(h)
        if want is not None:
            assert got == want

    def test_svd_overcounts_a_near_degenerate_chain(self):
        # an ill-scaled PT chain with two eigenvalues 5e-7 apart: the SVD at
        # 1e-10 counts two near-solutions (singular values 9.9e-11 of the
        # largest) as exact ones, while the next ones down sit at 1e-16; the
        # structural path returns the exact N, which the SVD gives at 1e-12
        lower = np.array([-86.5j, 0.125, 0.5j, 0.5j, 0.25j, 0.5, -1j])
        upper = np.conj(lower[::-1])
        h = _tridiagonal(np.zeros(8), lower, upper)
        assert np.array_equal(np.conj(h)[::-1, ::-1], h)
        assert dieudonne_solution_dimension(h) == 8
        assert _svd_dimension(h) == 10
        assert metrics._kronecker_nullity(h.astype(complex), 1e-12) == 8

    def test_svd_overcounts_below_the_old_window(self):
        # a PT chain whose heavy end sites couple through 0.5i hops: their two
        # eigenvalues near 13572 lie 1.4e-9 apart, so the SVD's two
        # near-solutions sit at 9.99983e-14 of its largest singular value,
        # just under 1e-13, and it counts 6; the exact nullity is 4
        h = _tridiagonal(np.array([13572, 0, 0, 13572]), np.full(3, -0.5j), np.full(3, 0.5j))
        assert np.array_equal(np.conj(h)[::-1, ::-1], h)
        assert dieudonne_solution_dimension(h) == 4
        assert _svd_dimension(h) == 6
        assert metrics._kronecker_nullity(h.astype(complex), 1e-14) == 4
        assert _nullity_at_40_digits(h) == 4


class TestStructuralBasis:
    @pytest.mark.parametrize("n", [4, 14, 64])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.999, 3.0])
    def test_parity_times_basis_commutes_with_h(self, n, frac):
        # H^dag = P H P turns H^dag X = X H into [H, P X] = 0
        h = build_coulomb_hamiltonian(n, frac * _alpha(n), -1.0)
        basis, residual = _basis(h)
        hm, p = h.matrix, parity(n).matrix
        scale = np.linalg.norm(hm)
        for theta in basis:
            px = p @ theta
            assert np.linalg.norm(hm @ px - px @ hm) <= 1e-13 * scale * np.linalg.norm(theta)
            assert dieudonne_residual(h, theta) <= 1e-14
        assert np.linalg.norm(residual) <= 1e-13 * scale

    @staticmethod
    def _from_first_row(h, theta):
        # the basis combination weighted by theta's own first row
        basis, _ = _basis(h)
        got = np.einsum("b,bij->ij", theta[0], basis)
        return np.linalg.norm(got - theta) / np.linalg.norm(theta)

    @pytest.mark.parametrize("k, m, a", [(1.0, 0.0, 0.5), (2.0, -0.7, 0.9), (0.3, 1.5, -1.2)])
    def test_n2_family_in_basis(self, k, m, a):
        h = build_coulomb_hamiltonian(2, a, -1.0)
        assert self._from_first_row(h, n2_metric(k, m, a).matrix) <= 1e-12

    @pytest.mark.parametrize(
        "k, m, r, eta, a, z",
        [(1.0, 0.0, 1.0, 0.0, 0.4, -1.0), (0.5, 1.2, -0.8, 0.3, 0.7, -0.8), (2.0, -1.0, 0.5, 1.5, 1.3, -1.2)],
    )
    def test_n4_ansatz_in_basis(self, k, m, r, eta, a, z):
        h = build_coulomb_hamiltonian(4, a, z)
        theta = n4_metric_ansatz(k, m, r, eta, a, z).matrix
        assert self._from_first_row(h, theta) <= 1e-12

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_biorthogonal_metric_in_basis(self, frac):
        h = build_coulomb_hamiltonian(14, frac * _alpha(14), -1.0)
        theta = metric_from_biorthogonal(eigensystem(h)).matrix
        assert self._from_first_row(h, theta) <= 1e-12


class TestStructuralPathTaken:
    # the SVD at N=64 is a 4096 x 4096 complex SVD and at N=256 out of reach:
    # these chains must never get there
    @pytest.mark.parametrize("n", [14, 64, 256])
    @pytest.mark.parametrize("frac", [0.5, 0.999, 3.0])
    def test_coulomb_never_reaches_svd(self, monkeypatch, n, frac):
        def no_svd(*args):
            raise AssertionError("Kronecker SVD reached")

        monkeypatch.setattr(metrics, "_kronecker_nullity", no_svd)
        h = build_coulomb_hamiltonian(n, frac * _alpha(n), -1.0)
        assert dieudonne_solution_dimension(h) == n


class TestKroneckerSizeGuard:
    @pytest.mark.parametrize(
        "h",
        [
            build_coulomb_hamiltonian(64, 100 * _alpha(64), -1.0),
            np.random.default_rng(3).normal(size=(metrics.KRONECKER_MAX_DIM + 1,) * 2),
        ],
        ids=["coulomb-64-far-outside", "dense-33"],
    )
    def test_uncertified_large_input_raises_before_building(self, monkeypatch, h):
        def no_kron(*args):
            raise AssertionError("Kronecker map built")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(ValueError, match=f"N <= {metrics.KRONECKER_MAX_DIM}"):
            dieudonne_solution_dimension(h)


MATRIX_CONSUMERS = {
    "dieudonne_residual(h)": lambda m: dieudonne_residual(m, np.eye(2)),
    "dieudonne_residual(theta)": lambda m: dieudonne_residual(np.eye(2), m),
    "is_positive": is_positive,
    "band_width": band_width,
    "s_inner_product": lambda m: s_inner_product(np.ones(2), np.ones(2), m),
    "dieudonne_solution_dimension": dieudonne_solution_dimension,
}


@pytest.mark.parametrize("name", sorted(MATRIX_CONSUMERS))
@pytest.mark.parametrize(
    "m",
    [np.ones((2, 3)), np.array([[1.0, np.nan], [0.0, 1.0]]), np.diag([np.inf, 1.0])],
    ids=["non-square", "nan", "inf"],
)
def test_malformed_matrices_are_rejected(name, m):
    with pytest.raises(ValueError):
        MATRIX_CONSUMERS[name](m)
