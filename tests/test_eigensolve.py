import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcoulomb import (
    DegenerateSpectrumError,
    build_coulomb_hamiltonian,
    characteristic_polynomial,
    closed_form_spectrum_n4,
    eigensolve,
    eigensystem,
    eigenvalues,
    secular_coefficients_n4,
    secular_coefficients_n6,
)
from ptcoulomb.eigensolve import REALITY_RTOL
from helpers import (
    brute_force_charpoly,
    dirichlet_laplacian_eigenvalues,
    multiset_deviation,
)

N4_ALPHA_EXACT = 0.75 * np.sqrt(10.0 - 4.0 * np.sqrt(5.0))


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(3))
        assert spec.fully_real

    def test_free_lattice_matches_dirichlet_laplacian(self):
        spec = eigenvalues(build_coulomb_hamiltonian(4, 0.0, -1.0))
        want = dirichlet_laplacian_eigenvalues(4)
        np.testing.assert_allclose(spec.eigenvalues.real, want, atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalues.imag, 0, atol=1e-12)

    def test_n4_closed_form_oracle(self):
        got = eigenvalues(build_coulomb_hamiltonian(4, 0.5, -1.0)).eigenvalues
        assert multiset_deviation(got, closed_form_spectrum_n4(0.5)) < 1e-10

    def test_sorted_by_re_then_im(self):
        vals = eigenvalues(build_coulomb_hamiltonian(8, 1.5, -1.0)).eigenvalues
        keys = [(v.real, v.imag) for v in vals]
        assert keys == sorted(keys)

    def test_conjugate_pairs_in_complex_regime(self):
        spec = eigenvalues(build_coulomb_hamiltonian(4, 1.5, -1.0))
        assert spec.n_real == 0
        vals = spec.eigenvalues
        assert multiset_deviation(vals, np.conj(vals)) < 1e-9

    def test_real_part_window(self):
        # real eigenvalues stay inside (0, 4) within the reality domain
        for n, a in [(2, 0.9), (4, 0.7), (6, 0.5), (8, 0.4)]:
            spec = eigenvalues(build_coulomb_hamiltonian(n, a, -1.0))
            assert spec.fully_real
            assert np.all(spec.eigenvalues.real > 0)
            assert np.all(spec.eigenvalues.real < 4)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_classification_tolerance_below_zero(self, tol):
        m = build_coulomb_hamiltonian(4, 0.3, -1.0)
        with pytest.raises(ValueError, match="classification tolerance"):
            eigenvalues(m, classification_tolerance=tol)
        with pytest.raises(ValueError, match="classification tolerance"):
            eigensystem(m, classification_tolerance=tol)

    def test_zero_classification_tolerance_is_accepted(self):
        spec = eigenvalues(np.diag([1.0, 2.0]), classification_tolerance=0.0)
        assert spec.fully_real and spec.classification_tolerance == 0.0

    @pytest.mark.parametrize(
        "m",
        [
            build_coulomb_hamiltonian(2, 0.5, -1.0).matrix,
            build_coulomb_hamiltonian(8, 1.5, -1.0).matrix,
            build_coulomb_hamiltonian(10, 0.3, 0.5).matrix,
            build_coulomb_hamiltonian(64, 2.0, -1.0).matrix,
            np.random.default_rng(5).normal(size=(7, 7)) * 3.0,
            np.array([[0.1, 0.2], [0.0, 0.1j]]),
        ],
    )
    def test_classification_tolerance_uses_the_norm_bound(self, m):
        bound = np.sqrt(np.linalg.norm(m, 1)) * np.sqrt(np.linalg.norm(m, np.inf))
        tol = eigenvalues(m).classification_tolerance
        assert tol == REALITY_RTOL * max(1.0, bound)
        assert tol >= REALITY_RTOL * np.linalg.norm(m, 2)

    def test_norm_bound_does_not_overflow(self):
        # eigenvalues +-1e200 i; the square of the norm bound would be inf
        m = np.array([[0.0, 1e200], [-1e200, 0.0]])
        spec = eigenvalues(m)
        assert spec.n_real == 0
        assert spec.classification_tolerance == REALITY_RTOL * 1e200
        assert eigensystem(m).spectrum.n_real == 0

    def test_norm_bound_beyond_the_float_range(self):
        # finite entries, row and column sums 2e308; eigenvalues 1e308 +- 1e308 i
        spec = eigenvalues(np.array([[1e308, 1e308], [-1e308, 1e308]]))
        assert spec.n_real == 0
        assert spec.classification_tolerance == REALITY_RTOL * np.finfo(float).max

    def test_eigensystem_gap_beyond_the_float_range(self):
        # the eigenvalue gap 2e308 i overflows to inf, which is never degenerate
        system = eigensystem(np.array([[1e308, 1e308], [-1e308, 1e308]]))
        assert system.spectrum.n_real == 0
        np.testing.assert_allclose(system.spectrum.eigenvalues, [1e308 - 1e308j, 1e308 + 1e308j])

    def test_scaled_norm_bound_equals_the_unscaled_formula(self):
        def unscaled(m):
            a = np.abs(m)
            return float(np.sqrt(a.sum(axis=0).max()) * np.sqrt(a.sum(axis=1).max()))

        rng = np.random.default_rng(20121)
        for _ in range(2000):
            n = rng.integers(1, 12)
            m = 10.0 ** rng.uniform(-150, 150, (n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
            assert eigensolve._norm_bound(m) == unscaled(m)

    def test_norm_bound_is_the_row_sum_for_coulomb_matrices(self):
        m = build_coulomb_hamiltonian(12, 0.7, -1.0).matrix
        want = REALITY_RTOL * np.abs(m).sum(axis=1).max()
        assert eigenvalues(m).classification_tolerance == pytest.approx(want, rel=1e-15)
        assert eigensystem(m).spectrum.classification_tolerance == pytest.approx(
            want, rel=1e-15
        )

    @given(
        n=st.integers(min_value=1, max_value=6).map(lambda k: 2 * k),
        a=st.floats(min_value=0, max_value=3, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_up_down_symmetry(self, n, a):
        # tolerance sqrt(eps)-scale: the coupling range crosses exceptional
        # points, where eigenvalue perturbations grow like sqrt of roundoff
        vals = eigenvalues(build_coulomb_hamiltonian(n, a, -1.0)).eigenvalues
        assert multiset_deviation(vals, 4.0 - np.conj(vals)) < 1e-7


class TestEigensystem:
    def test_hermitian_left_equals_right(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.0, -1.0))
        vr, vl = sys_.right_vectors, sys_.left_vectors
        for n in range(6):
            overlap = abs(np.vdot(vl[:, n], vr[:, n]))
            assert overlap == pytest.approx(1.0, abs=1e-10)
            # same direction up to phase
            cross = abs(np.vdot(vr[:, n], vl[:, n]))
            norms = np.linalg.norm(vr[:, n]) * np.linalg.norm(vl[:, n])
            assert cross == pytest.approx(norms, abs=1e-10)

    def test_residuals(self):
        h = build_coulomb_hamiltonian(8, 0.3, -1.0)
        sys_ = eigensystem(h)
        m = h.matrix
        norm = np.linalg.norm(m, 2)
        for n, eps in enumerate(sys_.spectrum.eigenvalues):
            r = np.linalg.norm(m @ sys_.right_vectors[:, n] - eps * sys_.right_vectors[:, n])
            assert r <= 1e-10 * norm * np.linalg.norm(sys_.right_vectors[:, n])
            l = np.linalg.norm(
                m.conj().T @ sys_.left_vectors[:, n]
                - np.conj(eps) * sys_.left_vectors[:, n]
            )
            assert l <= 1e-10 * norm * np.linalg.norm(sys_.left_vectors[:, n])

    def test_n2_biorthogonality(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(2, 0.5, -1.0))
        overlap = np.vdot(sys_.left_vectors[:, 0], sys_.right_vectors[:, 1])
        assert abs(overlap) < 1e-12

    def test_n6_completeness(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(6, 0.3, -1.0))
        resolution = np.zeros((6, 6), dtype=complex)
        for n in range(6):
            ket = sys_.right_vectors[:, n]
            bra = sys_.left_vectors[:, n].conj()
            resolution += np.outer(ket, bra) / (bra @ ket)
        assert np.max(np.abs(resolution - np.eye(6))) < 1e-10

    def test_normalization_diagonal_is_one(self):
        sys_ = eigensystem(build_coulomb_hamiltonian(4, 0.4, -1.0))
        gram = sys_.left_vectors.conj().T @ sys_.right_vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_exceptional_point_raises(self):
        h = build_coulomb_hamiltonian(4, N4_ALPHA_EXACT, -1.0)
        with pytest.raises(DegenerateSpectrumError):
            eigensystem(h)


class TestCharacteristicPolynomial:
    def test_identity_2x2(self):
        np.testing.assert_allclose(
            characteristic_polynomial(np.eye(2)), [1, -2, 1], atol=1e-14
        )

    def test_printed_quartic(self):
        a = 0.5
        got = characteristic_polynomial(build_coulomb_hamiltonian(4, a, -1.0))
        np.testing.assert_allclose(got, secular_coefficients_n4(a), atol=1e-12)

    def test_printed_sextic(self):
        a = 1.0 / 3.0
        got = characteristic_polynomial(build_coulomb_hamiltonian(6, a, -1.0))
        np.testing.assert_allclose(got, secular_coefficients_n6(a), atol=1e-11)

    def test_real_coefficients_for_pt_symmetric_input(self):
        for n, a in [(4, 0.5), (8, 1.7), (12, 2.0)]:
            coeffs = characteristic_polynomial(build_coulomb_hamiltonian(n, a, -1.0))
            assert np.max(np.abs(coeffs.imag)) < 1e-12 * np.max(np.abs(coeffs))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("a", [0.2, 0.9, 2.0])
    def test_roots_match_eigenvalues(self, n, a):
        h = build_coulomb_hamiltonian(n, a, -1.0)
        roots = np.roots(characteristic_polynomial(h))
        vals = eigenvalues(h).eigenvalues
        assert multiset_deviation(roots, vals) < 1e-9

    @pytest.mark.parametrize("n", [12, 14])
    @pytest.mark.parametrize("a", [0.2, 0.9, 2.0])
    def test_polynomial_vanishes_at_eigenvalues_large_n(self, n, a):
        # extracting degree-14 roots from coefficients is ill-conditioned in
        # float64, so certify agreement by evaluation residual instead
        h = build_coulomb_hamiltonian(n, a, -1.0)
        coeffs = characteristic_polynomial(h)
        vals = eigenvalues(h).eigenvalues
        for e in vals:
            # coefficient roundoff is absolute at the size of the largest terms
            scale = np.polyval(np.abs(coeffs), max(1.0, abs(e)))
            assert abs(np.polyval(coeffs, e)) <= 1e-13 * scale
        assert multiset_deviation(np.roots(coeffs), vals) < 1e-6

    def test_against_determinant_interpolation_oracle(self):
        h = build_coulomb_hamiltonian(6, 0.8, -0.7)
        got = characteristic_polynomial(h)
        want = brute_force_charpoly(h.matrix)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="N <= 32"):
            characteristic_polynomial(np.eye(40))
