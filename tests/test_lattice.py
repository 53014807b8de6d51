import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcoulomb import (
    build_coulomb_hamiltonian,
    build_general_hamiltonian,
    build_grid,
    is_pt_symmetric,
    parity,
)

even_n = st.integers(min_value=1, max_value=10).map(lambda k: 2 * k)
couplings = st.floats(min_value=-5, max_value=5, allow_nan=False)
exponents = st.floats(min_value=-2, max_value=1, allow_nan=False)


class TestGrid:
    def test_n4_lambda5(self):
        g = build_grid(4, 5.0)
        assert g.spacing == 2.0
        np.testing.assert_array_equal(g.nodes, [-3.0, -1.0, 1.0, 3.0])

    def test_n2_lambda_1p5(self):
        g = build_grid(2, 1.5)
        assert g.spacing == 1.0
        np.testing.assert_array_equal(g.nodes, [-0.5, 0.5])

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_grid(3, 1.0)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            build_grid(4, 0.0)

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite"):
            build_grid(4, cutoff)

    @given(n=even_n, cutoff=st.floats(min_value=0.1, max_value=100))
    def test_nodes_symmetric_and_zero_free(self, n, cutoff):
        g = build_grid(n, cutoff)
        np.testing.assert_array_equal(g.nodes, -g.nodes[::-1])
        assert np.all(g.nodes != 0)
        steps = np.diff(g.nodes)
        np.testing.assert_allclose(steps, g.spacing, rtol=1e-12)


class TestCoulombHamiltonian:
    def test_n4_coulomb_diagonal(self):
        h = build_coulomb_hamiltonian(4, 0.9, -1.0)
        a = 0.9
        want = np.array([2 - 1j * a / 3, 2 - 1j * a, 2 + 1j * a, 2 + 1j * a / 3])
        np.testing.assert_array_equal(np.diag(h.matrix), want)
        np.testing.assert_array_equal(np.diag(h.matrix, 1), [-1, -1, -1])
        np.testing.assert_array_equal(np.diag(h.matrix, -1), [-1, -1, -1])

    def test_n4_z_generalized(self):
        a, z = 0.7, -0.5
        h = build_coulomb_hamiltonian(4, a, z)
        want = np.array([2 - 1j * a * 3**z, 2 - 1j * a, 2 + 1j * a, 2 + 1j * a * 3**z])
        np.testing.assert_array_equal(np.diag(h.matrix), want)

    def test_zero_coupling_real_symmetric(self):
        h = build_coulomb_hamiltonian(6, 0.0, -1.0)
        assert np.all(h.matrix.imag == 0)
        np.testing.assert_array_equal(h.matrix, h.matrix.T)
        np.testing.assert_array_equal(np.diag(h.matrix), 2.0 * np.ones(6))

    def test_tridiagonal_zeros_exact(self):
        h = build_coulomb_hamiltonian(8, 1.3, -1.0)
        n = 8
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 1:
                    assert h.matrix[i, j] == 0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_coulomb_hamiltonian(5, 0.5, -1.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_rejected(self, a):
        with pytest.raises(ValueError, match="must be finite, got a = "):
            build_coulomb_hamiltonian(4, a, -1.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_rejected(self, z):
        with pytest.raises(ValueError, match="exponent z must be finite"):
            build_coulomb_hamiltonian(4, 1.0, z)

    def test_overflowing_site_weights_rejected(self):
        # the largest N=4 weight 3^z is 1.6e308 at z = 646 and overflows at 647
        h = build_coulomb_hamiltonian(4, 1e-300, 646.0)
        assert np.all(np.isfinite(h.matrix))
        with pytest.raises(ValueError, match="site weights"):
            build_coulomb_hamiltonian(4, 1.0, 647.0)

    def test_overflowing_diagonal_rejected(self):
        with pytest.raises(ValueError, match="must be finite, got a = 1e"):
            build_coulomb_hamiltonian(4, 1e308, 1.0)

    @given(n=even_n, a=couplings, z=exponents)
    @settings(max_examples=60)
    def test_exact_pt_symmetry(self, n, a, z):
        h = build_coulomb_hamiltonian(n, a, z)
        assert is_pt_symmetric(h.matrix, tolerance=0.0)

    @given(n=even_n, a=couplings, z=exponents)
    @settings(max_examples=60)
    def test_trace_is_2n(self, n, a, z):
        tr = np.trace(build_coulomb_hamiltonian(n, a, z).matrix)
        assert tr.real == 2 * n
        assert abs(tr.imag) <= 1e-12 * max(1.0, abs(a))


class TestGeneralHamiltonian:
    def test_zero_potential_matches_zero_coupling(self):
        g = build_grid(4, 5.0)
        h = build_general_hamiltonian(g, lambda x: 0.0)
        np.testing.assert_array_equal(
            h.matrix, build_coulomb_hamiltonian(4, 0.0, -1.0).matrix
        )

    def test_coulomb_potential_reproduces_lattice_family_exact(self):
        g = build_grid(4, 5.0)
        h = build_general_hamiltonian(g, lambda x: 1j * 1.0 / x)
        want = build_coulomb_hamiltonian(4, 2 * g.spacing * 1.0, -1.0)
        np.testing.assert_array_equal(h.matrix, want.matrix)

    def test_coulomb_potential_reproduces_lattice_family_one_ulp(self):
        # h^2 * Z/x_j vs 2hZ/(2j-N-1) round differently for generic h
        g = build_grid(8, 3.0)
        h = build_general_hamiltonian(g, lambda x: 1j * 0.4 / x)
        want = build_coulomb_hamiltonian(8, 2 * g.spacing * 0.4, -1.0)
        assert np.max(np.abs(h.matrix - want.matrix)) <= 1e-15

    def test_real_potential_hermitian(self):
        g = build_grid(6, 4.0)
        h = build_general_hamiltonian(g, lambda x: x * x)
        m = h.matrix
        np.testing.assert_array_equal(m, m.conj().T)
        # Hermitian H solves the Dieudonne equation with the trivial metric
        assert np.linalg.norm(m.conj().T @ np.eye(6) - np.eye(6) @ m) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_potential_names_node(self):
        g = build_grid(4, 5.0)
        with pytest.raises(ValueError, match="node index 1"):
            build_general_hamiltonian(g, lambda x: 1.0 / (x + 1.0))


class TestParity:
    def test_n2(self):
        np.testing.assert_array_equal(parity(2).matrix, [[0, 1], [1, 0]])

    def test_n1(self):
        np.testing.assert_array_equal(parity(1).matrix, [[1.0]])

    def test_involution(self):
        p = parity(4).matrix
        np.testing.assert_array_equal(p @ p, np.eye(4))
        np.testing.assert_array_equal(p, np.fliplr(np.eye(4)))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            parity(0)


class TestIsPtSymmetric:
    def test_coulomb_family(self):
        h = build_coulomb_hamiltonian(8, 0.4, -1.0)
        assert is_pt_symmetric(h.matrix, 0.0)

    def test_uniform_imaginary_shift_is_not(self):
        assert not is_pt_symmetric(np.diag([2 + 1j, 2 + 1j]), 1e-12)

    def test_real_symmetric_toeplitz(self):
        m = 2 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        assert is_pt_symmetric(m, 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_pt_symmetric(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            is_pt_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
