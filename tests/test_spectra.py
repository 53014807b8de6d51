import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcoulomb import (
    build_coulomb_hamiltonian,
    characteristic_polynomial,
    closed_form_spectrum_n4,
    critical_coupling,
    exceptional_points,
    reality_report,
    secular_coefficients_n4,
    secular_coefficients_n6,
    spectra,
    sweep,
)
from helpers import multiset_deviation, n_real_brute

N4_ALPHA_EXACT = 0.75 * np.sqrt(10.0 - 4.0 * np.sqrt(5.0))


class TestClosedFormN4:
    def test_free_values(self):
        want = 2.0 - 2.0 * np.cos(np.arange(1, 5) * np.pi / 5.0)
        got = closed_form_spectrum_n4(0.0)
        assert multiset_deviation(got, want) < 1e-12

    def test_degeneracy_at_critical_coupling(self):
        vals = closed_form_spectrum_n4(N4_ALPHA_EXACT)
        gaps = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() < 1e-6

    def test_complex_regime(self):
        vals = closed_form_spectrum_n4(2.0)
        assert np.all(np.abs(vals.imag) > 0.1)
        assert multiset_deviation(vals, np.conj(vals)) < 1e-12

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.77, 1.3, 2.0])
    def test_matches_eigensolver(self, a):
        got = np.linalg.eigvals(build_coulomb_hamiltonian(4, a, -1.0).matrix)
        assert multiset_deviation(got, closed_form_spectrum_n4(a)) < 1e-9


class TestSecularCoefficients:
    @pytest.mark.parametrize("a", [0.0, 1.0 / 3.0, 0.5, 1.0])
    def test_quartic_matches_charpoly(self, a):
        got = characteristic_polynomial(build_coulomb_hamiltonian(4, a, -1.0))
        np.testing.assert_allclose(got, secular_coefficients_n4(a), atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0 / 3.0, 0.5])
    def test_sextic_matches_charpoly(self, a):
        got = characteristic_polynomial(build_coulomb_hamiltonian(6, a, -1.0))
        np.testing.assert_allclose(got, secular_coefficients_n6(a), atol=1e-11)


class TestRealityReport:
    def test_inside_domain_fully_real(self):
        rep = reality_report(build_coulomb_hamiltonian(4, 0.5, -1.0))
        assert rep.n_real == 4 and rep.fully_real and not rep.fully_complex

    def test_beyond_domain_fully_complex(self):
        # at N=4 both level pairs merge at the same coupling (up-down
        # symmetry), so just past alpha the spectrum is already fully complex
        rep = reality_report(build_coulomb_hamiltonian(4, 1.0, -1.0))
        assert rep.n_real == 0 and rep.fully_complex

    @pytest.mark.parametrize("z", [-1.0, -0.5, 0.5])
    def test_hermitian_at_zero_coupling(self, z):
        rep = reality_report(build_coulomb_hamiltonian(4, 0.0, z))
        assert rep.fully_real

    def test_partial_regime_n6(self):
        rep = reality_report(build_coulomb_hamiltonian(6, 0.7, -1.0))
        assert rep.n_real == 2
        assert not rep.fully_real and not rep.fully_complex

    def test_complex_count_even(self):
        for a in (0.3, 0.7, 1.2):
            rep = reality_report(build_coulomb_hamiltonian(6, a, -1.0))
            assert (6 - rep.n_real) % 2 == 0


class TestCriticalCoupling:
    def test_n2_unit_edge(self):
        assert critical_coupling(2, -1.0, 1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_n4_printed_value(self):
        got = critical_coupling(4, -1.0, 1e-8)
        assert got == pytest.approx(0.7706147226, abs=1e-7)

    def test_n6_printed_value(self):
        got = critical_coupling(6, -1.0, 1e-6)
        assert got == pytest.approx(0.589586, abs=1e-4)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            critical_coupling(4, -1.0, 0.0)


class TestExceptionalPoints:
    def test_n2_single_point(self):
        pts = exceptional_points(2, -1.0, 3.0, 1e-6)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(1.0, abs=1e-5)

    def test_n4_double_point(self):
        pts = exceptional_points(4, -1.0, 3.0, 1e-6)
        assert len(pts) == 2
        for p in pts:
            assert p == pytest.approx(0.7706147, abs=1e-5)

    def test_n6_three_points(self):
        pts = exceptional_points(6, -1.0, 3.0, 1e-6)
        assert len(pts) == 3
        assert pts[0] == pytest.approx(0.589586, abs=1e-4)
        assert pts[1] == pytest.approx(0.589586, abs=1e-4)
        # last point: where the final real pair complexifies, located by an
        # independent brute scan
        scan = np.linspace(0.6, 1.2, 2401)
        counts = np.array([n_real_brute(6, a) for a in scan])
        drop = scan[np.argmax(counts == 0)]
        assert pts[2] == pytest.approx(drop, abs=1e-3)

    def test_coarse_scan_splits_distinct_eps_sharing_a_cell(self):
        # scan cells 0.4 wide: the N=10 mergers near 0.673 (two pairs) and
        # 0.774 (one pair) fall in the same cell [0.4, 0.8]
        fine = exceptional_points(10, -1.0, 3.0, 1e-6)
        coarse = exceptional_points(10, -1.0, 0.4 * 512, 1e-6)
        np.testing.assert_allclose(coarse, fine, atol=2e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exceptional_points(4, -1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            exceptional_points(4, -1.0, 1.0, -1e-6)


class TestSweep:
    def test_n4_topology(self):
        table = sweep(4, -1.0, 0.0, 1.2, 121)
        assert np.all(np.diff(table.n_real) <= 0)
        alpha_idx = np.argmax(table.n_real < 4)
        assert table.couplings[alpha_idx] == pytest.approx(0.7706147, abs=0.011)
        # both level pairs merge together at N=4
        assert set(table.n_real) == {4, 0}

    def test_rows_match_brute_counts(self):
        table = sweep(6, -1.0, 0.0, 1.0, 21)
        for a, n_real in zip(table.couplings, table.n_real):
            assert n_real == n_real_brute(6, a)

    def test_continuity_ordering(self):
        table = sweep(8, -1.0, 0.0, 1.0, 201)
        jumps = np.abs(np.diff(table.eigenvalues, axis=0))
        # loci move smoothly except across exceptional points
        assert np.median(jumps) < 0.02

    def test_up_down_symmetry_per_row(self):
        table = sweep(6, -1.0, 0.0, 1.0, 11)
        for row in table.eigenvalues:
            assert multiset_deviation(row, 4.0 - np.conj(row)) < 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sweep(4, -1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            sweep(4, -1.0, 0.0, 1.0, 1)


def alpha_brute(n, z, iterations=40):
    """Edge of the fully-real interval by plain bisection of n_real_brute."""
    lo, hi = 0.0, 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if n_real_brute(n, mid, z) == n:
            lo = mid
        else:
            hi = mid
    return lo


class TestCouplingAxisEngine:
    @pytest.mark.parametrize("n", [2, 4, 10, 64])
    @pytest.mark.parametrize("z", [-1.0, -0.5, 0.5])
    def test_eigenvalues_match_complex_eigvals(self, n, z):
        alpha = alpha_brute(n, z)
        couplings = alpha * np.array([0.0, 0.5, 0.9, 1.5, 3.0])
        vals, _ = spectra._spectra_along(n, z, couplings)
        assert vals.shape == (len(couplings), n)
        counts = [n_real_brute(n, a, z) for a in couplings]
        assert counts[0] == n and counts[-1] < n  # inside and outside the interval
        for a, row in zip(couplings, vals):
            m = build_coulomb_hamiltonian(n, a, z).matrix
            bound = 1e-12 * max(1.0, np.linalg.norm(m, 2))
            assert multiset_deviation(row, np.linalg.eigvals(m)) <= bound
            keys = [(v.real, v.imag) for v in row]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [4, 10, 16])
    @pytest.mark.parametrize("z", [-1.0, -0.5, 0.5])
    def test_counts_match_brute_away_from_eps(self, n, z):
        grid = np.linspace(0.0, 2.0, 801)
        brute = np.array([n_real_brute(n, a, z) for a in grid])
        # every EP lies in an interval where the brute count changes; keep
        # only grid points at least one step (2.5e-3) away from those intervals
        change = np.flatnonzero(np.diff(brute))
        near = np.zeros(grid.size, dtype=bool)
        near[change] = near[change + 1] = True
        assert change.size and not near.all()
        _, counts = spectra._spectra_along(n, z, grid)
        np.testing.assert_array_equal(counts[~near], brute[~near])

    @given(
        z=st.floats(min_value=-1.2, max_value=-0.8),
        n=st.sampled_from([6, 8, 10]),
    )
    @settings(max_examples=15, deadline=None)
    def test_each_ep_drops_the_brute_count_by_its_pairs(self, z, n):
        tol = 1e-6
        pts = exceptional_points(n, z, 3.0, tol)
        assert pts
        # coincident EPs (one bracket, k pairs) form one cluster of size k
        clusters = [[pts[0]]]
        for p in pts[1:]:
            if p - clusters[-1][-1] <= 4 * tol:
                clusters[-1].append(p)
            else:
                clusters.append([p])
        for cluster in clusters:
            p, k = cluster[0], len(cluster)
            drop = n_real_brute(n, p - 2 * tol, z) - n_real_brute(n, p + 2 * tol, z)
            assert drop == 2 * k

    def test_stacks_stay_within_the_byte_budget(self, monkeypatch):
        sizes = []
        eigvals = np.linalg.eigvals

        def spy(stack):
            sizes.append((stack.shape[0], stack.nbytes))
            return eigvals(stack)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        table = sweep(64, -1.0, 0.0, 0.2, 100)
        assert sum(count for count, _ in sizes) == 100
        assert max(count for count, _ in sizes) > 1
        assert all(nbytes <= spectra.STACK_BYTES for _, nbytes in sizes)
        assert table.eigenvalues.shape == (100, 64)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            spectra._spectra_along(5, -1.0, [0.1])


def fake_counts(steps):
    """Stand-in for the engine whose real count follows a step table."""
    edges, values = zip(*steps)

    def engine(n_points, exponent, couplings):
        a = np.atleast_1d(np.asarray(couplings, dtype=float))
        return None, np.array(values)[np.searchsorted(edges, a, side="right") - 1]

    return engine


class TestNonMonotoneCounts:
    # count n up to 0.3, fewer on [0.3, 0.5), n again on [0.5, 0.7), then 0
    steps = [(0.0, 4), (0.3, 2), (0.5, 4), (0.7, 0)]

    def test_critical_coupling_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_spectra_along", fake_counts(self.steps))
        with pytest.raises(RuntimeError, match="not monotone"):
            critical_coupling(4, -1.0, 1e-8)

    def test_exceptional_points_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "_spectra_along", fake_counts(self.steps))
        with pytest.raises(RuntimeError, match="non-monotone"):
            exceptional_points(4, -1.0, 3.0, 1e-6)


class TestAlphaPlateau:
    def test_alpha_times_n_levels_off(self):
        scaled = {n: critical_coupling(n, -1.0, 1e-8) * n for n in (64, 100)}
        for value in scaled.values():
            assert 4.30 <= value <= 4.45
        assert abs(scaled[64] - scaled[100]) <= 0.05

    def test_alpha_times_n_levels_off_at_large_n(self):
        sizes = (64, 100, 200, 256)
        scaled = [critical_coupling(n, -1.0, 1e-8) * n for n in sizes]
        for value in scaled:
            assert 4.30 <= value <= 4.45
        # alpha*N still creeps up (4.359 at 64, 4.414 at 256): bound neighbouring sizes
        assert all(abs(b - a) <= 0.05 for a, b in zip(scaled, scaled[1:]))


class TestSharedRefinement:
    @pytest.mark.parametrize("n", [4, 6, 10])
    @pytest.mark.parametrize("z", [-1.2, -1.0, -0.8])
    def test_critical_coupling_is_the_first_exceptional_point(self, n, z):
        alpha = critical_coupling(n, z, 1e-8)
        assert abs(alpha - exceptional_points(n, z, 3.0, 1e-6)[0]) <= 1e-6

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_searches_reject_tolerances_not_above_zero(self, tol):
        with pytest.raises(ValueError, match="positive"):
            critical_coupling(4, -1.0, tol)
        with pytest.raises(ValueError, match="positive"):
            exceptional_points(6, -1.0, 3.0, tol)

    def test_critical_coupling_below_float_spacing_raises(self):
        with pytest.raises(ValueError, match="float spacing at a = 0.7706"):
            critical_coupling(4, -1.0, 1e-20)

    @pytest.mark.parametrize("n", [4, 6])
    def test_exceptional_points_below_float_spacing_raises(self, n):
        with pytest.raises(ValueError, match="float spacing"):
            exceptional_points(n, -1.0, 3.0, 1e-20)

    def test_unseparable_drop_below_float_spacing_raises(self, monkeypatch):
        # a drop of 4 that no split separates is narrowed to adjacent floats
        monkeypatch.setattr(spectra, "_spectra_along", fake_counts([(0.0, 4), (0.7, 0)]))
        with pytest.raises(ValueError, match="float spacing at a = 0.69"):
            exceptional_points(4, -1.0, 3.0, 1e-20)


class TestRefinementWork:
    @pytest.fixture
    def work(self, monkeypatch):
        """[engine calls, matrices solved] through the coupling-axis engine."""
        counts = [0, 0]
        engine = spectra._spectra_along

        def spy(n_points, exponent, couplings):
            counts[0] += 1
            counts[1] += np.atleast_1d(couplings).size
            return engine(n_points, exponent, couplings)

        monkeypatch.setattr(spectra, "_spectra_along", spy)
        return counts

    def test_critical_coupling_halves_one_bracket(self, work):
        # the fold solve needs no eigensolve; one call on r and r + tol certifies it
        critical_coupling(10, -1.0, 1e-8)
        assert work == [1, 2]

    def test_exceptional_points_beat_the_eight_way_split(self, work):
        # the scan-then-split-then-bisect search made 19 calls on 596 matrices
        exceptional_points(10, -1.0, 3.0, 1e-6)
        assert work[0] < 19 and work[1] < 596

    def test_exceptional_points_scan_then_one_certificate(self, work):
        # the 513-point scan, then fold -+ tol for each of the 3 brackets in one call
        pts = exceptional_points(10, -1.0, 3.0, 1e-6)
        assert len(pts) == 5
        assert work == [2, spectra.EP_SCAN_SAMPLES + 1 + 2 * 3]


class TestFoldCertificate:
    """A fold the dense count does not certify hands its search to the
    bracket halving, which still returns within tolerance."""

    @staticmethod
    def break_fold_solve(monkeypatch, shift):
        newton = spectra._fold_newton
        monkeypatch.setattr(spectra, "_fold_newton", lambda *args: newton(*args) + shift)

    @pytest.mark.parametrize("shift", [1e-3, -1e-3, float("nan")])
    @pytest.mark.parametrize("n", [4, 10])
    def test_critical_coupling_falls_back(self, monkeypatch, n, shift):
        tol = 1e-8
        want = critical_coupling(n, -1.0, tol)
        self.break_fold_solve(monkeypatch, shift)
        got = critical_coupling(n, -1.0, tol)
        assert abs(got - want) <= tol
        assert n_real_brute(n, got) == n and n_real_brute(n, got + tol) < n

    @pytest.mark.parametrize("shift", [1e-3, float("nan")])
    def test_exceptional_points_fall_back(self, monkeypatch, shift):
        tol = 1e-6
        want = exceptional_points(10, -1.0, 3.0, tol)
        self.break_fold_solve(monkeypatch, shift)
        got = exceptional_points(10, -1.0, 3.0, tol)
        assert len(got) == len(want)
        assert all(abs(g - w) <= tol for g, w in zip(got, want))

    def test_one_failed_bracket_is_refined_alone(self, monkeypatch):
        # only the fold of the last bracket (the single pair near 0.774) is off
        tol = 1e-6
        want = exceptional_points(10, -1.0, 3.0, tol)
        newton = spectra._fold_newton
        monkeypatch.setattr(
            spectra, "_fold_newton", lambda *args: newton(*args) + np.where(args[2] > 0.7, 1e-3, 0)
        )
        got = exceptional_points(10, -1.0, 3.0, tol)
        assert got[:4] == want[:4]
        assert abs(got[4] - want[4]) <= tol and got[4] != want[4]

    @pytest.mark.parametrize("n", [2, 4, 10, 24, 64])
    @pytest.mark.parametrize("z", [-1.2, -1.0, -0.8, -0.5, 0.5])
    def test_fold_path_agrees_with_the_halving(self, monkeypatch, n, z):
        tol = 1e-8
        calls = []
        engine = spectra._spectra_along
        monkeypatch.setattr(
            spectra, "_spectra_along", lambda *args: calls.append(args) or engine(*args)
        )
        fold = critical_coupling(n, z, tol)
        assert len(calls) == 1  # certified, no fallback
        self.break_fold_solve(monkeypatch, float("nan"))
        assert abs(critical_coupling(n, z, tol) - fold) <= tol


def fold_couplings(n, z, seeds):
    """Couplings of the folds p = dp/dlambda = 0 of p(lambda, a) = det(H(a) -
    lambda), solved at 40 digits from each seed coupling and the midpoint of
    the closest eigenvalue pair there.  p and dp/dlambda come from the
    three-term recurrence; both are real for real lambda and a."""
    mp = pytest.importorskip("mpmath")
    folds = []
    with mp.workdps(40):
        s = [mp.sign(k) * mp.power(abs(k), z) for k in range(1 - n, n, 2)]

        def fold(a, lam):
            p0, p1, q0, q1 = mp.mpc(1), 2 + 1j * a * s[0] - lam, mp.mpc(0), mp.mpc(-1)
            for sk in s[1:]:
                d = 2 + 1j * a * sk - lam
                p0, p1, q0, q1 = p1, d * p1 - p0, q1, d * q1 - p1 - q0
            return [p1.real, q1.real]

        for a0 in seeds:
            vals = np.sort(np.linalg.eigvals(build_coulomb_hamiltonian(n, a0, z).matrix))
            k = int(np.argmin(np.abs(np.diff(vals))))
            lam0 = 0.5 * (vals[k] + vals[k + 1]).real
            a, _ = mp.findroot(fold, (mp.mpf(a0), mp.mpf(lam0)))
            assert abs(a - a0) <= 1e-5
            folds.append(a)
    return sorted(folds)


class TestFoldOracle:
    @pytest.fixture(scope="class", params=[4, 6, 10, 16, 24])
    def folds(self, request):
        n = request.param
        return n, fold_couplings(n, -1.0, exceptional_points(n, -1.0, 3.0, 1e-6))

    def test_n4_fold_is_the_closed_form_edge(self):
        mp = pytest.importorskip("mpmath")
        got = fold_couplings(4, -1.0, exceptional_points(4, -1.0, 3.0, 1e-6))
        with mp.workdps(40):
            exact = mp.mpf(3) / 4 * mp.sqrt(10 - 4 * mp.sqrt(5))
            assert all(abs(a - exact) <= mp.mpf(10) ** -30 for a in got)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_searches_land_within_tolerance(self, folds, tol):
        n, want = folds
        got = exceptional_points(n, -1.0, 3.0, tol)
        assert len(got) == len(want)
        assert all(abs(g - w) <= tol for g, w in zip(got, want))
        assert abs(critical_coupling(n, -1.0, tol) - want[0]) <= tol

    @pytest.mark.parametrize("n", [4, 6, 10, 16, 24])
    @pytest.mark.parametrize("tol", [1e-14, 1e-15])
    def test_tolerances_below_the_floor_raise(self, n, tol):
        with pytest.raises(ValueError, match="float spacing at a = "):
            exceptional_points(n, -1.0, 3.0, tol)
        with pytest.raises(ValueError, match="float spacing at a = "):
            critical_coupling(n, -1.0, tol)


class TestGreedyMatch:
    def test_ties_go_to_the_lowest_unused_index(self):
        vals = np.array([1.0, -1.0, 1j, 2.0])
        np.testing.assert_array_equal(
            spectra._greedy_match(np.array([0.0, 0.0, 0.0]), vals), [0, 1, 2]
        )

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_the_oracle(self, seed, n):
        # integer lattice points make equidistant candidates common
        rng = np.random.default_rng(seed)
        ref = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
        vals = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
        picks = spectra._greedy_match(ref, vals)
        assert sorted(picks) == list(range(n))
        # the oracle's scalar abs and numpy's array abs may differ in the last bit
        deviation = np.max(np.abs(vals[picks] - ref))
        assert deviation == pytest.approx(multiset_deviation(vals, ref), rel=1e-15)
