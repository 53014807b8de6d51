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
from helpers import multiset_deviation, n_real_brute, n_real_mp, trace_bound

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

    def test_distances_past_the_float_range(self):
        # at a = 1 the outer loci sit near -+1.66e308 i, so their distance
        # overflows to inf, which is never the nearest; no RuntimeWarning
        table = sweep(4, 646.0, 0.0, 1.0, 3)
        assert table.n_real.tolist() == [4, 2, 2]
        assert np.all(np.isfinite(table.eigenvalues))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sweep(4, -1.0, 0.0, 0.0, 10)
        with pytest.raises(ValueError):
            sweep(4, -1.0, 0.0, 1.0, 1)


def assert_each_cluster_drops_the_brute_count(n, z, pts, tol):
    """Coincident EPs (one bracket, k pairs) form one cluster of size k,
    across which n_real_brute falls by 2k between p - 2 tol and p + 2 tol."""
    assert pts
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
        assert_each_cluster_drops_the_brute_count(n, z, exceptional_points(n, z, 3.0, tol), tol)

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


def break_pair_seeds(monkeypatch):
    """Make every level-pair seed NaN, so exceptional_points takes the scan."""
    seeds = spectra._pair_seeds
    monkeypatch.setattr(
        spectra, "_pair_seeds", lambda *args: tuple(np.full_like(x, np.nan) for x in seeds(*args))
    )


def scanned_exceptional_points(n, z, a_max, tol):
    """exceptional_points through the scan path."""
    with pytest.MonkeyPatch.context() as mp:
        break_pair_seeds(mp)
        return exceptional_points(n, z, a_max, tol)


def fake_counts(steps):
    """Stand-in for the engine whose real count follows a step table; its
    eigenvalues are NaN, so no fold Newton seed from them converges."""
    edges, values = zip(*steps)

    def engine(n_points, exponent, couplings):
        a = np.atleast_1d(np.asarray(couplings, dtype=float))
        vals = np.full((a.size, n_points), np.nan, dtype=complex)
        return vals, np.array(values)[np.searchsorted(edges, a, side="right") - 1]

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


class TestTraceBoundBracket:
    """When the fold certificate fails, critical_coupling scans the count at
    65 couplings over [0, 2b], b = sqrt(2(N-1))/|s| (``helpers.trace_bound``)."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Couplings of every engine call, with the fold solve made NaN."""
        newton = spectra._fold_newton
        monkeypatch.setattr(spectra, "_fold_newton", lambda *args: newton(*args) + np.nan)
        calls = []
        engine = spectra._spectra_along

        def spy(n_points, exponent, couplings):
            calls.append(np.atleast_1d(couplings))
            return engine(n_points, exponent, couplings)

        monkeypatch.setattr(spectra, "_spectra_along", spy)
        return calls

    @pytest.mark.parametrize("n", [2, 10, 64])
    @pytest.mark.parametrize("z", [-2.0, -1.0, 0.5])
    def test_fallback_scans_to_twice_the_trace_bound(self, scans, n, z):
        alpha = critical_coupling(n, z, 1e-8)
        b = trace_bound(n, z)
        np.testing.assert_allclose(scans[0], np.linspace(0.0, 2 * b, 65), rtol=1e-14, atol=0)
        assert alpha <= b

    @pytest.mark.parametrize("n, z", [(4, 646.0), (64, 171.3), (4, -1e6), (64, -300.0)])
    def test_extreme_exponents_scan_a_finite_grid(self, scans, n, z):
        # the largest weights 3^646 and 63^171.3 are 1.67e308, so |s| itself
        # (about 1.41 times that) overflows; the suite turns any RuntimeWarning
        # into an error
        alpha = critical_coupling(n, z, 1e-8)
        grid = scans[0]
        assert grid.size == 65 and np.all(np.isfinite(grid)) and grid[-1] > 0
        assert 0 <= alpha <= grid[-1]


class TestNonMonotoneRealCount:
    """For z >~ 2.5 the real count can rise with the coupling.  The counts
    below hold at 50 digits too (``helpers.n_real_mp``); the double-precision
    ones are checked by ``n_real_brute``."""

    def test_critical_coupling_returns_the_first_loss(self):
        # full reality is lost before 1.35e-6 and back at 1.458e-6, which the
        # old [0, 2] bracket scan returned
        assert abs(critical_coupling(32, 3.5, 1e-10) - 1.26423e-6) <= 1e-10
        assert n_real_brute(32, 1.35e-6, 3.5) == 28
        assert n_real_brute(32, 1.4581e-6, 3.5) == 32

    def test_critical_coupling_raises_on_a_rise(self):
        # the old bracket scan returned 2.95509e-6, past a loss at 2.7e-6
        with pytest.raises(RuntimeError, match="not monotone"):
            critical_coupling(28, 3.5, 1e-10)
        assert n_real_brute(28, 2.7e-6, 3.5) == 24
        assert n_real_brute(28, 2.955e-6, 3.5) == 28

    def test_rise_behind_a_raise_holds_at_50_digits(self):
        with pytest.raises(RuntimeError, match=r"not monotone.*\[0\.00107.*, 0\.00113"):
            critical_coupling(8, 3.75, 1e-8)
        assert [n_real_mp(8, a, 3.75) for a in (1.077e-3, 1.131e-3)] == [4, 6]
        assert n_real_mp(28, 2.7e-6, 3.5) == 24

    @pytest.mark.xfail(
        strict=True,
        reason="the count falls 20 -> 16 at 3.538e-6 and rises 16 -> 20 at 3.794e-6 "
        "and 16 -> 18 at 6.800e-6; the 513-point scan sees none of it and a wrong "
        "list of 16 points comes back (needs real-curve tracing)",
    )
    def test_exceptional_points_raise_on_a_rise(self):
        assert [n_real_brute(32, a * 1e-6, 4.0) for a in (3.4, 3.7, 4.5, 6.5, 7.5)] == [
            20, 16, 20, 16, 18
        ]
        with pytest.raises(RuntimeError, match="non-monotone"):
            exceptional_points(32, 4.0, 3.0, 1e-10)


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
        with pytest.raises(ValueError, match="positive and >= 1e-13, got 1e-20"):
            critical_coupling(4, -1.0, 1e-20)

    @pytest.mark.parametrize("n", [4, 6])
    def test_exceptional_points_below_float_spacing_raises(self, n):
        with pytest.raises(ValueError, match="positive and >= 1e-13, got 1e-20"):
            exceptional_points(n, -1.0, 3.0, 1e-20)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 1e-14, 1e-20])
    def test_tolerances_below_the_floor_raise_before_any_solve(self, monkeypatch, tol):
        calls = []
        monkeypatch.setattr(spectra, "_spectra_along", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="positive and >= 1e-13, got"):
            critical_coupling(10, -1.0, tol)
        with pytest.raises(ValueError, match="positive and >= 1e-13, got"):
            exceptional_points(10, -1.0, 3.0, tol)
        assert calls == []

    @pytest.mark.parametrize(
        "func, args, name",
        [
            (critical_coupling, (10, -1.0, np.inf), "tolerance"),
            (exceptional_points, (10, -1.0, 3.0, np.inf), "tolerance"),
            (exceptional_points, (10, -1.0, np.nan, 1e-6), "a_max"),
            (exceptional_points, (10, -1.0, np.inf, 1e-6), "a_max"),
            (sweep, (4, -1.0, 0.0, np.inf, 3), "a_max"),
            (sweep, (4, -1.0, -np.inf, 0.0, 3), "a_min"),
            (sweep, (4, -1.0, np.nan, 1.0, 3), "a_min"),
            (sweep, (4, -1.0, -1e308, 1e308, 3), "a_min < a_max with a finite span"),
            (critical_coupling, (10, np.inf, 1e-8), "exponent"),
            (critical_coupling, (10, 1e10, 1e-8), "site weights"),
            (exceptional_points, (10, np.nan, 3.0, 1e-6), "exponent"),
            (exceptional_points, (10, 400.0, 3.0, 1e-6), "site weights"),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_non_finite_arguments_raise_before_any_solve(self, monkeypatch, func, args, name):
        calls = []
        for engine in ("_spectra_along", "_fold_newton"):
            monkeypatch.setattr(spectra, engine, lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=name):
            func(*args)
        assert calls == []

    def test_sweep_checks_the_exponent_before_any_eigensolve(self, monkeypatch):
        # sweep meets z first in the engine, which checks it before its LAPACK call
        calls = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="exponent z must be finite"):
            sweep(4, np.inf, 0.0, 1.0, 3)
        assert calls == []

    def test_unseparable_drop_below_float_spacing_raises(self, monkeypatch):
        # a drop of 4 that no split separates is narrowed to adjacent floats,
        # whose spacing near a = 1000 (1.1e-13) exceeds the tolerance
        monkeypatch.setattr(spectra, "_spectra_along", fake_counts([(0.0, 4), (1000.0, 0)]))
        with pytest.raises(ValueError, match="float spacing at a = 999.99"):
            exceptional_points(4, -1.0, 2000.0, 1e-13)


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

    @pytest.mark.parametrize("n", [10, 64])
    def test_critical_coupling_halves_one_bracket(self, work, n):
        # the fold solve needs no eigensolve; one call on r and r + tol certifies it
        critical_coupling(n, -1.0, 1e-8)
        assert work == [1, 2]

    def test_exceptional_points_beat_the_eight_way_split(self, work):
        # the scan-then-split-then-bisect search made 19 calls on 596 matrices
        exceptional_points(10, -1.0, 3.0, 1e-6)
        assert work[0] < 19 and work[1] < 596

    def test_exceptional_points_make_one_certificate_call(self, work):
        # no scan: fold -+ tol for each of the 3 distinct folds and a_max in one call
        pts = exceptional_points(10, -1.0, 3.0, 1e-6)
        assert len(pts) == 5
        assert work == [1, 2 * 3 + 1]


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
        # no pair seed converges, so the scan runs; there only the fold of
        # the last bracket (the single pair near 0.774) is off
        tol = 1e-6
        want = exceptional_points(10, -1.0, 3.0, tol)
        break_pair_seeds(monkeypatch)
        newton = spectra._fold_newton
        monkeypatch.setattr(
            spectra, "_fold_newton", lambda *args: newton(*args) + np.where(args[2] > 0.7, 1e-3, 0)
        )
        got = exceptional_points(10, -1.0, 3.0, tol)
        assert got[:4] == want[:4]
        assert abs(got[4] - want[4]) <= tol and got[4] != want[4]

    # the first inputs of their z whose level-pair seeds fail the count
    @pytest.mark.parametrize("n, z", [(8, 1.2), (36, 0.5)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_scan_inputs_drop_the_brute_count(self, n, z, tol):
        assert spectra._seeded_folds(n, z, 3.0, tol) is None
        pts = exceptional_points(n, z, 3.0, tol)
        assert len(pts) == n // 2
        assert_each_cluster_drops_the_brute_count(n, z, pts, tol)

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
        with pytest.raises(ValueError, match="positive and >= 1e-13, got"):
            exceptional_points(n, -1.0, 3.0, tol)
        with pytest.raises(ValueError, match="positive and >= 1e-13, got"):
            critical_coupling(n, -1.0, tol)


SCAN_FREE_N = [10, 24, 48, 64]
SCAN_FREE_Z = [-2.0, -1.2, -1.0, -0.8, -0.5]


class TestScanFreeFolds:
    """exceptional_points from the level-pair seeds, with no coupling scan."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        """Couplings per engine call; bracket halving fails the test."""
        sizes = []
        engine = spectra._spectra_along
        monkeypatch.setattr(
            spectra, "_spectra_along", lambda *args: sizes.append(np.size(args[2])) or engine(*args)
        )
        monkeypatch.setattr(spectra, "_refine", lambda *args: pytest.fail("bracket halving ran"))
        return sizes

    @pytest.mark.parametrize("n", SCAN_FREE_N)
    @pytest.mark.parametrize("z", SCAN_FREE_Z)
    def test_no_scan_and_no_halving(self, sizes, n, z):
        # includes N=64, z=-0.8, whose EPs near 0.47571 and 0.48003 share one
        # cell of the 513-point scan
        pts = exceptional_points(n, z, 3.0, 1e-6)
        # one certificate call: each distinct fold -+ tol, and a_max
        assert sizes == [2 * len(set(pts)) + 1]

    def test_lambda_step_limit_keeps_seeds_on_their_pair(self, sizes):
        # with unlimited lambda steps an inner seed at N=32, z=0.5 ends on
        # another pair's fold and the count sends the search to the scan
        pts = exceptional_points(32, 0.5, 3.0, 1e-6)
        assert len(pts) == 32 // 2 and sizes == [2 * len(set(pts)) + 1]

    @pytest.mark.parametrize("n", SCAN_FREE_N)
    @pytest.mark.parametrize("z", SCAN_FREE_Z)
    def test_agrees_with_the_scan(self, n, z):
        tol = 1e-10
        got = exceptional_points(n, z, 3.0, tol)
        want = scanned_exceptional_points(n, z, 3.0, tol)
        assert len(got) == len(want)
        assert all(abs(g - w) <= tol for g, w in zip(got, want))

    @given(
        n=st.integers(1, 20).map(lambda k: 2 * k),
        z=st.floats(min_value=-2.0, max_value=-0.3),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_agrees_with_the_scan(self, n, z, tol):
        got = exceptional_points(n, z, 3.0, tol)
        assert got == spectra._seeded_folds(n, z, 3.0, tol)  # certified, no scan
        want = scanned_exceptional_points(n, z, 3.0, tol)
        assert len(got) == len(want)
        assert all(abs(g - w) <= tol for g, w in zip(got, want))

    def test_folds_beyond_a_max_are_left_out(self):
        # N=10, z=-1: folds at 0.3914 (x2), 0.6731 (x2) and 0.7740
        full = exceptional_points(10, -1.0, 3.0, 1e-6)
        assert exceptional_points(10, -1.0, 0.7, 1e-6) == full[:4]

    # N=10, z=-1 certifies 7 counts: the 3 distinct folds - tol, + tol, then a_max
    @pytest.mark.parametrize("point, shift", [(0, -2), (3, 2), (6, 2)])
    def test_a_count_off_the_staircase_takes_the_scan(self, monkeypatch, point, shift):
        want = exceptional_points(10, -1.0, 3.0, 1e-6)
        sizes = []
        engine = spectra._spectra_along

        def spy(*args):
            vals, counts = engine(*args)
            if not sizes:
                counts[point] += shift
            sizes.append(np.size(args[2]))
            return vals, counts

        monkeypatch.setattr(spectra, "_spectra_along", spy)
        got = exceptional_points(10, -1.0, 3.0, 1e-6)
        assert sizes[:2] == [7, spectra.EP_SCAN_SAMPLES + 1]
        assert len(got) == len(want)
        assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))


class TestMergerAssumptions:
    """The two facts the level-pair seeds rest on."""

    @pytest.mark.parametrize("n", [2, 4, 10, 64])
    @pytest.mark.parametrize("z", [-1.0, -0.5])
    def test_chiral_symmetry_maps_h_to_four_minus_h(self, n, z):
        # S = diag((-1)^j) P, so level j and level N-1-j merge at one coupling
        h = build_coulomb_hamiltonian(n, 0.7, z).matrix
        s = np.diag((-1.0) ** np.arange(n)) @ np.eye(n)[::-1]
        # a signed permutation: S^-1 = S^T, and every product is exact
        np.testing.assert_array_equal(s @ h @ s.T, 4.0 * np.eye(n) - h)

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_merging_eigenvector_is_self_orthogonal(self, n):
        # Moiseyev, Non-Hermitian Quantum Mechanics (2011), ch. 9: at an EP
        # of a complex-symmetric H the right eigenvector has v^T v = 0, and
        # below it |v^T v| / v^dag v closes like sqrt(distance)
        mp = pytest.importorskip("mpmath")
        fold = fold_couplings(n, -1.0, [critical_coupling(n, -1.0, 1e-8)])[0]
        ratio = []
        for delta in (1e-6, 1e-8):
            h = build_coulomb_hamiltonian(n, float(fold - mp.mpf(delta)), -1.0).matrix
            vals, vecs = np.linalg.eig(h)
            v = vecs[:, np.argmin(vals.real)]  # the lowest level, in the ground pair
            ratio.append(abs(v @ v) / np.vdot(v, v).real)
        assert ratio[0] < 1e-2
        assert ratio[1] / ratio[0] == pytest.approx(0.1, rel=1e-3)


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

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           spread=st.sampled_from([0, 1, 2, 1000]), near=st.booleans(),
           nan=st.sampled_from(["", "ref", "vals"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sequential_loop(self, seed, n, spread, near, nan):
        # spread 0 makes every pick the same index, 1 and 2 give exact ties and
        # conflicting nearest picks; vals near a shuffled ref, as in a sweep,
        # give mostly distinct picks
        rng = np.random.default_rng(seed)
        pts = rng.integers(-spread, spread + 1, (2, 2, n))
        ref, vals = pts[:, 0] + 1j * pts[:, 1]
        if near:
            vals = rng.permutation(ref) + 0.25 * rng.integers(-1, 2, n)
        if nan:
            (ref if nan == "ref" else vals)[rng.integers(n)] = np.nan
        np.testing.assert_array_equal(spectra._greedy_match(ref, vals), _greedy_loop(ref, vals))

    def test_distinct_and_conflicting_nearest_picks(self):
        ref = np.array([0.0, 0.1, 1.0, 1.1])
        np.testing.assert_array_equal(spectra._greedy_match(ref, ref[::-1]), [3, 2, 1, 0])
        # 0.05 is nearest to both 0.0 and 0.1: the second takes the next nearest
        vals = np.array([0.05, 0.5, 1.0, 1.1])
        np.testing.assert_array_equal(spectra._greedy_match(ref, vals), [0, 1, 2, 3])


def _greedy_loop(ref, vals):
    """The sequential definition of ``spectra._greedy_match``."""
    dist = np.abs(vals[None, :] - ref[:, None])
    picks = np.empty(len(ref), dtype=int)
    for j, row in enumerate(dist):
        picks[j] = np.argmin(row)
        dist[:, picks[j]] = np.inf
    return picks
