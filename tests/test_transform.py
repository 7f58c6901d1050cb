import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from infoacq.catalog import guess_the_state
from infoacq.costs import csiszar_cost
from infoacq.solver import SolveOptions, solve
from infoacq.transform import (
    chi2,
    conjugate_check,
    risk_indices,
    scale_transform,
    shannon,
    shift_transform,
    tabulated,
)


class TestConjugacy:
    def test_shannon_conjugate_residual(self):
        assert conjugate_check(shannon(1.0), [-1.0, 0.0, 1.0]) < 1e-8

    def test_chi2_flat_branch(self):
        t = chi2(1.0)
        assert t.psi(-2.0) == pytest.approx(-0.5)
        assert conjugate_check(t, [-3.0, -2.0, -0.5, 0.0, 1.5]) < 1e-8

    def test_normalizations(self):
        for t in (shannon(1.0), shannon(0.4), chi2(1.0), chi2(2.5)):
            assert t.psi(0.0) == pytest.approx(0.0, abs=1e-14)
            assert float(t.psi_prime(0.0)) == pytest.approx(1.0, abs=1e-14)
            assert float(t.phi(1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_phi_nonnegative_and_convex_by_sampling(self):
        grid = np.linspace(1e-6, 4.0, 200)
        for t in (shannon(1.0), chi2(0.7)):
            vals = np.asarray(t.phi(grid))
            assert np.all(vals >= -1e-12)
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] <= mid + 1e-10)

    def test_psi_prime_monotone(self):
        grid = np.linspace(-3.0, 3.0, 400)
        for t in (shannon(2.0), chi2(1.0)):
            vals = np.asarray(t.psi_prime(grid))
            assert np.all(np.diff(vals) >= -1e-12)

    def test_phi_prime_inverts_psi_prime(self):
        grid = np.linspace(-2.0, 2.0, 41)
        for t in (shannon(1.0), chi2(1.0), shift_transform(chi2(1.0), 2.0)):
            for x in grid:
                s = float(t.psi_prime(x))
                if s <= 1e-9:
                    continue
                assert float(t.phi_prime(s)) == pytest.approx(x, abs=1e-7)


class TestShift:
    def test_shannon_is_shift_invariant(self):
        base = shannon(1.0)
        shifted = shift_transform(base, 2.5)
        grid = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(shifted.psi(grid), base.psi(grid), atol=1e-12)
        np.testing.assert_allclose(shifted.phi(np.linspace(0.1, 3, 9)), base.phi(np.linspace(0.1, 3, 9)), atol=1e-12)

    def test_chi2_shift_algebra(self):
        t = shift_transform(chi2(1.0), 2.0)
        assert t.params["t_k"] == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(-1.5, 2.0, 13)
        expected = (((grid + 2.0) ** 2) / 2 + (grid + 2.0) - 1.5) / 2 - 1.0 / 2
        # psi_k(t) = (psi(t+1) - psi(1)) / 2 on the active branch
        expected = ((grid + 1.0) ** 2 / 2 + (grid + 1.0) - 1.5) / 2
        np.testing.assert_allclose(t.psi(grid), expected, atol=1e-12)
        assert float(t.psi_prime(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert t.psi(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_identity_shift(self):
        base = chi2(1.0)
        t = shift_transform(base, 1.0)
        grid = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(t.psi(grid), base.psi(grid), atol=1e-12)

    def test_shift_moves_curvature_index(self):
        base = chi2(1.0)
        t = shift_transform(base, 2.0)
        for x in (-0.3, 0.0, 0.4):
            r_shift = risk_indices(t, x)[0]
            r_base = risk_indices(base, x + t.params["t_k"])[0]
            assert r_shift == pytest.approx(r_base, rel=1e-10)

    def test_shift_composition(self):
        base = chi2(1.0)
        once = shift_transform(base, 2.0)
        twice = shift_transform(once, 1.5)  # relative shift
        direct = shift_transform(base, 2.0 * 1.5)
        grid = np.linspace(-1.0, 1.0, 21)
        np.testing.assert_allclose(twice.psi(grid), direct.psi(grid), atol=1e-10)

    def test_out_of_range_shift_rejected(self):
        with pytest.raises(ValueError, match="image"):
            shift_transform(chi2(1.0), -0.5)

    def test_conjugacy_of_shifted_transform(self):
        t = shift_transform(chi2(1.0), 2.0)
        assert conjugate_check(t, [-1.0, 0.0, 0.8]) < 1e-8


class TestRiskIndices:
    def test_shannon_constant_indices(self):
        for kappa in (0.5, 1.0, 3.0):
            t = shannon(kappa)
            for x in (-1.0, 0.0, 2.0):
                r, pr = risk_indices(t, x)
                assert r == pytest.approx(1.0 / kappa, rel=1e-12)
                assert pr == pytest.approx(1.0 / kappa, rel=1e-12)

    def test_chi2_index_at_zero(self):
        r, pr = risk_indices(chi2(1.0), 0.0)
        assert r == pytest.approx(1.0)
        assert pr == 0.0

    def test_index_matches_log_derivative(self):
        grid = [-0.5, 0.0, 0.7, 1.3]
        h = 1e-6
        for t in (shannon(1.3), chi2(2.0)):
            for x in grid:
                r = risk_indices(t, x)[0]
                fd = (
                    math.log(float(t.psi_prime(x + h))) - math.log(float(t.psi_prime(x - h)))
                ) / (2 * h)
                assert r == pytest.approx(fd, abs=1e-6)

    def test_flat_region_rejected(self):
        with pytest.raises(ValueError):
            risk_indices(chi2(1.0), -2.0)

    def test_kink_flagging(self):
        t = chi2(1.0)
        assert t.near_kink(-1.0)
        assert t.near_kink(-1.0 + 1e-8)
        assert not t.near_kink(0.0)


class TestScaling:
    def test_scaled_transform_matches_family_parameter(self):
        grid = np.linspace(-2, 2, 17)
        direct = chi2(2.0)
        scaled = scale_transform(chi2(1.0), 2.0)
        np.testing.assert_allclose(scaled.psi(grid), direct.psi(grid), atol=1e-12)
        np.testing.assert_allclose(scaled.psi_prime(grid), direct.psi_prime(grid), atol=1e-12)
        s_grid = np.linspace(0.1, 3, 17)
        np.testing.assert_allclose(scaled.phi(s_grid), direct.phi(s_grid), atol=1e-12)


class TestTabulated:
    def _shannon_table(self):
        ts = np.linspace(-3.0, 3.0, 61)
        return np.column_stack([ts, np.exp(ts)])

    def test_reproduces_tabulated_family(self):
        t = tabulated(self._shannon_table())
        base = shannon(1.0)
        grid = np.linspace(-2.0, 2.0, 11)
        np.testing.assert_allclose(t.psi_prime(grid), base.psi_prime(grid), rtol=1e-6)
        np.testing.assert_allclose(t.psi(grid), base.psi(grid), atol=1e-5)

    def test_conjugacy_within_tolerance(self):
        t = tabulated(self._shannon_table())
        assert conjugate_check(t, [-1.0, 0.0, 1.0]) < 1e-4

    def test_monotone_right_extrapolation(self):
        t = tabulated(self._shannon_table())
        grid = np.linspace(3.0, 6.0, 20)
        vals = np.asarray(t.psi_prime(grid))
        assert np.all(np.diff(vals) > 0)

    def test_normalization_enforced(self):
        ts = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError, match="psi'"):
            tabulated(np.column_stack([ts, 2.0 * np.exp(ts)]))

    def test_left_extrapolation_reaches_zero(self):
        t = tabulated(self._shannon_table())
        assert float(t.psi_prime(-50.0)) == 0.0

    def _coarse(self):
        ts = np.linspace(-3.0, 3.0, 25)
        return tabulated(np.column_stack([ts, np.exp(ts)]))

    def test_psi_matches_quadrature_beyond_the_table(self):
        t = self._coarse()
        knots = np.concatenate([np.linspace(-3.0, 3.0, 25), [t.params["t_zero"]]])
        for x in (-6.0, -3.5, 6.0, 10.0):
            points = knots[(knots - x) * knots < 0]  # strictly between 0 and x
            expected, _ = quad(t.psi_prime, 0.0, x, points=points, epsabs=0, epsrel=1e-13, limit=200)
            assert t.psi(x) == pytest.approx(expected, rel=1e-9)

    def test_array_calls_match_scalar_calls(self):
        t = self._coarse()
        for f, grid in (
            (t.psi, np.linspace(-8.0, 6.0, 29)),
            (t.psi_prime, np.linspace(-8.0, 6.0, 29)),
            (t.psi_pp, np.linspace(-8.0, 6.0, 29)),
            (t.phi_prime, np.linspace(0.0, 60.0, 31)),
            (t.phi, np.linspace(0.0, 60.0, 31)),
        ):
            out = f(grid)
            assert out.shape == grid.shape
            assert [float(v) for v in out] == [f(float(x)) for x in grid]
            assert all(isinstance(f(float(x)), float) for x in grid[:3])

    def test_phi_prime_inverts_psi_prime_on_every_piece(self):
        t = self._coarse()
        t_zero = t.params["t_zero"]
        for lo, hi in ((t_zero + 1e-3, -3.0), (-3.0, 3.0), (3.0, 9.0)):
            grid = np.linspace(lo, hi, 41)
            np.testing.assert_allclose(t.phi_prime(t.psi_prime(grid)), grid, rtol=0, atol=1e-10)
        assert t.phi_prime(0.0) == t_zero

    def test_psi_pp_matches_central_differences_across_knots(self):
        t = self._coarse()
        knots = np.linspace(-3.0, 3.0, 25)
        grid = np.concatenate([knots, knots[:-1] + 0.1, [-3.5, 4.0, 7.0]])
        h = 1e-6
        fd = (t.psi_prime(grid + h) - t.psi_prime(grid - h)) / (2 * h)
        np.testing.assert_allclose(t.psi_pp(grid), fd, rtol=1e-6)

    def test_best_response_solve_is_fast_and_converges(self):
        p = guess_the_state(3, 2.0)
        m = csiszar_cost(p.prior, self._coarse())
        start = time.monotonic()
        sol = solve(p, m)
        assert time.monotonic() - start < 10.0
        assert sol.converged
        assert max(sol.residual_alpha, sol.residual_lambda) <= SolveOptions().tol
