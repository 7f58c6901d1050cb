"""The array Brent roots, the damped Newton method, the convex descent and
the simplex stationarity solve of ``infoacq._rootfind``."""

import math
import warnings

import numpy as np
import pytest

from infoacq import _rootfind, analysis, transform
from infoacq._rootfind import (
    BracketError,
    bracketed_root,
    bracketed_roots,
    descend,
    expand_bracket,
    fd_jacobian,
    newton,
    newton_step,
    stationary_point,
)


def _counted(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


class TestBracketedRoot:
    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError, match="no sign change"):
            bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(BracketError):
            bracketed_root(lambda x: -1.0 - x * x, -1.0, 1.0)

    @pytest.mark.parametrize("lo, hi, root", [(0.0, 2.0, 0.0), (-3.0, 0.5, 0.5)])
    def test_exact_zero_endpoint_is_returned_as_is(self, lo, hi, root):
        calls = []
        x = bracketed_root(_counted(lambda x: math.tanh(x - root), calls), lo, hi)
        assert x == root
        assert calls == [lo, hi]

    @pytest.mark.parametrize(
        "f, lo, hi, root",
        [
            # smooth: the fixed point of cos
            (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
            # convex across a wide bracket: the endpoint at 30 stalls a plain
            # regula falsi, which then creeps in from the left
            (lambda x: math.exp(x) - 2.0, -30.0, 30.0, math.log(2.0)),
            # a large root, where the tolerance is relative
            (lambda x: math.log(x / 3.0e6), 1.0, 1.0e7, 3.0e6),
        ],
    )
    @pytest.mark.parametrize("xtol", [1e-13, 1e-10])
    def test_root_is_within_tolerance(self, f, lo, hi, root, xtol):
        calls = []
        x = bracketed_root(_counted(f, calls), lo, hi, xtol=xtol)
        assert abs(x - root) <= xtol * max(1.0, abs(x))
        # bisection alone would take about 35 to 50 evaluations here
        assert len(calls) <= 20

    @pytest.mark.parametrize("y", [-0.2, 0.3, 4.0])
    def test_kinked_chi2_psi_is_inverted(self, y):
        # psi is flat at -kappa/2 left of the kink at -kappa and a parabola
        # right of it; the bracket spans both pieces
        for kappa in (0.5, 1.0, 3.0):
            t = transform.chi2(kappa)
            x = bracketed_root(lambda x: float(t.psi(x)) - y, -10.0 * kappa, 10.0 * kappa)
            root = kappa * (math.sqrt(1.0 + 2.0 * y / kappa) - 1.0)
            assert abs(x - root) <= 1e-13 * max(1.0, abs(x))

    @pytest.mark.parametrize("xtol", [1e-3, 1e-8, 1e-13])
    def test_returns_the_bracket_end_with_the_smaller_residual(self, xtol):
        f = lambda x: math.exp(x) - 2.0
        calls = []
        x = bracketed_root(_counted(f, calls), -30.0, 30.0, xtol=xtol)
        assert x in calls
        if f(x) == 0.0:  # an exact root ends the search
            return
        # the other end of the final bracket: the nearest evaluated point
        # where f has the other sign
        other = min((c for c in calls if (f(c) > 0.0) != (f(x) > 0.0)), key=lambda c: abs(c - x))
        assert abs(other - x) <= xtol * max(1.0, abs(x))
        assert abs(f(x)) <= abs(f(other))

    def test_cli_sweep_roots_stay_within_budget(self, monkeypatch):
        # the response and threshold sweeps of the cli-apps benchmark: chi2
        # at kappa 1, gamma 0.4 on twelve rewards, thresholds for n = 2..7;
        # every evaluation of an array call takes each column once
        evaluations = []

        def counting(g, lo, hi, **kwargs):
            calls = []
            x = _rootfind.bracketed_roots(_counted(g, calls), lo, hi, **kwargs)
            evaluations.append(len(calls))
            return x

        monkeypatch.setattr(analysis, "bracketed_roots", counting)
        monkeypatch.setattr(transform, "bracketed_roots", counting)
        t = transform.chi2(1.0)
        analysis.response_curve(t, 0.4, np.linspace(0.25, 5.0, 12))
        analysis._thresholds(t, range(2, 8), 1.0)
        # chi2 takes its closed-form multipliers and psi inverse, so the one
        # array call left is the thresholds' c_upper
        assert len(evaluations) == 1
        assert max(evaluations) <= 15


def _scalar_brent(f, lo, hi, xtol, max_iter=200):
    """Brent's method one root at a time, as the library took it before
    ``bracketed_roots``: the reference the array form must match bit for bit."""
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise BracketError("no sign change")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.5 * xtol * max(1.0, abs(b)), 2.0 * _rootfind._EPS * abs(b))
        half = 0.5 * (c - b)
        if abs(half) <= tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = float(f(b))
        if fb == 0.0:
            return b
    return b


# column families of (x, root, scale): smooth, convex across wide brackets,
# flat at the root, and with an infinite slope there
_FAMILIES = (
    lambda x, r, s: np.tanh(s * (x - r)),
    lambda x, r, s: np.expm1(s * (x - r)),
    lambda x, r, s: s * (x - r) ** 3 + 0.1 * (x - r),
    lambda x, r, s: s * np.cbrt(x - r),
)


class TestBracketedRoots:
    @pytest.mark.parametrize("xtol", [1e-10, 1e-13, 1e-14])
    @pytest.mark.parametrize("family", range(len(_FAMILIES)))
    def test_every_column_matches_the_scalar_brent(self, family, xtol):
        rng = np.random.default_rng(family)
        k = 60
        r, s = rng.uniform(-3.0, 3.0, k), rng.uniform(0.1, 5.0, k)
        lo, hi = r - rng.uniform(0.01, 10.0, k), r + rng.uniform(0.01, 10.0, k)
        # exact zeros at one end or the other, and a reversed bracket
        lo[0], hi[1] = r[0], r[1]
        lo[2], hi[2] = hi[2], lo[2]
        f = _FAMILIES[family]
        roots = bracketed_roots(lambda x: f(x, r, s), lo, hi, xtol=xtol)
        for i in range(k):
            assert roots[i] == _scalar_brent(lambda x: float(f(x, r[i], s[i])), lo[i], hi[i], xtol)
        assert roots[0] == lo[0] and roots[1] == hi[1]

    def test_stopped_columns_meet_no_new_point(self):
        # a column that has stopped is handed its result again: the exact
        # zero at lo is evaluated there only, while the other column runs on
        seen = []

        def g(x):
            seen.append(x[0])
            return np.array([x[0], math.cos(x[1]) - x[1]])

        roots = bracketed_roots(g, [0.0, 0.0], [1.0, 1.0])
        assert roots[0] == 0.0
        assert abs(roots[1] - 0.7390851332151607) <= 1e-13
        assert set(seen) == {0.0, 1.0}

    def test_no_sign_change_names_the_column(self):
        with pytest.raises(BracketError, match="no sign change in column 2"):
            bracketed_roots(lambda x: x * x - np.array([1.0, 1.0, -1.0]), [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])

    def test_no_column_is_no_work(self):
        calls = []
        roots = bracketed_roots(_counted(lambda x: x, calls), np.empty(0), np.empty(0))
        assert roots.shape == (0,) and len(calls) == 2

    def test_expansion_stops_per_column(self):
        # the first column brackets its root at once, the second after three
        # doublings about its centre
        lo, hi = expand_bracket(lambda x: x - np.array([0.5, 5.0]), [-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(lo, [-1.0, -8.0])
        np.testing.assert_array_equal(hi, [1.0, 8.0])
        with pytest.raises(BracketError, match="column 1"):
            expand_bracket(lambda x: np.array([x[0], x[1] ** 2 + 1.0]), [-1.0, -1.0], [1.0, 1.0])


def _circle_line(z):
    """Root (sqrt 2, sqrt 2): the circle of radius 2 meets the diagonal."""
    return np.array([z[0] ** 2 + z[1] ** 2 - 4.0, z[0] - z[1]])


def _circle_line_jac(z):
    return np.array([[2.0 * z[0], 2.0 * z[1]], [1.0, -1.0]])


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Count the least-squares solves of ``_rootfind``."""
    calls = []
    lstsq = _rootfind.np.linalg.lstsq
    monkeypatch.setattr(_rootfind.np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    return calls


class TestNewton:
    def test_smooth_system_converges_to_rounding(self, lstsq_calls):
        z, F = newton(_circle_line, [1.0, 0.5], _circle_line_jac)
        np.testing.assert_allclose(z, [np.sqrt(2.0), np.sqrt(2.0)], rtol=0, atol=1e-15)
        assert np.max(np.abs(F)) <= 1e-14
        np.testing.assert_array_equal(F, _circle_line(z))
        # a square nonsingular Jacobian takes LU steps only
        assert lstsq_calls == []

    def test_singular_jacobian_takes_the_least_squares_step(self, lstsq_calls):
        # rank one: every point of z0 + z1 = 2 is a root; from the origin the
        # least-squares step is the minimum-norm one, straight to (1, 1)
        def F(z):
            return np.array([z[0] + z[1] - 2.0, 2.0 * z[0] + 2.0 * z[1] - 4.0])

        z, Fz = newton(F, [0.0, 0.0], lambda z: np.array([[1.0, 1.0], [2.0, 2.0]]))
        np.testing.assert_allclose(z, [1.0, 1.0], rtol=0, atol=1e-15)
        assert np.max(np.abs(Fz)) <= 1e-14
        assert lstsq_calls

    def test_non_square_jacobian_takes_the_least_squares_step(self, lstsq_calls):
        # three consistent equations in two unknowns, with root (1, 2)
        def F(z):
            return np.array([z[0] - 1.0, z[1] - 2.0, z[0] + z[1] - 3.0])

        z, Fz = newton(F, [0.0, 0.0], lambda z: np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(z, [1.0, 2.0], rtol=0, atol=1e-15)
        assert np.max(np.abs(Fz)) <= 1e-15
        assert lstsq_calls

    def test_non_finite_start_is_returned(self):
        calls = []

        def F(z):
            calls.append(z.copy())
            with np.errstate(invalid="ignore"):
                return np.array([np.log(z[0]), z[1]])

        def jac(z):
            raise AssertionError("no step is taken from a non-finite start")

        z, Fz = newton(F, [-1.0, 3.0], jac)
        np.testing.assert_array_equal(z, [-1.0, 3.0])
        assert np.isnan(Fz[0])
        assert len(calls) == 1

    def test_forward_differences_without_a_jacobian(self):
        calls = []

        def F(z):
            calls.append(1)
            return _circle_line(z)

        z, Fz = newton(F, [1.0, 0.5])
        np.testing.assert_allclose(z, [np.sqrt(2.0), np.sqrt(2.0)], rtol=0, atol=1e-12)
        assert np.max(np.abs(Fz)) <= 1e-12
        # each Jacobian costs one extra F per coordinate
        assert len(calls) > 2 * 3
        z0 = np.array([0.7, -1.3])
        fd = fd_jacobian(_circle_line, z0, _circle_line(z0))
        np.testing.assert_allclose(fd, _circle_line_jac(z0), atol=1e-6)

    def test_jacobian_gets_the_array_the_system_last_saw(self):
        # the polish builds each Jacobian from the evaluation of the
        # system at the same array, so it must be the last one evaluated
        seen = []

        def F(z):
            seen.append(z)
            return np.arctan(z)

        def jac(z):
            assert z is seen[-1]
            return np.diag(1.0 / (1.0 + z**2))

        z, _ = newton(F, [3.0, -0.5], jac)
        assert abs(z).max() <= 1e-15 and len(seen) > 3

    def test_residual_check_overflow_is_not_reported(self, lstsq_calls):
        # at this scale |F|^2 overflows in the norm of the LU step's residual
        # check; the step is exact, so the check passes as before
        J, F = np.diag([1e200, 2e200]), np.array([1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            step = newton_step(J, F)
        np.testing.assert_array_equal(step, [-1.0, -0.5])
        assert lstsq_calls == []

    def test_start_at_the_residual_floor_forms_no_jacobian(self):
        # F = atan(z) reads about 2e-16 here: no step could lower it further
        calls = []

        def jac(z):
            raise AssertionError("no Jacobian is formed at a solved point")

        z0 = np.array([2e-16, -1e-16])
        z, Fz = newton(_counted(np.arctan, calls), z0, jac)
        np.testing.assert_array_equal(z, z0)
        np.testing.assert_array_equal(Fz, np.arctan(z0))
        assert np.max(np.abs(Fz)) <= _rootfind._RESIDUAL_FLOOR
        assert len(calls) == 1

    def test_one_jacobian_per_accepted_step_and_none_at_the_root(self):
        # root at the origin, which Newton reaches to well below the floor
        def F(z):
            return np.array([np.arctan(z[0] + z[1]), z[1] - z[0] ** 2 - 0.5 * np.sin(z[0])])

        def jac(z):
            d = 1.0 / (1.0 + (z[0] + z[1]) ** 2)
            return np.array([[d, d], [-2.0 * z[0] - 0.5 * np.cos(z[0]), 1.0]])

        seen, jacobians = [], []
        z, Fz = newton(_counted(F, seen), [1.0, 0.5], _counted(jac, jacobians))
        assert np.max(np.abs(Fz)) <= _rootfind._RESIDUAL_FLOOR
        # the accepted iterates are the points of the Jacobians, each taken
        # once and in the order F saw them, then the final iterate, at which
        # none is taken
        iterates = [id(x) for x in jacobians] + [id(z)]
        assert len(set(iterates)) == len(iterates) > 2
        order = [id(x) for x in seen]
        assert [order.index(i) for i in iterates] == sorted(order.index(i) for i in iterates)

    def test_a_residual_above_the_floor_still_takes_steps(self):
        # |F| ~ 1e-13 is a residual the solve lowers, not a tolerance it
        # accepts: its steps of 1e-10 and 2e-10 are far above the step stop
        jacobians = []

        def jac(z):
            return 1e-3 * np.diag(1.0 / (1.0 + z**2))

        z0 = np.array([1e-10, -2e-10])
        z, Fz = newton(lambda z: 1e-3 * np.arctan(z), z0, _counted(jac, jacobians))
        assert np.max(np.abs(1e-3 * np.arctan(z0))) >= 1e-13
        assert len(jacobians) == 1
        assert np.max(np.abs(z)) <= 1e-20 and np.max(np.abs(Fz)) <= 1e-20

    def test_backtracking_stops_on_a_failed_line_search(self):
        # F = atan(z) overshoots from z = 3 under the full Newton step; with
        # no halvings allowed the solve stops at the start
        def F(z):
            return np.arctan(z)

        def jac(z):
            return np.diag(1.0 / (1.0 + z**2))

        z, _ = newton(F, [3.0], jac, max_halvings=0)
        np.testing.assert_array_equal(z, [3.0])
        z, Fz = newton(F, [3.0], jac)
        assert abs(z[0]) <= 1e-15 and abs(Fz[0]) <= 1e-15


class TestDescend:
    """f(z) = log cosh(100 (z - 5)) / 100: convex, with F = -f' saturated at
    +-1 and f'' underflowing to zero far from the minimum at 5."""

    @staticmethod
    def f(z):
        u = 100.0 * (z[0] - 5.0)
        return (abs(u) + np.log1p(np.exp(-2.0 * abs(u))) - np.log(2.0)) / 100.0

    @staticmethod
    def F(z):
        return np.array([-np.tanh(100.0 * (z[0] - 5.0))])

    @staticmethod
    def jac(z):
        e = np.exp(-2.0 * abs(100.0 * (z[0] - 5.0)))
        return np.array([[-400.0 * e / (1.0 + e) ** 2]])  # -100 sech^2

    def test_newton_stalls_where_the_function_is_linear(self):
        z, Fz = newton(self.F, [0.0], self.jac)
        assert abs(Fz[0]) == 1.0 and abs(z[0] - 5.0) > 1.0

    def test_descent_reaches_the_minimum(self):
        z = descend(self.f, self.F, [0.0], self.jac, tol=1e-12)
        z, Fz = newton(self.F, z, self.jac)
        assert abs(Fz[0]) <= 1e-12
        assert abs(z[0] - 5.0) <= 1e-13

    def test_a_start_within_tolerance_is_returned(self):
        z = descend(self.f, self.F, [5.0], self.jac, tol=1e-12)
        np.testing.assert_array_equal(z, [5.0])


# the stationarity gradient and gap of p.u + Shannon entropy of p, whose
# maximizer over the simplex is softmax(u)
def _entropy_objective(u):
    def gradient(p):
        return u - np.log(np.maximum(p, 1e-300)) - 1.0

    def gap(p):
        g = gradient(p)
        return float(g.max() - p @ g)

    return gradient, gap


class TestSimplexMaximization:
    def test_underflowing_masses_leave_the_face(self):
        # the stationary masses of states 1 and 3 are e^-2000 and e^-1500:
        # Newton on the whole simplex cannot reach them, and ends far off
        u = np.array([0.0, -2000.0, -1.0, -1500.0])
        gradient, gap = _entropy_objective(u)
        def jac(p):
            return -np.diag(1.0 / np.maximum(p, 1e-300))

        q = stationary_point(gradient, np.full(4, 0.25), None, jac)
        assert q[1] == 0.0 and q[3] == 0.0
        expected = np.array([1.0, 0.0, np.exp(-1.0), 0.0]) / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)
        assert gap(q) <= 1e-12

    def test_a_rejected_reduced_face_keeps_this_faces_point(self):
        # p.u - |p|^2 / 2: action 2 is priced out, so Newton on the whole
        # simplex drives its mass toward zero and the reduced face holds the root
        u = np.array([1.0, 0.9, -0.5])

        def gradient(p):
            return u - p

        def jac(p):
            return -np.eye(p.size)

        q = stationary_point(gradient, np.full(3, 1 / 3), None, jac)
        np.testing.assert_allclose(q, [0.55, 0.45, 0.0], rtol=0, atol=1e-12)
        rejected = []
        fallback = stationary_point(
            gradient, np.full(3, 1 / 3), None, jac, accept=lambda p: rejected.append(p) or False
        )
        assert len(rejected) == 1
        assert fallback is not None and np.all(fallback > 0.0)
