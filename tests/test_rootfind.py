"""The damped Newton method and the convex descent of ``infoacq._rootfind``."""

import numpy as np

from infoacq._rootfind import descend, fd_jacobian, newton


def _circle_line(z):
    """Root (sqrt 2, sqrt 2): the circle of radius 2 meets the diagonal."""
    return np.array([z[0] ** 2 + z[1] ** 2 - 4.0, z[0] - z[1]])


def _circle_line_jac(z):
    return np.array([[2.0 * z[0], 2.0 * z[1]], [1.0, -1.0]])


class TestNewton:
    def test_smooth_system_converges_to_rounding(self):
        z, F = newton(_circle_line, [1.0, 0.5], _circle_line_jac)
        np.testing.assert_allclose(z, [np.sqrt(2.0), np.sqrt(2.0)], rtol=0, atol=1e-15)
        assert np.max(np.abs(F)) <= 1e-14
        np.testing.assert_array_equal(F, _circle_line(z))

    def test_singular_jacobian_takes_the_least_squares_step(self):
        # rank one: every point of z0 + z1 = 2 is a root; from the origin the
        # least-squares step is the minimum-norm one, straight to (1, 1)
        def F(z):
            return np.array([z[0] + z[1] - 2.0, 2.0 * z[0] + 2.0 * z[1] - 4.0])

        z, Fz = newton(F, [0.0, 0.0], lambda z: np.array([[1.0, 1.0], [2.0, 2.0]]))
        np.testing.assert_allclose(z, [1.0, 1.0], rtol=0, atol=1e-15)
        assert np.max(np.abs(Fz)) <= 1e-14

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
