"""Closed-form conjugate Hessians and the exact Jacobians of the Newton polish."""

from dataclasses import replace

import numpy as np
import pytest

from infoacq import solver
from infoacq.catalog import guess_the_state, random_problem
from infoacq.costs import (
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    nested_shannon_cost,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    scale,
    shannon_kl_entropy,
)
from infoacq.solver import SolveOptions, _has_hessian, _kkt_system, _slice_basis, solve
from infoacq.transform import chi2, tabulated


def _prior(rng, n):
    prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
    return prior / prior.sum()


def _full_hessians(H):
    """(m, n, n) Hessians from either hess_rows layout."""
    return H[:, :, None] * np.eye(H.shape[1])[None] if H.ndim == 2 else H


def _fd_hessians(model, X):
    """Central differences of grad_rows, one state coordinate at a time."""
    m, n = X.shape
    out = np.empty((m, n, n))
    for j in range(n):
        h = 1e-6 * model.prior[j]
        E = np.zeros_like(X)
        E[:, j] = h
        out[:, :, j] = (model.grad_rows(X + E) - model.grad_rows(X - E)) / (2 * h)
    return out


def _fd_jacobian(F, z, h=1e-7):
    cols = []
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        cols.append((F(z + e) - F(z - e)) / (2 * h))
    return np.column_stack(cols)


def _hessian_models(prior):
    shannon_table = np.column_stack([np.linspace(-3.0, 3.0, 61), np.exp(np.linspace(-3.0, 3.0, 61))])
    ps_kl = posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.2))
    # numeric conjugate; Hessians by the implicit function theorem
    hw = neighborhood_hw_cost(prior, [(tuple(range(prior.size)), 0.3), ((0, 1), 0.8), ((2, 3, 4), 0.6)])
    # three overlapping nests over five states, one of them without state 0
    kernel = np.array([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4], [0.5, 0.2, 0.3]])
    nested = nested_shannon_cost(prior, build_encoder(kernel, prior), 0.7, [0.4, 1.1, 2.0])
    return {
        "mutual_information": mutual_information_cost(prior, 0.8),
        "chi2": chi2_cost(prior, 1.0),
        "tabulated": csiszar_cost(prior, tabulated(shannon_table)),
        "ps_kl": ps_kl,
        "ps_kl_scaled": scale(ps_kl, 2.0),
        "neighborhood_hw": hw,
        "neighborhood_hw_scaled": scale(hw, 2.0),
        "nested_shannon": nested,
        "nested_shannon_scaled": scale(nested, 2.0),
    }


class TestHessRows:
    @pytest.mark.parametrize(
        "name",
        [
            "mutual_information",
            "chi2",
            "tabulated",
            "ps_kl",
            "ps_kl_scaled",
            "neighborhood_hw",
            "neighborhood_hw_scaled",
            "nested_shannon",
            "nested_shannon_scaled",
        ],
    )
    def test_matches_central_differences_of_gradients(self, name):
        rng = np.random.default_rng(41)
        prior = _prior(rng, 5)
        model = _hessian_models(prior)[name]
        # payoff-space arguments (a - lam_pi) * prior with a - lam_pi in
        # [-0.9, 1.5]: away from the chi2 kink at -kappa
        X = rng.uniform(-0.9, 1.5, size=(6, 5)) * prior[None, :]
        H = _full_hessians(model.hess_rows(X))
        fd = _fd_hessians(model, X)
        assert H.shape == (6, 5, 5)
        np.testing.assert_allclose(H, fd, rtol=1e-6, atol=1e-6 * np.abs(H).max())

    def test_families_without_closed_form_return_none(self):
        rng = np.random.default_rng(42)
        prior = _prior(rng, 3)
        encoder = build_encoder(np.eye(3), prior)
        X = rng.normal(size=(2, 3)) * prior
        assert perceptual_csiszar_cost(prior, chi2(1.0), encoder).hess_rows(X) is None
        assert csiszar_cost(prior, replace(chi2(1.0), psi_pp=None)).hess_rows(X) is None

    def test_neighborhood_cost_has_hessian(self):
        p = guess_the_state(3, 1.0)
        assert _has_hessian(p, neighborhood_hw_cost(p.prior, [((0, 2), 0.8), ((0, 1, 2), 0.4)]))


class TestVectorizedPosteriorSeparableRows:
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_rows_equal_per_row_conjugates(self, kappa):
        rng = np.random.default_rng(43)
        prior = _prior(rng, 6)
        model = scale(posterior_separable_cost(prior, shannon_kl_entropy(prior, 0.7)), kappa)
        X = rng.normal(scale=2.0, size=(9, 6)) * prior
        per_row_v = np.array([model.f_star(x) for x in X])
        per_row_g = np.array([model.grad_f_star(x) for x in X])
        np.testing.assert_allclose(model.f_star_rows(X), per_row_v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.grad_rows(X), per_row_g, rtol=0, atol=1e-13)


class TestSupportSystem:
    """The Fischer-Burmeister optimality system over all actions."""

    def _point(self, rng, m, n_lam):
        # two zero weights: action 0 keeps t - v_0 nonzero, a smooth row of
        # phi, and _on_kink moves t onto v_1, the kink of phi at (0, 0)
        alpha = rng.dirichlet(np.ones(m))
        alpha[[0, 1]] = 0.0
        return np.concatenate([alpha / alpha.sum(), [0.3], 0.1 * rng.normal(size=n_lam)])

    def _on_kink(self, p, model, z, basis=None):
        """Move t so that action 1 (weight zero) attains it: phi at (0, 0)."""
        m = p.n_actions
        lam = basis @ z[m + 1 :] if basis is not None else z[m + 1 :]
        v = model.f_star_rows(solver.payoff_arguments(p, lam))
        z = z.copy()
        z[m] = v[1]
        return z

    def _check(self, p, model, z, basis=None):
        m, n = p.n_actions, p.n_states
        F, J = _kkt_system(p, model, z, basis, jac=True)
        assert J.shape == (F.size, z.size) == (z.size, z.size)
        fd = _fd_jacobian(lambda w: _kkt_system(p, model, w, basis)[0], z)
        # every row but the kink row phi(alpha_1, t - v_1) is smooth at z
        smooth = np.arange(F.size) != 1
        np.testing.assert_allclose(J[smooth], fd[smooth], rtol=1e-6, atol=1e-6 * np.abs(J).max())
        # the kink row takes the element 1 - 1/sqrt(2) for both arguments
        # of phi: d alpha_1 + d t + G_1 d lambda
        c = 1.0 - np.sqrt(0.5)
        g_1 = J[m : m + n, 1]
        expected = np.zeros(z.size)
        expected[[1, m]] = c
        expected[m + 1 :] = c * (g_1 @ basis if basis is not None else g_1)
        np.testing.assert_allclose(J[1], expected, rtol=1e-12, atol=1e-15)

    def test_plain_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        p = random_problem(rng, 5, 6)
        model = mutual_information_cost(p.prior, 0.9)
        z = self._on_kink(p, model, self._point(rng, p.n_actions, p.n_states))
        assert _kkt_system(p, model, z)[0].shape == (p.n_actions + p.n_states + 1,)
        self._check(p, model, z)

    def test_sum_zero_slice_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(45)
        p = random_problem(rng, 5, 6)
        model = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.3))
        basis = _slice_basis(p.n_states)
        z = self._on_kink(p, model, self._point(rng, p.n_actions, p.n_states - 1), basis)
        assert _kkt_system(p, model, z, basis)[0].shape == (p.n_actions + p.n_states,)
        self._check(p, model, z, basis)

    def test_no_jacobian_without_closed_form(self):
        rng = np.random.default_rng(46)
        p = random_problem(rng, 3, 3)
        model = perceptual_csiszar_cost(p.prior, chi2(1.0), build_encoder(np.eye(3), p.prior))
        z = self._point(rng, 3, 3)
        F, J = _kkt_system(p, model, z, jac=True)
        assert J is None and F.shape == (7,)


_COSTS = {
    "chi2": chi2_cost,
    "mutual_information": mutual_information_cost,
    "ps_kl": lambda prior: posterior_separable_cost(prior, shannon_kl_entropy(prior)),
}


class TestExactJacobianPolish:
    @pytest.mark.parametrize("n", [3, 8, 20])
    @pytest.mark.parametrize("family", sorted(_COSTS))
    def test_agrees_with_finite_difference_path(self, n, family):
        p = random_problem(np.random.default_rng(n), n, n, prior_floor=0.1 / n)
        opts = SolveOptions(backend="best_response")
        exact = solve(p, _COSTS[family](p.prior), opts)
        fd_model = _COSTS[family](p.prior)
        fd_model.hess_rows = lambda X: None
        fd = solve(p, fd_model, opts)
        for sol in (exact, fd):
            assert sol.converged
            assert max(sol.residual_alpha, sol.residual_lambda) <= opts.tol
        assert exact.value == pytest.approx(fd.value, abs=1e-12)

    @pytest.mark.parametrize("zeta", [0.1, 1.0])
    def test_nested_shannon_agrees_with_finite_difference_path(self, zeta):
        p = random_problem(np.random.default_rng(7), 4, 5, prior_floor=0.05)
        encoder = build_encoder(np.array([[0.7, 0.3], [0.6, 0.4], [0.2, 0.8], [0.1, 0.9]]), p.prior)
        opts = SolveOptions(backend="best_response")
        exact = solve(p, nested_shannon_cost(p.prior, encoder, zeta, [0.5, 1.5]), opts)
        fd_model = nested_shannon_cost(p.prior, encoder, zeta, [0.5, 1.5])
        fd_model.hess_rows = lambda X: None
        fd = solve(p, fd_model, opts)
        for sol in (exact, fd):
            assert sol.converged
            assert max(sol.residual_alpha, sol.residual_lambda) <= opts.tol
        assert exact.value == pytest.approx(fd.value, abs=1e-12)

    def _polish_evaluations(self, monkeypatch, p, model, opts):
        calls = []
        real_system = solver._kkt_system

        def counting_system(*args, **kwargs):
            calls.append(1)
            return real_system(*args, **kwargs)

        monkeypatch.setattr(solver, "_kkt_system", counting_system)
        sol = solve(p, model, opts)
        assert sol.converged
        return sol, len(calls)

    def test_polish_root_work_stays_bounded(self, monkeypatch):
        # evaluations of the optimality system by the Newton polish; the
        # active-set polish it replaced made about 1,560 on this solve
        p = random_problem(np.random.default_rng(20), 20, 20, prior_floor=0.1 / 20)
        _, evaluations = self._polish_evaluations(monkeypatch, p, chi2_cost(p.prior), SolveOptions())
        assert 0 < evaluations < 2000

    def test_polish_work_stays_bounded_under_mutual_information(self, monkeypatch):
        # the active-set polish spent about 36,900 evaluations here, nearly
        # all of them on support guesses that still held dominated actions
        p = random_problem(np.random.default_rng(20), 20, 20, prior_floor=0.005)
        model = mutual_information_cost(p.prior)
        sol, evaluations = self._polish_evaluations(
            monkeypatch, p, model, SolveOptions(backend="best_response")
        )
        assert 0 < evaluations < 2000
        # the multiplicative fixed point is an independent route to the value
        reference = solve(p, model, SolveOptions(tol=1e-11))
        assert sol.value == pytest.approx(reference.value, abs=1e-10)

    def test_numeric_conjugate_work_stays_bounded(self):
        # entropy evaluations behind one neighborhood solve: mirror ascent
        # from the prior with finite-difference Jacobians made about 11,700,
        # warm-started Newton conjugates with exact Jacobians about 290
        p = guess_the_state(3, 1.0)
        model = neighborhood_hw_cost(p.prior, [((0, 2), 0.8), ((0, 1, 2), 0.4)])
        value_fn = model.entropy.value_fn
        calls = []

        def counting_value(q):
            calls.append(1)
            return value_fn(q)

        model.entropy.value_fn = counting_value
        sol = solve(p, model)
        assert sol.converged
        assert 0 < len(calls) < 2000
