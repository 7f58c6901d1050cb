import dataclasses
import functools
import math

import numpy as np
import pytest

from infoacq._rootfind import stationary_point
from infoacq.catalog import random_kernel
from infoacq.divergence import csiszar_spec, f_divergence, f_mean, posterior_separable_spec
from infoacq.costs import shannon_kl_entropy
from infoacq.transform import chi2, scale_transform, shannon, shift_transform, tabulated

from simplex_ascent import maximize_on_simplex


def _uniform_spec(transform, n=2):
    return csiszar_spec(np.full(n, 1.0 / n), transform)


@functools.cache
def _table():
    ts = np.linspace(-3.0, 3.0, 25)
    return tabulated(np.column_stack([ts, np.exp(ts) * (1.0 + 0.1 * np.sin(ts))]))


def _transforms(kappa):
    """chi2, shifted chi2, a tabulated transform and chi2 without psi'', at scale kappa."""
    return {
        "chi2": chi2(kappa),
        "shifted_chi2": shift_transform(chi2(kappa), 0.5),
        "tabulated": scale_transform(_table(), kappa),
        "chi2_without_psi_pp": dataclasses.replace(chi2(kappa), psi_pp=None),
    }


TRANSFORMS = list(_transforms(1.0))


def _ascent_f_mean(spec, rows):
    """The f-mean by a simplex ascent on -D_f, refined by a stationarity Newton.

    This is the route the batched Newton of ``f_mean`` replaced; it shares
    no code with it, so it serves as an independent reference.
    """
    t, prior = spec.transform, spec.prior
    active = prior @ (rows > 0) > 0

    def grad(alpha):  # d D_f / d alpha_w = sum_s prior_s (phi(r) - r phi'(r))
        g = np.zeros(rows.shape[1])
        for w in np.flatnonzero(active):
            r = rows[:, w] / alpha[w]
            r_pos = np.where(r > 0, r, 1.0)
            g[w] = prior @ np.where(r > 0, t.phi(r_pos) - r_pos * t.phi_prime(r_pos), t.phi(0.0))
        return g

    def gap(alpha):
        g = grad(alpha)
        return float(alpha @ g - g[active].min())

    alpha, certified = maximize_on_simplex(
        lambda a: -f_divergence(spec, rows, a),
        lambda a: -grad(a),
        gap,
        np.where(active, prior @ rows, 0.0),
        tol=1e-9,
        refine=lambda a: stationary_point(grad, a, active, accept=lambda q: gap(q) <= 1e-9),
    )
    assert certified
    return f_divergence(spec, rows, alpha)


class TestDivergence:
    def test_zero_at_common_distribution(self):
        rng = np.random.default_rng(0)
        alpha = rng.dirichlet(np.ones(3))
        rows = np.tile(alpha, (2, 1))
        for t in (shannon(1.0), chi2(1.0)):
            assert f_divergence(_uniform_spec(t), rows, alpha) == pytest.approx(0.0, abs=1e-14)

    def test_fully_revealing_rows_against_uniform(self):
        rows = np.eye(2)
        alpha = np.array([0.5, 0.5])
        val = f_divergence(_uniform_spec(shannon(1.0)), rows, alpha)
        assert val == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_reference_mass_gives_infinity(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5]])
        alpha = np.array([1.0, 0.0])
        assert f_divergence(_uniform_spec(shannon(1.0)), rows, alpha) == math.inf

    def test_dead_outcome_contributes_nothing(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        alpha = np.array([1.0, 0.0])
        assert f_divergence(_uniform_spec(chi2(1.0)), rows, alpha) == pytest.approx(0.0)

    def test_posterior_separable_form_requires_unconditional(self):
        prior = np.array([0.5, 0.5])
        h = shannon_kl_entropy(prior, 1.0)
        spec = posterior_separable_spec(prior, h.value)
        rows = np.eye(2)
        assert f_divergence(spec, rows, np.array([0.5, 0.5])) == pytest.approx(math.log(2))
        assert f_divergence(spec, rows, np.array([0.4, 0.6])) == math.inf

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(7)
        spec = _uniform_spec(chi2(1.0), 3)
        for _ in range(25):
            rows = rng.dirichlet(np.ones(4), size=3)
            alpha = rng.dirichlet(np.ones(4))
            k = random_kernel(rng, 4, 3)
            garbled = rows @ k.rows
            g_alpha = alpha @ k.rows
            assert f_divergence(spec, garbled, g_alpha) <= f_divergence(spec, rows, alpha) + 1e-8

    def test_joint_convexity_on_segments(self):
        rng = np.random.default_rng(8)
        spec = _uniform_spec(shannon(1.0), 2)
        for _ in range(25):
            rows1 = rng.dirichlet(np.ones(3), size=2)
            rows2 = rng.dirichlet(np.ones(3), size=2)
            a1 = rng.dirichlet(np.ones(3))
            a2 = rng.dirichlet(np.ones(3))
            lam = rng.uniform()
            lhs = f_divergence(spec, lam * rows1 + (1 - lam) * rows2, lam * a1 + (1 - lam) * a2)
            rhs = lam * f_divergence(spec, rows1, a1) + (1 - lam) * f_divergence(spec, rows2, a2)
            assert lhs <= rhs + 1e-10


class TestFMean:
    def test_shannon_mean_is_unconditional(self):
        rng = np.random.default_rng(1)
        spec = _uniform_spec(shannon(1.0), 3)
        rows = rng.dirichlet(np.ones(4), size=3)
        res = f_mean(spec, rows)
        np.testing.assert_allclose(res.alpha, spec.prior @ rows, atol=1e-12)
        assert res.converged

    def test_posterior_separable_mean_forced(self):
        prior = np.array([0.3, 0.7])
        h = shannon_kl_entropy(prior, 1.0)
        spec = posterior_separable_spec(prior, h.value)
        rows = np.array([[0.9, 0.1], [0.2, 0.8]])
        res = f_mean(spec, rows)
        np.testing.assert_allclose(res.alpha, prior @ rows, atol=1e-14)

    def test_chi2_mean_matches_grid_search(self):
        rng = np.random.default_rng(2)
        spec = _uniform_spec(chi2(1.0), 2)
        rows = rng.dirichlet(np.ones(2), size=2)
        res = f_mean(spec, rows)
        grid = np.linspace(1e-4, 1 - 1e-4, 10001)
        vals = [f_divergence(spec, rows, np.array([s, 1 - s])) for s in grid]
        assert res.value == pytest.approx(min(vals), abs=1e-5)

    def test_mean_value_is_minimal(self):
        for transform in _transforms(0.8).values():
            rng = np.random.default_rng(3)
            spec = _uniform_spec(transform, 3)
            rows = rng.dirichlet(np.ones(3), size=3)
            res = f_mean(spec, rows)
            for _ in range(100):
                beta = rng.dirichlet(np.ones(3))
                assert res.value <= f_divergence(spec, rows, beta) + 1e-9

    def test_sparse_rows_under_a_skewed_prior_certify(self):
        # outcomes missing from some states and states of tiny mass: the
        # minimizer sits near faces of the simplex
        for name in TRANSFORMS:
            rng = np.random.default_rng(6)
            for _ in range(40):
                k, m = rng.integers(2, 9, size=2)
                prior = np.maximum(rng.dirichlet(np.full(k, 0.3)), 1e-6)
                spec = csiszar_spec(prior / prior.sum(), _transforms(rng.uniform(0.1, 3.0))[name])
                rows = rng.dirichlet(np.full(m, 0.2), size=k)
                rows[rows < 1e-3] = 0.0
                res = f_mean(spec, rows / rows.sum(axis=1, keepdims=True))
                assert res.converged and res.residual <= 1e-9, name

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_mean_matches_the_simplex_ascent(self, name):
        rng = np.random.default_rng(9)
        for _ in range(8):
            k, m = rng.integers(2, 6, size=2)
            spec = csiszar_spec(rng.dirichlet(np.ones(k)), _transforms(rng.uniform(0.3, 3.0))[name])
            rows = rng.dirichlet(np.full(m, 0.5), size=k)
            res = f_mean(spec, rows)
            assert res.converged and res.residual <= 1e-9
            assert res.value == pytest.approx(_ascent_f_mean(spec, rows), rel=1e-12)
