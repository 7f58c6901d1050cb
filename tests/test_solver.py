import functools
import gc
import math
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infoacq import solver
from infoacq.analysis import multitask_experiment
from infoacq.catalog import (
    distance_encoder,
    exchangeable_problem,
    guess_the_state,
    multitask_problems,
    random_problem,
)
from infoacq.core import ValidationError, normalize_binary, validate_problem
from infoacq.costs import (
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    neighborhood_hw_entropy,
    nested_shannon_cost,
    nested_shannon_entropy,
    numeric_entropy,
    posterior_separable_cost,
    scale,
    shannon_kl_entropy,
)
from infoacq.oracle import verify_focs
from infoacq.solver import (
    SolveOptions,
    chi2_multiplier,
    duality_certificate,
    multiplier_bounds,
    reduce_solution,
    reduce_support,
    solve,
    solve_best_response,
    solve_mutual_information,
    solve_perceptual,
    statewise_multiplier,
)
from infoacq.transform import chi2, shannon, shift_transform


class TestMultiplierBounds:
    def test_entropy_cost_corner_formula(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, -1]), ("b", [0.5, 0.5])])
        m = mutual_information_cost(p.prior, 1.0)
        box = multiplier_bounds(p, m)
        phi = lambda t: t * math.log(t) - t + 1
        expected = 5.0 * (1.0 + max(phi(0.5), phi(1.5)))
        assert box.epsilon == 0.5
        assert box.bound == pytest.approx(expected, rel=1e-12)

    def test_quadratic_cost_corner_formula(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, -1]), ("b", [0.5, 0.5])])
        box = multiplier_bounds(p, chi2_cost(p.prior, 1.0))
        assert box.bound == pytest.approx(5.0 * (1.0 + 0.125), rel=1e-12)

    def test_translation_slice_box(self):
        p = guess_the_state(3, 1.0)
        m = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0))
        box = multiplier_bounds(p, m)
        assert box.translation_slice
        assert box.bound > 0 and math.isfinite(box.bound)


def _spread_entropy(family, prior, rng):
    n = prior.size
    if family == "nested_shannon":
        enc = build_encoder(rng.dirichlet(np.ones(3), size=n), prior)
        return nested_shannon_entropy(enc, 0.7, [1.0, 1.3, 0.6])
    if family == "neighborhood_hw":
        return neighborhood_hw_entropy(prior, [(tuple(range(n)), 0.2), ((0, 1), 1.0), (tuple(range(2, n)), 0.5)])
    # a quadratic entropy with a gradient and no closed-form conjugate
    return numeric_entropy(
        prior, lambda p: 0.5 * float(np.sum((p - prior) ** 2 / prior)), lambda p: (p - prior) / prior
    )


def _ball_points(rng, prior, eps, count):
    """Seeded points p of the simplex with |p - prior|_inf <= eps, weighted toward the rim."""
    for _ in range(count):
        d = rng.uniform(-1.0, 1.0, size=prior.size)
        d -= d.mean()
        yield prior + eps * rng.uniform() ** 0.25 * d / np.abs(d).max()


class TestEntropySpread:
    """The posterior-separable box's entropy spread, proven by vertex enumeration."""

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("family", ["nested_shannon", "neighborhood_hw", "numeric"])
    def test_enumerated_spread_bounds_the_ball(self, family, n):
        rng = np.random.default_rng(100 + n)
        prior = rng.dirichlet(np.ones(n)) * 0.6 + 0.4 / n
        prior /= prior.sum()
        h = _spread_entropy(family, prior, rng)
        model = posterior_separable_cost(prior, h)
        eps = prior.min() / 2
        calls = []
        value_fn = h.value_fn
        h.value_fn = lambda p: calls.append(1) or value_fn(p)
        spread = solver._ps_entropy_spread(model, eps)
        assert len(calls) <= len(solver._ball_vertices(prior, eps))
        h_prior = h.value(prior)
        worst = max(abs(h.value(p) - h_prior) for p in _ball_points(rng, prior, eps, 500))
        assert worst <= spread * (1 + 1e-9) + 1e-12

    def test_lower_side_binds_on_a_clipped_ball(self):
        # eps above prior[0] clips the ball at p_0 = 0, so it is not symmetric
        # about the prior, and the tilted entropy dips lower than it rises
        prior = np.array([0.1, 0.3, 0.6])
        g = np.array([-10.0, 0.0, 0.0])
        h = numeric_entropy(
            prior,
            lambda p: float(g @ (p - prior) + 0.5 * np.sum((p - prior) ** 2 / prior)),
            lambda p: g + (p - prior) / prior,
        )
        spread = solver._ps_entropy_spread(posterior_separable_cost(prior, h), 0.2)
        assert spread >= -h.value(np.array([0.3, 0.3, 0.4]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_vertex_count_of_the_default_ball(self, n):
        # at the default radius every coordinate has the same room 2 eps, so
        # vertices pair n // 2 coordinates at each bound (one left free when n is odd)
        prior = np.random.default_rng(n).dirichlet(np.ones(n)) * 0.5 + 0.5 / n
        prior /= prior.sum()
        eps = prior.min() / 2
        V = solver._ball_vertices(prior, eps)
        k = n // 2
        expected = math.comb(n, k) if n % 2 == 0 else n * math.comb(n - 1, k)
        assert len(V) == expected
        np.testing.assert_allclose(V.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(V - prior) <= eps + 1e-12)

    def test_wide_ball_is_the_simplex(self):
        prior = np.array([0.2, 0.3, 0.5])
        V = solver._ball_vertices(prior, 1.0)
        assert sorted(map(tuple, V)) == sorted(map(tuple, np.eye(3)))

    @pytest.mark.parametrize("n", [9, 11])
    @pytest.mark.parametrize("family", ["neighborhood_hw", "numeric"])
    def test_spread_beyond_the_vertex_budget_bounds_the_ball(self, family, n):
        # the default ball has more vertices than the budget here, so the
        # spread is read at the n vertices of a simplex containing the ball;
        # the ball's own vertices, all enumerated, give the exact maximum
        rng = np.random.default_rng(100 + n)
        prior = rng.dirichlet(np.ones(n)) * 0.5 + 0.5 / n
        prior /= prior.sum()
        h = _spread_entropy(family, prior, rng)
        eps = prior.min() / 2
        V = solver._ball_vertices(prior, eps)
        assert len(V) > n * (n - 1) + 256
        calls = []
        value_fn = h.value_fn
        h.value_fn = lambda p: calls.append(1) or value_fn(p)
        spread = solver._ps_entropy_spread(posterior_separable_cost(prior, h), eps)
        assert len(calls) == n
        h.value_fn = value_fn
        worst = max(abs(h.value(v)) for v in V)
        assert 0 < worst <= spread

    def test_nine_state_box_contains_the_multiplier(self):
        # beyond the vertex budget at n = 9, where the box used to be sampled
        p = random_problem(np.random.default_rng(5), 9, 4)
        hoods = [(tuple(range(9)), 0.2), ((0, 1), 1.0), ((2, 3), 1.0), ((4, 5), 1.0), ((6, 7), 1.0)]
        model = neighborhood_hw_cost(p.prior, hoods)
        box = multiplier_bounds(p, model)
        assert box.bound == pytest.approx(111.249, abs=1e-3)
        sol = solve(p, model)
        assert sol.converged
        assert sol.box_contains_multiplier is True


class TestBoxRetry:
    """No solve reruns in a larger box: a multiplier outside it is reported."""

    def test_best_response_runs_once_and_reports(self, monkeypatch):
        calls = []
        backend = solver._best_response_backend
        monkeypatch.setattr(solver, "_best_response_backend", lambda *a: calls.append(a) or backend(*a))
        monkeypatch.setattr(solver, "multiplier_bounds", lambda *a: solver.MultiplierBox(1e-6, 0.5))
        p = guess_the_state(3, 1.0)
        sol = solve(p, chi2_cost(p.prior, 1.0))
        assert len(calls) == 1
        assert sol.converged
        assert sol.box.bound == 1e-6
        assert sol.box_contains_multiplier is False


class TestStatewiseMultipliers:
    def test_quadratic_hand_example(self):
        alpha = np.array([0.5, 0.5])
        pay = np.array([1.0, 0.0])
        l = statewise_multiplier(alpha, pay, chi2(1.0))
        assert l == pytest.approx(0.5, abs=1e-11)
        t = chi2(1.0)
        p1 = 0.5 * float(t.psi_prime(1.0 - l))
        p2 = 0.5 * float(t.psi_prime(0.0 - l))
        assert p1 == pytest.approx(0.75)
        assert p2 == pytest.approx(0.25)

    def test_point_mass_pins_multiplier_at_payoff(self):
        alpha = np.array([1.0, 0.0])
        pay = np.array([0.37, -2.0])
        for t in (chi2(1.0), shannon(1.0)):
            assert statewise_multiplier(alpha, pay, t) == pytest.approx(0.37, abs=1e-11)

    def test_entropy_family_closed_form(self):
        rng = np.random.default_rng(0)
        t = shannon(0.8)
        for _ in range(25):
            alpha = rng.dirichlet(np.ones(4))
            pay = rng.uniform(-1, 1, size=4)
            root = statewise_multiplier(alpha, pay, t)
            closed = 0.8 * math.log(float(alpha @ np.exp(pay / 0.8)))
            assert root == pytest.approx(closed, abs=1e-10)

    def test_quadratic_closed_form_example(self):
        alpha = np.array([0.5, 0.5])
        pay = np.array([1.0, 0.0])
        assert chi2_multiplier(alpha, pay, 1.0) == pytest.approx(0.5)

    def test_quadratic_large_budget_gives_expected_payoff(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            alpha = rng.dirichlet(np.ones(3))
            pay = rng.uniform(-1, 1, size=3)
            lam = chi2_multiplier(alpha, pay, kappa=50.0)
            assert lam == pytest.approx(float(alpha @ pay), abs=1e-9)

    def test_quadratic_small_budget_boundary(self):
        alpha = np.array([0.6, 0.4])
        pay = np.array([1.0, 0.0])
        kappa = 1e-3
        lam = chi2_multiplier(alpha, pay, kappa)
        assert lam == pytest.approx(1.0 - kappa / 0.6 + kappa, abs=1e-12)

    def test_non_monotone_transform_reports_bracket_failure(self):
        import math

        from infoacq._rootfind import BracketError
        from infoacq.transform import Transform

        bogus = Transform(
            family="bogus",
            params={},
            phi=lambda t: np.asarray(t, dtype=float) * 0.0,
            phi_prime=lambda t: np.asarray(t, dtype=float) * 0.0,
            psi=lambda t: np.asarray(t, dtype=float) * 0.0,
            psi_prime=lambda t: 1.0 + np.cos(np.asarray(t, dtype=float)),
        )
        alpha = np.array([0.5, 0.5])
        pay = np.array([2 * math.pi, 0.0])
        with pytest.raises(BracketError, match="monotone"):
            statewise_multiplier(alpha, pay, bogus)

    def test_left_end_below_zero_by_rounding_is_the_root(self):
        # psi'(0) - 1 reads -1.1e-16 under this shifted chi2, so the equation
        # is negative at both ends of the bracket by rounding alone; the
        # second action's weight is too small to lift the left end
        t = shift_transform(chi2(0.31815316856162296), 0.4608529151202216)
        alpha = np.array([1.0, 9.5e-30])
        pay = np.array([-0.93567303, -0.43502124])
        assert statewise_multiplier(alpha, pay, t) == pay[0]
        # a state beside it keeps the root it has on its own
        other = np.array([0.2, -0.7])
        both = solver._statewise(alpha, np.column_stack([pay, other]), t)
        assert both[0] == pay[0] and both[1] == statewise_multiplier(alpha, other, t)

    def test_closed_form_agrees_with_bisection(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.integers(2, 6)
            alpha = rng.dirichlet(np.ones(m))
            pay = rng.uniform(-1, 1, size=m)
            kappa = rng.uniform(0.05, 2.0)
            a = chi2_multiplier(alpha, pay, kappa)
            b = statewise_multiplier(alpha, pay, chi2(kappa))
            assert a == pytest.approx(b, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    def test_batched_quadratic_rule_matches_each_column(self, seed):
        alpha, pay, kappa = _statewise_draw(seed)
        batched = solver._chi2_statewise(alpha, pay, kappa)
        for s in range(pay.shape[1]):
            assert batched[s] == chi2_multiplier(alpha, pay[:, s], kappa)

    @given(st.integers(0, 2**32 - 1))
    def test_batched_entropy_rule_matches_each_column(self, seed):
        alpha, pay, kappa = _statewise_draw(seed)
        batched = solver._mi_statewise(alpha, pay, kappa)
        for s in range(pay.shape[1]):
            # the per-state form: the log of the sum is the C library's and
            # the batched one NumPy's, which may differ by one ulp, carried
            # through the sum with the max and the product with kappa
            logits = np.where(alpha > 0, np.log(np.maximum(alpha, 1e-300)) + pay[:, s] / kappa, -np.inf)
            mx = logits.max()
            log_sum = math.log(np.exp(logits - mx).sum())
            ref = kappa * (mx + log_sum)
            ulps = kappa * (np.spacing(abs(log_sum)) + np.spacing(abs(mx + log_sum))) + np.spacing(abs(ref))
            assert abs(batched[s] - ref) <= ulps

    @given(st.integers(0, 2**32 - 1))
    def test_batched_root_matches_each_column(self, seed):
        alpha, pay, _ = _statewise_draw(seed)
        alpha = alpha / alpha.sum()
        for t in (shift_transform(chi2(1.0), 0.5), shift_transform(shannon(0.7), 1.5)):
            batched = solver._statewise(alpha, pay, t)
            for s in range(pay.shape[1]):
                one = statewise_multiplier(alpha, pay[:, s], t)
                # the matrix product of the batch may sum a column in another
                # order than the column alone, which can move g by an ulp and
                # Brent's final bracket with it; each root is within 1e-12
                # relative of its own
                assert abs(batched[s] - one) <= 1e-12 * max(1.0, abs(one))

    def test_shifted_transform_takes_one_array_root(self, monkeypatch):
        calls = []
        roots = solver.bracketed_roots
        monkeypatch.setattr(solver, "bracketed_roots", lambda *a, **k: calls.append(1) or roots(*a, **k))
        p = random_problem(np.random.default_rng(3), 6, 4)
        alpha = np.full(4, 0.25)
        for t in (shift_transform(chi2(1.0), 0.5), shift_transform(shannon(1.0), 1.5)):
            calls.clear()
            lam = solver._inner_minimize(p, csiszar_cost(p.prior, t), alpha, None)
            assert len(calls) == 1
            one = [statewise_multiplier(alpha, p.payoffs[:, s], t) for s in range(6)]
            np.testing.assert_allclose(lam, p.prior * one, rtol=1e-12)


def _statewise_draw(seed):
    """Weights with zeros, payoffs with ties and a budget, for 1-8 actions
    and 1-6 states."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    alpha = rng.dirichlet(np.ones(m))
    alpha[rng.random(m) < 0.3] = 0.0
    if not alpha.any():
        alpha[rng.integers(m)] = 1.0
    pay = rng.normal(size=(m, n)) * rng.choice([0.1, 1.0, 10.0])
    if rng.random() < 0.5:
        pay = np.round(pay, 1)
    return alpha, pay, float(rng.choice([0.05, 0.5, 1.0, 3.0]))


class TestSolve:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_iter": 0},
            {"max_iter": math.nan},
            {"max_iter": 2.5},
            {"seed": -1},
            {"seed": 1.5},
        ],
    )
    def test_malformed_options_are_validation_errors(self, kwargs):
        with pytest.raises(ValidationError, match=r"tol|iteration cap|seed"):
            SolveOptions(**kwargs)

    def test_duplicated_supported_action_takes_the_least_squares_step(self, monkeypatch):
        # both copies of action 0 carry weight, so the rows of their
        # complementarity conditions coincide at the solution and the
        # Jacobian is singular there: the LU step fails and Newton falls back
        # to least squares.  solve merges the copies before it polishes, so
        # the polish is driven on the duplicated problem directly.  Any split
        # of the copies' weight solves the problem; from the uniform start of
        # this symmetric one the split stays even to the tolerance
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        g = guess_the_state(3, 1.0)
        p = validate_problem(g.states, g.prior, [*zip(g.action_names, g.payoffs), ("copy", g.payoffs[0])])
        model = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior))
        tol = SolveOptions().tol
        alpha, lam, _ = solver._polish_once(p, model, np.full(4, 0.25), np.zeros(3))
        assert calls
        rep = verify_focs(p, model, alpha, lam)
        assert max(rep.residual_alpha, rep.residual_lambda) <= tol
        assert alpha[0] > 0.1
        assert alpha[0] == pytest.approx(alpha[-1], abs=tol)

    @pytest.mark.parametrize("kappa", [1.4, 2.327])
    def test_copied_action_does_not_strand_the_best_response(self, kappa):
        # payoffs x 10 with action 0 copied: unmerged, the third mirror step
        # sent the one other action's weight to exactly 0, where a
        # multiplicative step never revives it
        rng = np.random.default_rng(1395618031)
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        rng.uniform(0.3, 3.0)
        base = random_problem(rng, n, m, prior_floor=1 / 60)
        pay = np.vstack([10.0 * base.payoffs, 10.0 * base.payoffs[:1]])
        p = validate_problem(base.states, base.prior, [(f"a{j}", row) for j, row in enumerate(pay)])
        opts = SolveOptions(max_iter=2000)
        sol = solve(p, mutual_information_cost(p.prior, kappa), opts)
        reference = solve_mutual_information(p, kappa, opts)
        assert sol.converged and reference.converged
        assert abs(sol.value - reference.value) <= 1e-12 * abs(reference.value)
        assert sol.alpha[0] == sol.alpha[-1]

    def test_identical_actions_mean_no_learning(self):
        pay = [0.4, -0.2]
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", pay), ("b", pay)])
        for m in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            sol = solve(p, m)
            assert sol.converged
            expected = float(p.prior @ np.array(pay))
            assert sol.value == pytest.approx(expected, abs=1e-9)
            np.testing.assert_allclose(sol.rule.rows, np.tile(sol.alpha, (2, 1)), atol=1e-8)

    def test_two_state_guess_closed_form(self):
        p = guess_the_state(2, math.log(3))
        sol = solve(p, mutual_information_cost(p.prior, 1.0))
        assert sol.rule.rows[0, 0] == pytest.approx(0.75, abs=1e-9)
        assert sol.value == pytest.approx(math.log(2), abs=1e-9)

    def test_random_quadratic_cost_matches_lattice_search(self):
        from infoacq.oracle import brute_force_solve

        rng = np.random.default_rng(3)
        p = random_problem(rng, 2, 2)
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m)
        bf = brute_force_solve(p, m, 0.01)
        assert sol.converged
        assert abs(sol.value - bf.value) < 2e-4
        assert bf.value <= sol.value + 1e-9

    def test_normalized_binary_problem_solves_identically(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, 3, 2)
        q = normalize_binary(p)
        for m_build in (lambda pr: mutual_information_cost(pr, 1.0), lambda pr: chi2_cost(pr, 1.0)):
            sp = solve_best_response(p, m_build(p.prior))
            sq = solve_best_response(q, m_build(q.prior))
            np.testing.assert_allclose(sp.rule.rows, sq.rule.rows, atol=1e-7)

    def test_row_sums_within_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            p = random_problem(rng, 3, 4)
            sol = solve(p, chi2_cost(p.prior, 1.0))
            assert sol.converged
            assert sol.diagnostics["row_sum_error"] <= 10 * 1e-8

    def test_saddle_value_matches_primal_objective(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_problem(rng, 2, 3)
            for m in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
                sol = solve_best_response(p, m)
                primal = sol.rule.expected_payoff() - m.primal_cost(sol.rule)
                assert sol.value == pytest.approx(primal, abs=1e-7)

    def test_multiplier_unique_across_restarts(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng, 3, 4)
        for m in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            s1 = solve_best_response(p, m, SolveOptions(seed=1))
            s2 = solve_best_response(p, m, SolveOptions(seed=2))
            np.testing.assert_allclose(s1.lam, s2.lam, atol=1e-6)
        mps = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0))
        s1 = solve(p, mps, SolveOptions(seed=1))
        s2 = solve(p, mps, SolveOptions(seed=2))
        l1 = s1.lam - s1.lam.sum() * p.prior
        l2 = s2.lam - s2.lam.sum() * p.prior
        np.testing.assert_allclose(l1, l2, atol=1e-6)

    def test_multiplier_inside_box(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = random_problem(rng, 2, 3)
            for m in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
                sol = solve(p, m)
                assert sol.box.contains(sol.lam)

    def test_symmetric_problem_yields_symmetric_rule(self):
        from infoacq.core import detect_symmetries

        p = guess_the_state(3, 1.3)
        for m in (
            mutual_information_cost(p.prior, 1.0),
            chi2_cost(p.prior, 1.0),
            posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0)),
        ):
            sol = solve(p, m)
            group = detect_symmetries(p)
            P = sol.rule.rows
            for g, sigma in group:
                for s in range(p.n_states):
                    for a in range(p.n_actions):
                        assert P[g[s], a] == pytest.approx(P[s, sigma[a]], abs=1e-7)

    def test_solve_runs_no_symmetry_search(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("solve searched for problem symmetries")

        monkeypatch.setattr("infoacq.core._match_actions", fail)
        p = guess_the_state(4, 1.0)
        for m in (
            mutual_information_cost(p.prior, 1.0),
            chi2_cost(p.prior, 1.0),
            posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0)),
        ):
            assert solve(p, m).converged

    def test_binary_choice_bolder_with_higher_stakes(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            r = np.sort(rng.uniform(-1, 1, size=3))
            p = validate_problem(
                ["s0", "s1", "s2"], [1 / 3] * 3, [("risky", r), ("safe", [0, 0, 0])]
            )
            sol = solve(p, chi2_cost(p.prior, 1.0))
            if np.all(sol.rule.unconditional > 1e-9):
                p_risky = sol.rule.rows[:, 0]
                assert np.all(np.diff(p_risky) >= -1e-9)


class TestMutualInformationRoute:
    def test_exchangeable_problem_reduces_to_plain_logit(self):
        p = exchangeable_problem([1.0, 0.0], 2)
        sol = solve_mutual_information(p, 1.0)
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5], atol=1e-9)
        logits = np.exp(p.payoffs.T)
        expected = logits / logits.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(sol.rule.rows, expected, atol=1e-8)

    def test_dominated_action_never_chosen(self):
        p = validate_problem(
            ["s0", "s1"], [0.5, 0.5], [("a", [1, 0]), ("b", [0, 1]), ("dom", [-0.5, -0.5])]
        )
        sol = solve_mutual_information(p, 1.0)
        assert sol.rule.unconditional[2] < 1e-9

    def test_agrees_with_generic_backend(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_problem(rng, 3, 3)
            a = solve_mutual_information(p, 1.0)
            b = solve_best_response(p, mutual_information_cost(p.prior, 1.0))
            assert a.value == pytest.approx(b.value, abs=1e-6)
            for idx in range(p.n_actions):
                if a.rule.unconditional[idx] > 1e-7 and b.rule.unconditional[idx] > 1e-7:
                    np.testing.assert_allclose(
                        a.rule.posterior(idx), b.rule.posterior(idx), atol=1e-6
                    )

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_converged_means_residuals_within_tol(self, tol):
        rng = np.random.default_rng(7)
        problems = [random_problem(np.random.default_rng(30), 30, 30, prior_floor=0.2 / 30)]
        problems += [random_problem(rng, n, n) for n in (3, 5, 8)]
        for p in problems:
            sol = solve_mutual_information(p, 1.0, SolveOptions(tol=tol))
            assert sol.converged
            assert max(sol.residual_alpha, sol.residual_lambda) <= tol

    def test_exhausted_fixed_point_returns_a_consistent_pair(self):
        p = random_problem(np.random.default_rng(8), 8, 8)
        sol = solve_mutual_information(p, 1.0, SolveOptions(max_iter=5))
        assert not sol.converged
        assert sol.residual_lambda <= 1e-12

    def test_modified_logit_identity(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, 3, 3)
        sol = solve_mutual_information(p, 1.0)
        ppi = sol.rule.unconditional
        weights = np.exp(p.payoffs.T)  # (n, m)
        expected = ppi[None, :] * weights
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(sol.rule.rows, expected, atol=1e-8)


def _large_suite_problems():
    """The 20, 30 and 50 state random problems of the solve-large benchmark workload."""
    suite = np.random.default_rng([0, 1])
    return {n: random_problem(suite, n, n, prior_floor=0.1 / n) for n in (20, 30, 50)}


def _assert_same_solution(a, b):
    from infoacq.io import dumps, solution_to_dict

    assert dumps(solution_to_dict(a)) == dumps(solution_to_dict(b))
    np.testing.assert_array_equal(a.alpha, b.alpha)
    np.testing.assert_array_equal(a.lam, b.lam)
    assert (a.iterations, a.backend, a.box, a.diagnostics) == (b.iterations, b.backend, b.box, b.diagnostics)


@functools.cache
def _mi_cases():
    """MI problems at kappa 0.1, 1 and 3, each with the value of the pure fixed point.

    Built once: the fixed point takes thousands of steps on the 30-state problem.
    """
    rng = np.random.default_rng(7)
    problems = [random_problem(np.random.default_rng(30), 30, 30, prior_floor=0.2 / 30)]
    problems += [random_problem(rng, n, n) for n in (3, 5, 8)]
    problems += [guess_the_state(n, 1.0) for n in (6, 7, 8)]
    return [(p, kappa, solve_mutual_information(p, kappa).value) for p in problems for kappa in (0.1, 1.0, 3.0)]


class TestMutualInformationInSolve:
    """``solve`` under MI is the best response; the pure fixed point is its reference."""

    def test_backend_names_the_route(self):
        p = random_problem(np.random.default_rng(30), 30, 30, prior_floor=0.2 / 30)
        for q in (p, guess_the_state(3, 1.0)):
            sol = solve(q, mutual_information_cost(q.prior, 1.0))
            assert sol.converged and sol.backend == "best_response"
            _assert_same_solution(sol, solve_best_response(q, mutual_information_cost(q.prior, 1.0)))

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_converged_means_residuals_within_tol(self, tol):
        for p, kappa, reference in _mi_cases():
            model = mutual_information_cost(p.prior, kappa)
            sol = solve(p, model, SolveOptions(tol=tol))
            assert sol.converged
            assert max(sol.residual_alpha, sol.residual_lambda) <= tol
            rep = verify_focs(p, model, sol.alpha, sol.lam)
            assert max(rep.residual_alpha, rep.residual_lambda) <= tol
            assert sol.value == pytest.approx(reference, abs=1e-9)

    def test_agrees_with_the_shannon_kl_posterior_separable_cost(self):
        # the same cost on two routes; the fixed point alone stops about 1e-10 off
        p = _large_suite_problems()[20]
        mi = solve(p, mutual_information_cost(p.prior, 1.0))
        kl = solve(p, posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0)))
        assert mi.converged and kl.converged
        assert mi.value == pytest.approx(kl.value, abs=1e-12)

    def test_scaled_cost_is_solved_at_its_own_kappa(self):
        # costs.scale keeps the Shannon family and records the factor apart
        p = guess_the_state(3, 2.0)
        model = scale(mutual_information_cost(p.prior, 1.0), 2.0)
        sol = solve(p, model)
        assert sol.converged
        assert sol.value == pytest.approx(solve_mutual_information(p, 2.0).value, abs=1e-9)
        rep = verify_focs(p, model, sol.alpha, sol.lam)
        assert max(rep.residual_alpha, rep.residual_lambda) <= 1e-8


class TestPerceptualRoute:
    def test_identity_encoder_reduces_to_plain_solve(self):
        rng = np.random.default_rng(13)
        p = random_problem(rng, 3, 2)
        enc = build_encoder(np.eye(3), p.prior)
        a = solve_perceptual(p, chi2(1.0), enc)
        b = solve(p, chi2_cost(p.prior, 1.0))
        assert a.value == pytest.approx(b.value, abs=1e-8)
        np.testing.assert_allclose(a.rule.rows, b.rule.rows, atol=1e-7)

    def test_entropy_transform_gives_attribute_logit_mixture(self):
        thetas = np.linspace(-1, 1, 5)
        from infoacq.catalog import one_dim_binary

        p = one_dim_binary(thetas, thetas)
        enc = distance_encoder(thetas, lambda d: math.exp(-2.0 * d * d))
        sol = solve_perceptual(p, shannon(1.0), enc)
        E = p.payoffs @ enc.mu.T  # (m, n_attr)
        alpha_bar = np.array([sol.alpha[0], sol.alpha[1]])
        weights = alpha_bar[None, :] * np.exp(E.T)
        q = weights / weights.sum(axis=1, keepdims=True)
        expected = enc.rows @ q
        np.testing.assert_allclose(sol.rule.rows, expected, atol=1e-7)

    def test_null_encoder_gives_state_independent_rule(self):
        p = validate_problem(
            ["s0", "s1", "s2"], [1 / 3] * 3, [("a", [1, 0, -1]), ("b", [0, 0, 0])]
        )
        rows = np.tile([1.0], (3, 1))
        enc = build_encoder(rows, p.prior)
        sol = solve_perceptual(p, chi2(1.0), enc)
        assert np.max(np.abs(sol.rule.rows - sol.rule.rows[0])) < 1e-12

    def test_lifted_solution_satisfies_first_order_conditions(self):
        rng = np.random.default_rng(14)
        thetas = np.linspace(0, 1, 4)
        from infoacq.catalog import one_dim_binary

        p = one_dim_binary(thetas, np.linspace(-0.5, 0.5, 4))
        enc = distance_encoder(thetas, lambda d: math.exp(-4.0 * d))
        sol = solve_perceptual(p, chi2(1.0), enc)
        assert enc.full_column_rank
        assert sol.residual_alpha <= 1e-7
        assert sol.residual_lambda <= 1e-7


class TestSupportReduction:
    def test_small_support_unchanged(self):
        p = guess_the_state(2, 1.0)
        m = mutual_information_cost(p.prior, 1.0)
        sol = solve(p, m)
        reduced = reduce_support(p, m, sol.alpha, sol.lam)
        np.testing.assert_allclose(reduced, sol.alpha, atol=1e-12)

    def test_duplicated_action_pruned(self):
        p = validate_problem(
            ["s0", "s1"],
            [0.5, 0.5],
            [("a", [1, 0]), ("a2", [1, 0]), ("b", [0, 1])],
        )
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m)
        reduced = reduce_solution(sol)
        assert len([x for x in reduced.alpha if x > 1e-12]) <= p.n_states + 1
        assert reduced.value == pytest.approx(sol.value, abs=1e-9)

    def test_consideration_bound_with_many_actions(self):
        rng = np.random.default_rng(15)
        for trial in range(6):
            n = int(rng.integers(2, 4))
            p = random_problem(rng, n, n + 3)
            m = chi2_cost(p.prior, 1.0)
            sol = solve(p, m)
            red = reduce_solution(sol)
            assert red.value == pytest.approx(sol.value, abs=1e-8)
            assert (red.alpha > 1e-12).sum() <= n + 1
        for trial in range(3):
            n = int(rng.integers(2, 4))
            p = random_problem(rng, n, n + 3)
            m = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0))
            sol = solve(p, m)
            red = reduce_solution(sol)
            assert red.value == pytest.approx(sol.value, abs=1e-8)
            assert (red.alpha > 1e-12).sum() <= n

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        p = random_problem(rng, 2, 5)
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m)
        once = reduce_support(p, m, sol.alpha, sol.lam)
        twice = reduce_support(p, m, once, sol.lam)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_knife_edge_family_collapses_to_extreme_point(self):
        # at the knife-edge outside option the optimal set is a segment; the
        # translation-invariant bound (= number of states) forces the reduced
        # support onto one of its extreme points, value unchanged
        from infoacq.analysis import mutual_information_threshold
        from infoacq.catalog import guess_with_outside_option

        w = math.log(3.0)
        c_hat = mutual_information_threshold(2, w, 1.0)
        p = guess_with_outside_option(2, w, c_hat)
        m = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0))
        sol = solve(p, m)
        red = reduce_solution(sol)
        assert (red.alpha > 1e-12).sum() <= 2
        assert red.value == pytest.approx(sol.value, abs=1e-8)


class TestBestEffort:
    def test_tiny_budget_returns_flagged_best_iterate(self):
        rng = np.random.default_rng(21)
        p = random_problem(rng, 3, 4)
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m, SolveOptions(max_iter=2))
        assert not sol.converged
        assert np.isfinite(sol.value)
        assert sol.rule.rows.shape == (3, 4)

    def test_rows_without_mass_are_flagged(self):
        # a multiplier two above every payoff in one state zeroes each
        # conjugate gradient there, so that state's row has no mass; the
        # result names it, with alpha as its row, instead of failing the
        # choice-rule check with a ValidationError
        p = guess_the_state(3, 1.0)
        model = chi2_cost(p.prior, 1.0)
        sol = solve(p, model)
        lam = sol.lam.copy()
        lam[1] = p.prior[1] * (p.payoffs[:, 1].max() + 2.0)
        _, G = solver.evaluate(p, model, lam)
        assert np.all(G[:, 1] == 0.0)
        out = solver._assemble(p, model, sol.alpha, lam, sol.iterations, True, sol.backend, sol.box_source)
        assert not out.converged
        assert out.diagnostics["degenerate_rows"] == [p.states[1]]
        np.testing.assert_allclose(out.rule.rows[1], sol.alpha / sol.alpha.sum(), rtol=0, atol=1e-15)


class TestInnerMinimization:
    def test_overflow_scale_posterior_separable_best_response(self):
        # Newton's own steps stall where the softmax posteriors
        # saturate; the inner minimization must still meet inner_tol there,
        # in milliseconds, for the whole solve to fit the bound
        p = random_problem(np.random.default_rng(2), 8, 3)
        big = validate_problem(p.states, p.prior, list(zip(p.action_names, 800 * p.payoffs)))
        model = posterior_separable_cost(big.prior, shannon_kl_entropy(big.prior))
        start = time.perf_counter()
        with np.errstate(all="ignore"):
            sol = solve(big, model, SolveOptions(max_iter=200))
        assert time.perf_counter() - start < 3.0
        assert sol.converged
        rep = verify_focs(big, model, sol.alpha, sol.lam)
        assert rep.within(1e-8)

    def test_overflow_scale_solve_raises_no_runtime_warning(self):
        # LU steps of near-singular Jacobians at this scale overflowed the
        # norm in the Newton step's residual check
        rng = np.random.default_rng(103)
        n, m = (int(k) for k in rng.integers(2, 9, size=2))
        p = random_problem(rng, n, m, prior_floor=0.1 / n)
        big = validate_problem(p.states, p.prior, list(zip(p.action_names, 800 * p.payoffs)))
        model = posterior_separable_cost(big.prior, shannon_kl_entropy(big.prior))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve(big, model, SolveOptions(max_iter=200))
        assert sol.converged

    def test_uniform_start_at_overflow_scale_meets_inner_tol(self):
        p = random_problem(np.random.default_rng(2), 8, 3)
        big = validate_problem(p.states, p.prior, list(zip(p.action_names, 800 * p.payoffs)))
        model = posterior_separable_cost(big.prior, shannon_kl_entropy(big.prior))
        alpha = np.full(3, 1.0 / 3.0)
        lam = solver._inner_minimize(big, model, alpha, None)
        _, G = solver.evaluate(big, model, lam)
        assert np.max(np.abs(alpha @ G - 1.0)) <= 1e-11


class TestPolishFirst:
    """Costs without a closed-form inner step start at the Newton polish."""

    def _counting(self, monkeypatch, name, calls=None):
        """Append ``name`` to ``calls`` (a new list by default) on every call of ``solver.<name>``."""
        calls = [] if calls is None else calls
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, **k: calls.append(name) or real(*a, **k))
        return calls

    def test_converged_solve_minimizes_the_inner_problem_once(self, monkeypatch):
        # the one inner minimization is the certificate's, made on the first
        # read of the gap; the best response that ran before the polish made
        # three more
        p = random_problem(np.random.default_rng(8), 8, 8)
        calls = self._counting(monkeypatch, "_inner_minimize")
        sol = solve(p, posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior)))
        assert len(calls) == 0
        assert sol.converged and sol.iterations == 1
        sol.gap
        assert len(calls) == 1

    def test_a_missed_first_polish_falls_back_to_the_best_response(self, monkeypatch):
        p = random_problem(np.random.default_rng(8), 8, 8)
        model = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior))
        polish = solver._polish
        polishes = []

        def first_misses(*args, **kwargs):
            polishes.append(1)
            return None if len(polishes) == 1 else polish(*args, **kwargs)

        monkeypatch.setattr(solver, "_polish", first_misses)
        inner = self._counting(monkeypatch, "_inner_minimize")
        sol = solve(p, model)
        assert sol.converged
        assert max(sol.residual_alpha, sol.residual_lambda) <= SolveOptions().tol
        assert len(polishes) > 1 and len(inner) > 1
        assert sol.value == pytest.approx(solve(p, mutual_information_cost(p.prior)).value, rel=1e-12)

    def test_csiszar_costs_start_at_the_best_response(self, monkeypatch):
        p = random_problem(np.random.default_rng(8), 8, 8)
        order = []
        for name in ("_inner_minimize", "_polish"):
            self._counting(monkeypatch, name, order)
        assert solve(p, chi2_cost(p.prior)).converged
        assert order[0] == "_inner_minimize"


class TestPolishAtASolution:
    """A polish that starts where the optimality system is already solved to
    rounding forms no Jacobian."""

    def _count_jacobians(self, monkeypatch):
        calls, polishes = [], []
        jacobian, polish_once = solver._kkt_jacobian, solver._polish_once
        monkeypatch.setattr(solver, "_kkt_jacobian", lambda *a, **k: calls.append(1) or jacobian(*a, **k))
        monkeypatch.setattr(solver, "_polish_once", lambda *a, **k: polishes.append(1) or polish_once(*a, **k))
        return calls, polishes

    @pytest.mark.parametrize("family", ["pskl", "mi"])
    def test_symmetric_guess_the_state(self, monkeypatch, family):
        calls, polishes = self._count_jacobians(monkeypatch)
        for n in range(3, 8):
            p = guess_the_state(n, 1.3)
            if family == "mi":
                model = mutual_information_cost(p.prior)
            else:
                model = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior))
            assert solve(p, model).converged
        assert len(polishes) >= 5
        assert calls == []

    def test_multitask_bets_under_a_neighborhood_tree(self, monkeypatch):
        # the closed-form tree only: the numeric twin's conjugates carry
        # noise that a Jacobian or two then removes
        calls, polishes = self._count_jacobians(monkeypatch)
        hoods = [((0, 1, 2, 3), 0.01), ((0, 1), 0.1), ((2, 3), 0.1)]
        for p in multitask_problems():
            assert solve(p, neighborhood_hw_cost(p.prior, hoods)).converged
        assert len(polishes) >= 3
        assert calls == []


def _counting_rows(model):
    """Route the model's ``conj_pass``, the one pass behind ``evaluate_rows``,
    through a counter; returns the call list."""
    calls = []
    conj_pass = model.conj_pass
    model.conj_pass = lambda X: calls.append(1) or conj_pass(X)
    return calls


class TestEvaluationMemo:
    """``evaluate`` keeps the conjugate pair of the last multiplier on the model."""

    def _setup(self):
        p = random_problem(np.random.default_rng(61), 4, 5)
        lam = np.random.default_rng(62).normal(size=4) * 0.1
        return p, lam

    def test_results_are_read_only(self):
        p, lam = self._setup()
        model = chi2_cost(p.prior)
        for _ in range(2):  # the evaluated pair and the kept one
            v, G = solver.evaluate(p, model, lam)
            assert not v.flags.writeable and not G.flags.writeable
            with pytest.raises(ValueError):
                G[0, 0] = 0.0

    def test_an_equal_multiplier_is_not_evaluated_again(self):
        p, lam = self._setup()
        model = chi2_cost(p.prior)
        calls = _counting_rows(model)
        v, G = solver.evaluate(p, model, lam)
        v2, G2 = solver.evaluate(p, model, np.array(lam.tolist()))
        assert len(calls) == 1
        assert v2 is v and G2 is G

    def test_a_changed_multiplier_model_or_problem_misses(self):
        p, lam = self._setup()
        model = chi2_cost(p.prior)
        calls = _counting_rows(model)
        v, G = solver.evaluate(p, model, lam)
        moved = lam.copy()
        moved[0] = np.nextafter(moved[0], np.inf)
        solver.evaluate(p, model, moved)
        assert len(calls) == 2
        other = validate_problem(p.states, p.prior, list(zip(p.action_names, p.payoffs + 0.5)))
        v_other, _ = solver.evaluate(other, model, lam)
        assert len(calls) == 3
        np.testing.assert_array_equal(v_other, chi2_cost(p.prior).f_star_rows(solver.payoff_arguments(other, lam)))
        twin = chi2_cost(p.prior, 2.0)
        twin_calls = _counting_rows(twin)
        v_twin, _ = solver.evaluate(p, twin, lam)
        assert (len(calls), len(twin_calls)) == (3, 1)
        assert not np.array_equal(v_twin, v)

    def test_threads_sharing_a_model_get_exact_results(self):
        p, lam = self._setup()
        points = [lam, -lam, 2 * lam, np.zeros(4)]
        fresh = [solver.evaluate(p, posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior)), l) for l in points]
        shared = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior))
        wrong = []

        def work(offset):
            for k in range(300):
                i = (offset + k) % len(points)
                v, G = solver.evaluate(p, shared, points[i])
                if not (np.array_equal(v, fresh[i][0]) and np.array_equal(G, fresh[i][1])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize(
        "build, bound",
        [
            (lambda prior: neighborhood_hw_cost(prior, [((0, 2), 0.8), ((0, 1, 2), 0.4)]), 33),
            (lambda prior: posterior_separable_cost(prior, shannon_kl_entropy(prior)), 1),
            (chi2_cost, 1),
        ],
        ids=["neighborhood", "ps_kl", "chi2"],
    )
    def test_conjugate_evaluations_per_solve_stay_bounded(self, build, bound):
        # before the memo these solves made 52, 6 and 9 row evaluations
        p = guess_the_state(3, 1.0)
        model = build(p.prior)
        calls = _counting_rows(model)
        sol = solve(p, model)
        assert sol.converged
        assert 0 < len(calls) <= bound

    def test_slice_basis_is_kept_read_only(self):
        basis = solver._slice_basis(5)
        assert solver._slice_basis(5) is basis and not basis.flags.writeable
        u, _, _ = np.linalg.svd(np.eye(5) - np.full((5, 5), 0.2))
        np.testing.assert_array_equal(basis, u[:, :4])


def _ps_kl(prior):
    return posterior_separable_cost(prior, shannon_kl_entropy(prior))


class TestEvaluationsPerSolve:
    """The polish hands the point it evaluated last to the weight trim, the
    FOC score, ``_assemble`` and the certificate's upper bound, so a solve
    calls ``solver.evaluate`` only where it has no such point: the backend's
    FOC residuals and the polish's start.  The certificate's own inner
    minimization and lower bound evaluate on the first read of the gap.
    Each count is a pair: the solve's calls, then the first read's."""

    def _count(self, monkeypatch):
        calls = []
        evaluate = solver.evaluate
        monkeypatch.setattr(solver, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
        return calls

    def _counts(self, calls, problems, build, opts=None):
        out = []
        for p in problems:
            calls.clear()
            sol = solve(p, build(p.prior), opts)
            assert sol.converged
            solved = len(calls)
            sol.gap
            out.append((solved, len(calls) - solved))
        return out

    @pytest.mark.parametrize("family, counts", [("mi", (2, 1)), ("pskl", (1, 2))])
    def test_a_solve_that_starts_at_its_optimum(self, monkeypatch, family, counts):
        # mutual information: one FOC check and the polish's start, then the
        # lower bound; PS-KL: the KKT start, then one inner residual and the
        # lower bound.  Before, the tail evaluated each point again (7 calls)
        calls = self._count(monkeypatch)
        problems = [guess_the_state(n, 1.3) for n in range(3, 8)]
        build = mutual_information_cost if family == "mi" else _ps_kl
        assert self._counts(calls, problems, build) == [counts] * 5

    def test_the_multitask_bets(self, monkeypatch):
        calls = self._count(monkeypatch)
        hoods = [((0, 1, 2, 3), 0.01), ((0, 1), 0.1), ((2, 3), 0.1)]
        build = functools.partial(neighborhood_hw_cost, neighborhoods=hoods)
        assert self._counts(calls, multitask_problems(), build, SolveOptions(tol=1e-9)) == [(1, 2)] * 3

    @pytest.mark.parametrize("family, counts", [("mi", (4, 1)), ("chi2", (4, 1)), ("pskl", (1, 2))])
    def test_random_problems(self, monkeypatch, family, counts):
        # mutual information and chi2: three backend iterations and the
        # polish's start, then the lower bound (9 before); PS-KL polishes
        # first (7 before)
        calls = self._count(monkeypatch)
        rng = np.random.default_rng(5)
        problems = [random_problem(rng, 5, 5) for _ in range(6)]
        build = {"mi": mutual_information_cost, "chi2": chi2_cost, "pskl": _ps_kl}[family]
        assert self._counts(calls, problems, build) == [counts] * 6

    def test_the_polish_returns_the_point_of_its_result(self, monkeypatch):
        # the point must be the one at the iterate Newton returned, also where
        # Newton's last evaluation was a trial its line search rejected, as in
        # the polishes of the scaled 3 x 3 PS-KL problem and of the
        # overlapping cover here
        results, checked, rejected, seen = [], [], [], [None]
        newton, polish_once, kkt_system = solver.newton, solver._polish_once, solver._kkt_system

        def recording_system(p, model, z, *args):
            seen[0] = z
            return kkt_system(p, model, z, *args)

        def recording_newton(*args, **kwargs):
            results.append(newton(*args, **kwargs))
            if seen[0] is not results[-1][0]:
                rejected.append(1)
            return results[-1]

        def checking(p, model, alpha0, lam0):
            got = polish_once(p, model, alpha0, lam0)
            if got is not None:
                m, n = p.n_actions, p.n_states
                alpha, lam, point = got
                z = results[-1][0]
                np.testing.assert_array_equal(point.alpha, z[:m])
                basis = solver._slice_basis(n) if model.translation_invariant else None
                np.testing.assert_array_equal(lam, z[m + 1 :] if basis is None else basis @ z[m + 1 :])
                v, G, _ = model.conj_pass(solver.payoff_arguments(p, lam))
                np.testing.assert_array_equal(point.v, v)
                np.testing.assert_array_equal(point.G, G)
                checked.append(1)
            return got

        monkeypatch.setattr(solver, "_kkt_system", recording_system)
        monkeypatch.setattr(solver, "newton", recording_newton)
        monkeypatch.setattr(solver, "_polish_once", checking)
        base = random_problem(np.random.default_rng(1), 3, 3)
        steep = validate_problem(base.states, base.prior, list(zip(base.action_names, 10.0 * base.payoffs)))
        gts = guess_the_state(3, 1.0)
        cases = [
            (steep, _ps_kl(steep.prior)),
            (gts, neighborhood_hw_cost(gts.prior, [((0, 1, 2), 0.4), ((0, 1), 0.8), ((1, 2), 0.6)])),
        ]
        rng = np.random.default_rng(6)
        for _ in range(3):
            p = random_problem(rng, 4, 5)
            cases += [(p, build(p.prior)) for build in (mutual_information_cost, chi2_cost, _ps_kl)]
        for p, model in cases:
            assert solve(p, model).converged
        assert len(checked) >= len(cases)
        assert rejected


class TestLazyBox:
    """The best response never reads the box, so it is built on the first read."""

    def _counting_bounds(self, monkeypatch):
        calls = []
        bounds = solver.multiplier_bounds
        monkeypatch.setattr(solver, "multiplier_bounds", lambda *a: calls.append(1) or bounds(*a))
        return calls

    @pytest.mark.parametrize("route", [solve, solve_best_response])
    @pytest.mark.parametrize("cost", [chi2_cost, mutual_information_cost])
    def test_box_is_built_once_on_first_read(self, monkeypatch, route, cost):
        calls = self._counting_bounds(monkeypatch)
        p = guess_the_state(3, 1.0)
        model = cost(p.prior)
        sol = route(p, model)
        assert calls == []
        box = sol.box
        assert sol.box is box and len(calls) == 1
        assert box == multiplier_bounds(p, model)
        assert sol.box_contains_multiplier is True

    def test_perceptual_and_reduced_solutions_read_the_box_lazily(self, monkeypatch):
        calls = self._counting_bounds(monkeypatch)
        p = guess_the_state(3, 1.0)
        encoder = build_encoder(np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]), p.prior)
        sol = solve_perceptual(p, chi2(1.0), encoder)
        red = reduce_solution(solve(p, chi2_cost(p.prior)))
        assert calls == []
        assert sol.box.reduced and sol.box_contains_multiplier is None
        assert red.box == multiplier_bounds(p, chi2_cost(p.prior))


def _lazy_gap_models(p):
    """One model of every family that ``solve`` runs through the best
    response, on the prior of p."""
    n = p.n_states
    encoder = build_encoder(np.full((n, 2), 0.5) + np.linspace(-0.3, 0.3, n)[:, None] * [1, -1], p.prior)
    kl = shannon_kl_entropy(p.prior)
    return {
        "mi": mutual_information_cost(p.prior),
        "chi2": chi2_cost(p.prior),
        "shifted_chi2": csiszar_cost(p.prior, shift_transform(chi2(1.0), 0.5)),
        "pskl": _ps_kl(p.prior),
        "nested": nested_shannon_cost(p.prior, encoder, 0.5, 1.0),
        "two_level": neighborhood_hw_cost(p.prior, [(tuple(range(n)), 0.4), ((0, 1), 0.6)]),
        "overlapping": neighborhood_hw_cost(p.prior, [((0, 1), 0.5), ((1, 2), 0.4), ((2, 0), 0.3)]),
        "numeric": posterior_separable_cost(p.prior, numeric_entropy(p.prior, kl.value_fn, kl.grad_fn)),
    }


class TestLazyCertificate:
    """No solve reads the certificate, so it is computed on the first read of
    ``Solution.gap``."""

    @staticmethod
    def _record(calls, name, real, *args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    def _counting(self, monkeypatch):
        calls = []
        for name in ("evaluate", "_inner_minimize", "duality_certificate"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, functools.partial(self._record, calls, name, real))
        return calls

    @pytest.mark.parametrize("family", list(_lazy_gap_models(guess_the_state(3, 1.0))))
    def test_first_read_gives_the_certificate_and_a_second_evaluates_nothing(self, monkeypatch, family):
        p = guess_the_state(3, 1.3)
        model = _lazy_gap_models(p)[family]
        calls = self._counting(monkeypatch)
        sol = solve(p, model)
        assert sol.converged and "duality_certificate" not in calls
        calls.clear()
        gap = sol.gap
        assert calls.count("duality_certificate") == 1
        calls.clear()
        assert sol.gap is gap and calls == []
        assert gap == duality_certificate(p, model, sol.alpha, sol.lam)

    def test_perceptual_route_reads_the_reduced_gap(self, monkeypatch):
        p = guess_the_state(3, 1.0)
        encoder = build_encoder(np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]), p.prior)
        calls = self._counting(monkeypatch)
        sol = solve_perceptual(p, chi2(1.0), encoder)
        assert "duality_certificate" not in calls
        reduced, _ = solver._reduced_problem(p, encoder)
        rsol = solve_best_response(reduced, csiszar_cost(reduced.prior, chi2(1.0)))
        assert sol.gap == rsol.gap

    @pytest.mark.parametrize("family", ["mi", "pskl", "nested", "two_level"])
    def test_an_unread_solution_is_freed_without_the_cyclic_collector(self, family):
        # neither the gap's source nor the neighborhood tables may hold their
        # owner.  The implicit-Hessian entropies are left out: their
        # conj_hess_fn is a closure over the entropy itself
        p = guess_the_state(3, 1.3)
        model = _lazy_gap_models(p)[family]
        sol = solve(p, model)
        refs = [weakref.ref(model), weakref.ref(sol)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model, sol
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestCertificate:
    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("cost", [mutual_information_cost, chi2_cost])
    def test_scaled_kappa_gives_the_unscaled_certificate(self, cost, kappa):
        # costs.scale records the factor apart from the transform's kappa
        p = guess_the_state(3, 2.0)
        scaled = solve_best_response(p, scale(cost(p.prior), kappa))
        direct = solve_best_response(p, cost(p.prior, kappa))
        assert scaled.gap == pytest.approx(0.0, abs=1e-9)
        assert scaled.gap == pytest.approx(direct.gap, abs=1e-12)
        assert scaled.value == pytest.approx(direct.value, abs=1e-10)

    def test_converged_solution_has_tiny_gap(self):
        rng = np.random.default_rng(17)
        p = random_problem(rng, 2, 3)
        sol = solve(p, mutual_information_cost(p.prior, 1.0))
        assert sol.gap < 1e-7

    def test_perturbed_multiplier_yields_positive_gap(self):
        p = guess_the_state(2, 1.0)
        m = mutual_information_cost(p.prior, 1.0)
        sol = solve(p, m)
        lam_bad = sol.lam.copy()
        lam_bad[0] += 0.1
        gap = duality_certificate(p, m, sol.alpha, lam_bad)
        assert gap > 1e-3

    def test_single_action_problem_saturates(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("only", [0.3, -0.2])])
        m = mutual_information_cost(p.prior, 1.0)
        sol = solve(p, m)
        assert sol.gap == pytest.approx(0.0, abs=1e-12)
        assert sol.value == pytest.approx(0.05, abs=1e-10)


class TestNeighborhoodSolves:
    """Inputs on which the numeric-conjugate path used to run for minutes.

    Their covers are two-level, so each runs twice through ``hw_cost``: with
    the nested-logit closed form and with the numeric conjugate.
    """

    def _assert_solved(self, sol):
        assert sol.converged
        rep = verify_focs(sol.problem, sol.model, sol.alpha, sol.lam)
        assert rep.within(1e-8)

    # 0.2512... ran past 90 s before exact conjugates; 0.05 hangs with them
    # unless the inner minimization keeps a start that already fits
    @pytest.mark.parametrize("kappa", [0.25125073093634503, 0.05])
    def test_multitask_tree_at_a_former_hang(self, kappa, hw_cost):
        hoods = [((0, 1, 2, 3), kappa / 10), ((0, 1), kappa), ((2, 3), kappa)]
        rep = multitask_experiment(None, None, model_builder=lambda p: hw_cost(p.prior, hoods))
        for sol in rep.solutions:
            self._assert_solved(sol)

    @pytest.mark.parametrize(
        "reward, hoods",
        [
            (0.5, [((1, 2), 0.6), ((0, 1, 2), 0.9)]),
            (2.0, [((0, 2), 0.8), ((0, 1, 2), 0.4)]),
        ],
    )
    def test_guess_the_state_at_former_hangs(self, reward, hoods, hw_cost):
        p = guess_the_state(3, reward)
        self._assert_solved(solve(p, hw_cost(p.prior, hoods)))

    def test_numeric_conjugate_mass_is_exact_near_zero_multiplier(self, hw_cost):
        # the support face drops 8e-11 of mass that the certified argmax of
        # one row keeps; only the full-face refinement restores it
        p = multitask_problems()[0]
        hoods = [((0, 1, 2, 3), 0.028), ((0, 1), 0.28), ((2, 3), 0.28)]
        model = hw_cost(p.prior, hoods)
        alpha = np.array([0.5, 0.5])
        _, G = solver.evaluate(p, model, 1e-17 * np.ones(4))
        assert np.max(np.abs(alpha @ G - 1.0)) <= 1e-12

    def test_inner_minimize_keeps_a_start_that_fits(self, monkeypatch, hw_cost):
        from infoacq import solver

        p = guess_the_state(3, 1.0)
        model = hw_cost(p.prior, [((0, 2), 0.8), ((0, 1, 2), 0.4)])
        alpha = np.array([0.5, 0.3, 0.2])
        lam = solver._inner_minimize(p, model, alpha, None)

        calls = []
        monkeypatch.setattr(solver, "newton", lambda *a, **k: calls.append(1))
        again = solver._inner_minimize(p, model, alpha, lam)
        assert calls == []
        np.testing.assert_array_equal(again, lam - lam.sum() * p.prior)

    def test_overlapping_cover_solves_through_the_numeric_conjugate(self, monkeypatch):
        # inner neighborhoods that share state 1: no nested-logit closed form
        from infoacq import costs

        calls = []
        numeric_conjugate = costs.numeric_conjugate

        def counting(h, x):
            calls.append(1)
            return numeric_conjugate(h, x)

        monkeypatch.setattr(costs, "numeric_conjugate", counting)
        p = guess_the_state(3, 1.0)
        model = neighborhood_hw_cost(p.prior, [((0, 1, 2), 0.4), ((0, 1), 0.8), ((1, 2), 0.6)])
        assert model.entropy.conj_fn is None
        self._assert_solved(solve(p, model))
        assert calls

    def test_a_shared_model_agrees_with_fresh_models(self):
        # the numeric-conjugate memo carries over between solves on one
        # model; it may move the last bits, never the answer
        hoods = [((0, 1, 2), 0.4), ((0, 1), 0.8), ((1, 2), 0.6)]
        shared = neighborhood_hw_cost(guess_the_state(3, 1.0).prior, hoods)
        for reward in (2.0, 1.0, 1.5, 0.5, 0.75):
            p = guess_the_state(3, reward)
            sol = solve(p, shared)
            self._assert_solved(sol)
            fresh = solve(p, neighborhood_hw_cost(p.prior, hoods))
            np.testing.assert_allclose(sol.lam, fresh.lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sol.alpha, fresh.alpha, rtol=0, atol=1e-12)
            assert sol.value == pytest.approx(fresh.value, rel=0, abs=1e-12)
