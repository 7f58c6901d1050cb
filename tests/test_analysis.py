import dataclasses
import math

import numpy as np
import pytest

from infoacq import analysis, transform
from infoacq.analysis import (
    _curvature_samples,
    _curvature_trend,
    epsilon_split_experiment,
    guess_state_accuracy,
    iia_diagnostics,
    inconclusive_thresholds,
    inverse_response,
    multitask_experiment,
    mutual_information_threshold,
    posterior_separable_threshold,
    psychometric_curve,
    response_curve,
    selectivity_report,
)
from infoacq.catalog import (
    distance_encoder,
    guess_the_state,
    guess_with_outside_option,
    mixture_encoder,
    one_dim_binary,
)
from infoacq.core import validate_problem
from infoacq.costs import (
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    neighborhood_hw_entropy,
    shannon_kl_entropy,
)
from infoacq.solver import solve, solve_best_response
from infoacq.transform import (
    chi2,
    risk_indices,
    scale_transform,
    shannon,
    shift_transform,
    tabulated,
)


def _mi_response(gamma, w, kappa=1.0):
    e = math.exp(w / kappa)
    return gamma * e / (gamma * e + 1 - gamma)


class TestGuessAccuracy:
    def test_entropy_closed_form(self):
        acc, l = guess_state_accuracy(shannon(1.0), 2, 1, math.log(3))
        assert acc == pytest.approx(0.75, abs=1e-12)
        assert 0.5 * math.exp(math.log(3) - l) + 0.5 * math.exp(-l) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_hand_solution(self):
        acc, l = guess_state_accuracy(chi2(1.0), 2, 1, 1.0)
        assert l == pytest.approx(0.5, abs=1e-12)
        assert acc == pytest.approx(0.75, abs=1e-12)

    def test_zero_reward_limit(self):
        for t in (shannon(1.0), chi2(1.0)):
            acc, _ = guess_state_accuracy(t, 4, 1, 1e-9)
            assert acc == pytest.approx(0.25, abs=1e-6)

    def test_matches_full_solver_on_block_bets(self):
        t = chi2(1.0)
        for n, m in ((3, 1), (4, 3), (5, 2)):
            acc, _ = guess_state_accuracy(t, n, m, 0.8)
            p = guess_the_state(n, 0.8, m)
            sol = solve(p, csiszar_cost(p.prior, t))
            hit = float(
                p.prior
                @ np.array(
                    [sol.rule.rows[s, p.payoffs[:, s] > 0].sum() for s in range(n)]
                )
            )
            assert acc == pytest.approx(hit, abs=1e-7)


class TestResponseCurve:
    def test_entropy_family_closed_form(self):
        grid = np.linspace(0.1, 5.0, 25)
        for kappa in (0.5, 1.0, 2.0):
            curve = response_curve(shannon(kappa), 0.5, grid)
            expected = [_mi_response(0.5, w, kappa) for w in grid]
            np.testing.assert_allclose(curve.rho, expected, atol=1e-9)

    def test_grid_order_moves_no_point(self):
        # each reward is its own column of the array root
        t = shift_transform(chi2(1.0), 0.5)
        grid = np.linspace(0.1, 5.0, 25)
        order = np.random.default_rng(0).permutation(25)
        curve, shuffled = response_curve(t, 0.3, grid), response_curve(t, 0.3, grid[order])
        np.testing.assert_array_equal(curve.l[order], shuffled.l)
        assert curve.l[3] == response_curve(t, 0.3, grid[3:4]).l[0]

    def test_small_reward_limit(self):
        curve = response_curve(chi2(1.0), 0.5, [1e-10])
        assert curve.rho[0] == pytest.approx(0.5, abs=1e-7)

    def test_strictly_increasing_and_bounded(self):
        # the exponential family has full response range, so the curve stays
        # strictly inside (gamma, 1) and strictly increases everywhere
        grid = np.linspace(0.05, 8.0, 40)
        curve = response_curve(shannon(1.0), 0.3, grid)
        assert np.all(np.diff(curve.rho) > 0)
        assert np.all((curve.rho > 0.3) & (curve.rho < 1.0))
        assert np.all((curve.l > 0) & (curve.l < grid))

    def test_quadratic_saturates_at_finite_reward(self):
        # a transform whose response map hits zero lets accuracy reach one
        grid = np.linspace(0.05, 8.0, 40)
        curve = response_curve(chi2(1.0), 0.3, grid)
        assert np.all(np.diff(curve.rho) >= -1e-12)
        assert np.all(curve.rho <= 1.0 + 1e-12)
        pre = curve.rho[curve.rho < 1.0 - 1e-9]
        assert np.all(np.diff(pre) > 0)
        assert curve.rho[-1] == pytest.approx(1.0, abs=1e-9)

    def test_scaled_share_bounds_approach_response_map(self):
        t = chi2(1.0)
        w = 0.7
        target = float(t.psi_prime(w))
        vals = []
        for n in (2, 4, 8, 16, 64):
            rho = response_curve(t, 1.0 / n, [w]).rho[0]
            vals.append(n * rho)
            assert n * rho <= target + 1e-9
        assert np.all(np.diff(vals) >= -1e-9)
        assert vals[-1] == pytest.approx(target, rel=0.05)
        low = float(t.psi_prime(-w))
        for n in (2, 4, 8):
            rho = response_curve(t, (n - 1) / n, [w]).rho[0]
            assert n * (1 - rho) >= low - 1e-9


class TestInverseResponse:
    def test_logarithmic_example(self):
        w = inverse_response(shannon(1.0), math.e, 1 / math.e)
        assert w == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_limit(self):
        w = inverse_response(chi2(1.0), 1.0 + 1e-9, 1.0 - 1e-9)
        assert abs(w) < 1e-7

    def test_round_trip_with_forward_map(self):
        # rewards kept below the saturation level of the quadratic response
        for t in (shannon(1.0), chi2(1.0), shift_transform(chi2(1.0), 1.7)):
            for gamma, w in ((0.3, 0.9), (0.5, 1.2), (0.7, 0.4)):
                curve = response_curve(t, gamma, [w])
                rho = curve.rho[0]
                x, y = rho / gamma, (1 - rho) / (1 - gamma)
                assert inverse_response(t, x, y) == pytest.approx(w, abs=1e-7)

    def test_additive_separability(self):
        t = chi2(1.0)
        x1, x2 = 1.5, 2.5
        for y in (0.2, 0.5, 0.8):
            d = inverse_response(t, x1, y) - inverse_response(t, x2, y)
            assert d == pytest.approx(
                float(t.phi_prime(x1)) - float(t.phi_prime(x2)), abs=1e-12
            )


class TestInconclusiveThresholds:
    def test_entropy_knife_edge(self):
        rep = inconclusive_thresholds(shannon(1.0), 2, math.log(3))
        assert rep.c_hat == pytest.approx(math.log(2), abs=1e-12)
        assert rep.c_lower == rep.c_upper == rep.c_hat
        assert mutual_information_threshold(2, math.log(3), 1.0) == pytest.approx(math.log(2))

    def test_scaled_entropy_formula(self):
        for kappa in (0.5, 2.0):
            for n in (2, 3, 5):
                got = mutual_information_threshold(n, 1.2, kappa)
                want = kappa * math.log(math.exp(1.2 / kappa) / n + (n - 1) / n)
                assert got == pytest.approx(want, rel=1e-12)

    def test_scaled_transform_reads_its_scale(self):
        scaled = inconclusive_thresholds(scale_transform(shannon(1.0), 2.0), 3, 1.0)
        assert scaled.c_hat == inconclusive_thresholds(shannon(2.0), 3, 1.0).c_hat

    def test_shifted_quadratic_separates_thresholds(self):
        t = shift_transform(chi2(1.0), 2.0)
        rep = inconclusive_thresholds(t, 2, 1.0)
        assert rep.curvature_trend == "decreasing"
        assert rep.c_lower < rep.c_upper
        assert 0.5 < rep.c_lower < 1.0 and rep.c_upper < 1.0

    def test_thresholds_take_one_array_root_per_kind(self, monkeypatch):
        t = shift_transform(chi2(1.0), 2.0)
        calls = []
        roots = analysis.bracketed_roots
        counting = lambda *a, **k: calls.append(1) or roots(*a, **k)
        for module in (analysis, transform):
            monkeypatch.setattr(module, "bracketed_roots", counting)
        ns = [5, 2, 7, 3]
        reps = analysis._thresholds(t, ns, 1.0)
        # c_upper, the multiplier and psi_inverse
        assert len(calls) == 3
        for n, rep in zip(ns, reps):
            assert rep == inconclusive_thresholds(t, n, 1.0)

    def test_full_support_between_thresholds(self):
        t = shift_transform(chi2(1.0), 2.0)
        for n in (2, 3):
            rep = inconclusive_thresholds(t, n, 1.0)
            c_mid = 0.5 * (rep.c_lower + rep.c_upper)
            p = guess_with_outside_option(n, 1.0, c_mid)
            sol = solve(p, csiszar_cost(p.prior, t))
            assert sol.converged
            assert np.all(sol.rule.unconditional > 1e-9)

    def test_knife_edge_behavior_of_entropy_cost(self):
        for n in (2, 3):
            c_hat = mutual_information_threshold(n, math.log(3), 1.0)
            for sign, target in ((+1, 1.0), (-1, 0.0)):
                p = guess_with_outside_option(n, math.log(3), c_hat + sign * 0.05)
                sol = solve(p, mutual_information_cost(p.prior, 1.0))
                assert sol.rule.unconditional[-1] == pytest.approx(target, abs=1e-4)


class TestPosteriorSeparableThreshold:
    def test_uniform_entropy_matches_exponential_formula(self):
        n, w = 2, math.log(3)
        h = shannon_kl_entropy(np.full(n, 1 / n), 1.0)
        rep = posterior_separable_threshold(h, n, w)
        assert rep.c_hat == pytest.approx(math.log(2), abs=1e-10)

    def test_small_reward_limit(self):
        h = shannon_kl_entropy(np.full(3, 1 / 3), 1.0)
        rep = posterior_separable_threshold(h, 3, 1e-8)
        assert abs(rep.c_hat) < 1e-7

    def test_numeric_conjugate_entropy_agrees(self):
        n, w = 2, 0.9
        hw = neighborhood_hw_entropy(np.full(n, 1 / n), [((0, 1), 1.0)])
        closed = shannon_kl_entropy(np.full(n, 1 / n), 1.0)
        a = posterior_separable_threshold(hw, n, w)
        b = posterior_separable_threshold(closed, n, w)
        assert a.c_hat == pytest.approx(b.c_hat, abs=1e-6)

    def test_knife_edge_verification(self):
        h = shannon_kl_entropy(np.full(2, 0.5), 1.0)
        rep = posterior_separable_threshold(h, 2, math.log(3), verify=True)
        assert rep.p_safe_above == pytest.approx(1.0, abs=1e-4)
        assert rep.p_safe_below == pytest.approx(0.0, abs=1e-4)

    def test_asymmetric_entropy_rejected(self):
        prior = np.full(3, 1 / 3)
        lopsided = neighborhood_hw_entropy(prior, [((0, 1), 1.0), ((0, 1, 2), 0.5)])
        with pytest.raises(Exception, match="asymmetric"):
            posterior_separable_threshold(lopsided, 3, 1.0)


class TestPsychometric:
    def test_distance_encoder_gives_monotone_curve(self):
        thetas = np.linspace(-1, 1, 7)
        p = one_dim_binary(thetas, thetas)
        enc = distance_encoder(thetas, lambda d: math.exp(-d * d / 0.18))
        rep = psychometric_curve(p, shannon(1.0), enc)
        assert rep.mlrp and rep.monotone
        assert rep.shape_consistent

    def test_sharp_perception_jumps_at_sign_change(self):
        thetas = np.linspace(-1, 1, 6)
        r = np.sign(thetas) * 0.8
        p = one_dim_binary(thetas, r)
        enc = distance_encoder(thetas, lambda d: 1.0 if d == 0 else 1e-12)
        rep = psychometric_curve(p, shannon(1.0), enc)
        jumps = np.diff(rep.p_risky)
        k = np.argmax(np.abs(jumps))
        assert thetas[k] < 0 < thetas[k + 1]
        assert np.abs(jumps).max() > 0.2
        inner = np.delete(np.abs(jumps), k)
        assert inner.max() < 1e-6

    def test_mixture_encoder_s_shape(self):
        n = 9
        thetas = np.linspace(-1, 1, n)
        r = np.linspace(-0.6, 0.6, n)
        p = one_dim_binary(thetas, r)
        logistic = 1.0 / (1.0 + np.exp(-3.0 * thetas))
        xi = np.exp(np.linspace(0, 1.5, n))
        chi_mode = xi[::-1]
        enc = mixture_encoder(xi / xi.sum(), chi_mode / chi_mode.sum(), logistic)
        rep = psychometric_curve(p, shannon(1.0), enc)
        assert rep.mlrp and rep.monotone
        d2 = rep.second_differences
        assert rep.shape_consistent
        # convex early, concave late
        assert d2[0] > -1e-9 and d2[-1] < 1e-9

    def test_unordered_states_rejected(self):
        p = validate_problem(["b", "a"], [0.5, 0.5], [("risky", [0, 1]), ("safe", [0, 0])])
        enc = distance_encoder(np.array([0.0, 1.0]), lambda d: math.exp(-d))
        with pytest.raises(Exception, match="numeric|unordered"):
            psychometric_curve(p, shannon(1.0), enc)


class TestEpsilonSplit:
    def test_entropy_family_ratio_is_exact(self):
        rep = epsilon_split_experiment(shannon(1.0), [1.0, 0.0, 0.0], 1, 2)
        np.testing.assert_allclose(rep.ratios, 1.0, atol=1e-10)
        assert rep.target == pytest.approx(1.0)
        assert rep.estimated_order == math.inf

    def test_two_action_quadratic(self):
        rep = epsilon_split_experiment(chi2(1.0), [0.0, 0.0], 0, 1)
        assert rep.target == pytest.approx(1.0)
        assert abs(rep.ratios[-1] - 1.0) < 1e-3
        assert rep.estimated_order >= 0.9

    def test_quadratic_three_action_convergence(self):
        rep = epsilon_split_experiment(chi2(1.0), [1.0, 0.0, 0.0], 1, 2)
        assert rep.target == pytest.approx(1.5)
        errors = np.abs(rep.ratios - rep.target)
        assert np.all(np.diff(errors) < 0)
        assert rep.estimated_order >= 0.9

    def test_zero_epsilon_degenerates_to_symmetry(self):
        rep = epsilon_split_experiment(chi2(1.0), [1.0, 0.0, 0.0], 1, 2, epsilons=[1e-12])
        assert abs(rep.log_likelihood_ratios[0]) < 1e-9

    def test_matches_full_saddle_solve(self):
        t = chi2(1.0)
        d = [1.0, 0.0, 0.0]
        eps = 0.1
        rep = epsilon_split_experiment(t, d, 1, 2, epsilons=[eps])
        from infoacq.catalog import epsilon_split_vector, irreducible_problem

        p = irreducible_problem(epsilon_split_vector(np.array(d), 1, 2, eps))
        sol = solve(p, csiszar_cost(p.prior, t))
        s_idx = p.states.index("(1," + f"{eps:g}" + f",-{eps:g})")
        llr = math.log(sol.rule.rows[s_idx, 1] / sol.rule.rows[s_idx, 2])
        assert llr == pytest.approx(rep.log_likelihood_ratios[0], abs=1e-7)

    def test_oversized_vector_rejected(self):
        with pytest.raises(Exception, match="cap"):
            epsilon_split_experiment(chi2(1.0), [1, 2, 3, 4, 5, 6], 0, 1)


class TestMultitask:
    def test_limit_accuracies(self):
        rep = multitask_experiment(1e-3, 1.0)
        assert rep.accuracies[0] >= 0.99
        assert rep.accuracies[1] >= 0.99
        assert rep.accuracies[2] == pytest.approx(math.e / (math.e + 1), abs=5e-3)

    def test_equal_weights_collapse(self):
        rep = multitask_experiment(0.8, 0.8)
        a1, a2, a3 = rep.accuracies
        assert a1 == pytest.approx(a2, abs=1e-6)
        assert a2 == pytest.approx(a3, abs=1e-6)

    def test_diagonal_accuracy_increases_as_within_learning_cheapens(self):
        accs = [multitask_experiment(1e-3, eta).accuracies[2] for eta in (2.0, 1.0, 0.25)]
        assert accs[0] < accs[1] < accs[2]
        assert accs[2] > 0.97

    def test_fixed_neighborhood_cost_cannot_separate_tasks(self):
        # a tree of neighborhoods (everything, rows) with jointly shrinking
        # weights: all three accuracies drift to one together, so no
        # weight sequence keeps the two-dimensional bet hard while the
        # one-dimensional bets become free (unlike the nested cost, whose
        # within-nest weight pins the third accuracy at e/(e+1) for all
        # vanishing across-nest weights)
        structure = [((0, 1, 2, 3), None), ((0, 1), None), ((2, 3), None)]
        accs = {}
        for kappa in (0.2, 0.02):
            weights = [kappa / 10, kappa, kappa]
            hoods = [(idx, w) for (idx, _), w in zip(structure, weights)]
            rep = multitask_experiment(
                None, None, model_builder=lambda p: neighborhood_hw_cost(p.prior, hoods)
            )
            accs[kappa] = rep.accuracies
        for j in range(3):
            assert accs[0.02][j] > accs[0.2][j] - 1e-9
        assert min(accs[0.02]) > 0.98
        nested = multitask_experiment(1e-4, 1.0)
        assert nested.accuracies[2] < 0.75 < 0.99 < min(nested.accuracies[:2])

    def test_the_default_cost_is_built_once_for_the_three_bets(self):
        rep = multitask_experiment(0.1, 1.0)
        assert rep.solutions[0].model is rep.solutions[1].model is rep.solutions[2].model
        # a caller's builder is still called once per bet
        built = []
        rep = multitask_experiment(
            None, None, model_builder=lambda p: built.append(p) or neighborhood_hw_cost(p.prior, [((0, 1, 2, 3), 0.1)])
        )
        assert [sol.problem for sol in rep.solutions] == built


class TestIIA:
    def test_entropy_cost_satisfies_all_three(self):
        p = validate_problem(
            ["s0", "s1", "s2"],
            [1 / 3] * 3,
            [("a", [1.0, 0.4, 0.4]), ("b", [0.4, 1.0, 0.4]), ("c", [0.2, 0.2, 0.9])],
        )
        sol = solve(p, mutual_information_cost(p.prior, 1.0))
        rep = iia_diagnostics(sol)
        for dev in (rep.actions_max_dev, rep.states_max_dev):
            assert dev is None or dev <= 1e-6

    def test_quadratic_cost_keeps_labels_but_breaks_action_invariance(self):
        # u1, u2 are payoff-identical; b and c agree on v1 and v2; a and b are
        # both flat across (u1, w) where the multipliers differ; every action
        # is uniquely best somewhere so the support stays full
        p = validate_problem(
            ["u1", "u2", "v1", "v2", "w", "z"],
            [1 / 6] * 6,
            [
                ("a", [1.0, 1.0, 0.1, 0.45, 1.0, 0.0]),
                ("b", [0.4, 0.4, 1.2, 0.70, 0.4, 1.5]),
                ("c", [0.2, 0.2, 1.2, 0.70, 1.6, 0.0]),
            ],
        )
        sol = solve(p, chi2_cost(p.prior, 0.5))
        assert np.all(sol.rule.unconditional > 1e-6)
        rep = iia_diagnostics(sol)
        assert rep.labels_max_dev is not None and rep.labels_max_dev <= 1e-6
        assert rep.states_max_dev is not None and rep.states_max_dev <= 1e-6
        assert rep.actions_max_dev is not None and rep.actions_max_dev > 1e-4

    def test_matched_multiplier_pairs_are_invariant(self):
        p = guess_the_state(4, 1.0)
        sol = solve(p, chi2_cost(p.prior, 1.0))
        rep = iia_diagnostics(sol)
        assert rep.matched_multiplier_max_dev is not None
        assert rep.matched_multiplier_max_dev <= 1e-6


class TestSelectivity:
    def _comparable_family(self, t, spreads):
        # actions a and b are flat across the first two states at different
        # levels; c varies across them, separating the multipliers; each
        # action is uniquely best in some state so the support stays full
        sols = []
        for spread in spreads:
            p = validate_problem(
                ["s0", "s1", "s2", "s3"],
                [0.25] * 4,
                [
                    ("a", [0.8, 0.8, 0.1, 0.3]),
                    ("b", [0.3, 0.3, 0.9, 0.1]),
                    ("c", [0.2, 0.2 + spread, 0.5, 0.9]),
                ],
            )
            m = csiszar_cost(p.prior, t)
            sol = solve_best_response(p, m)
            assert np.all(sol.rule.unconditional > 1e-6)
            sols.append(sol)
        return sols

    def test_entropy_family_shows_no_selectivity_drift(self):
        t = shannon(0.25)
        sols = self._comparable_family(t, [0.3, 0.5])
        rep = selectivity_report(sols, t)
        assert rep.trend == "constant"
        assert rep.comparisons > 0
        assert rep.violations == 0

    def test_decreasing_curvature_gives_increasing_selectivity(self):
        t = shift_transform(chi2(0.25), 2.0)
        sols = self._comparable_family(t, [0.3, 0.5, 0.7])
        rep = selectivity_report(sols, t)
        assert rep.trend == "decreasing"
        assert rep.comparisons > 0
        assert rep.violations == 0

    def test_entropy_response_curvature_formula(self):
        gamma, kappa = 0.5, 1.0
        grid = np.linspace(0.2, 3.0, 29)
        curve = response_curve(shannon(kappa), gamma, grid)
        h = grid[1] - grid[0]
        num2 = (curve.rho[2:] - 2 * curve.rho[1:-1] + curve.rho[:-2]) / h**2
        num1 = (curve.rho[2:] - curve.rho[:-2]) / (2 * h)
        got = num2 / num1
        e = np.exp(grid[1:-1])
        want = ((1 - gamma) - gamma * e) / (gamma * e + 1 - gamma)
        np.testing.assert_allclose(got, want, atol=1e-3)


class TestShapeDiagnostics:
    def test_concave_response_when_prudence_signs_align(self):
        # quadratic transform: psi''' = 0 away from the kink, so the response
        # curve is weakly concave wherever the kink stays inactive
        t = chi2(1.0)
        grid = np.linspace(0.05, 1.5, 30)
        curve = response_curve(t, 0.5, grid)
        d2 = np.diff(curve.rho, 2)
        assert np.all(d2 <= 1e-6)

    def test_identification_separates_builtin_families(self):
        grid = np.linspace(0.2, 2.0, 7)
        diffs = []
        for gamma in (0.25, 0.5, 0.75):
            a = response_curve(shannon(1.0), gamma, grid).rho
            b = response_curve(chi2(1.0), gamma, grid).rho
            diffs.append(np.max(np.abs(a - b)))
        assert max(diffs) > 1e-3


def _reference_curvature(t, lo, hi, samples=41):
    """The curvature scan one ``risk_indices`` call per sample, and its trend."""
    vals = []
    for x in np.linspace(lo, hi, samples):
        if t.near_kink(x, 1e-4):
            continue
        try:
            vals.append(risk_indices(t, float(x))[0])
        except ValueError:
            continue
    if len(vals) < 3:
        return np.array(vals), "mixed"
    diffs = np.diff(vals)
    scale = max(1e-12, np.abs(vals).max())
    if np.all(np.abs(diffs) <= 1e-9 * scale):
        return np.array(vals), "constant"
    if np.all(diffs >= -1e-9 * scale):
        return np.array(vals), "increasing"
    if np.all(diffs <= 1e-9 * scale):
        return np.array(vals), "decreasing"
    return np.array(vals), "mixed"


def _curvature_transforms():
    ts = np.linspace(-3.0, 3.0, 25)
    table = tabulated(np.column_stack([ts, np.exp(ts) * (1.0 + 0.1 * np.sin(ts))]))
    return {
        "chi2": chi2(1.0),
        "shannon": shannon(0.7),
        "scaled_chi2": scale_transform(chi2(1.0), 2.5),
        "shifted_chi2": shift_transform(chi2(1.0), 0.5),
        "shifted_shannon": shift_transform(shannon(1.0), 2.0),
        "tabulated": table,
        # no psi'': the scan takes centered differences of psi'
        "chi2_without_psi_pp": dataclasses.replace(chi2(0.8), psi_pp=None),
        "tabulated_without_psi_pp": dataclasses.replace(table, psi_pp=None),
    }


class TestCurvatureScan:
    @pytest.mark.parametrize("name", list(_curvature_transforms()))
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-1.0, 1.0),  # the chi2 kink at -1 is a grid point
            (-4.0, 4.0),  # reaches where chi2's psi' and psi'' vanish
            (0.2, 5.0),
        ],
    )
    def test_matches_the_per_sample_loop(self, name, lo, hi):
        t = _curvature_transforms()[name]
        want, trend = _reference_curvature(t, lo, hi)
        got = _curvature_samples(t, lo, hi)
        assert got.shape == want.shape
        # the same arithmetic on the same points; only a vectorized exp may
        # differ from the scalar one in its last bit, which the centered
        # differences without psi'' magnify by about 1 / h = 1e5
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert _curvature_trend(t, lo, hi) == trend
