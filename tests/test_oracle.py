import itertools
import os

import numpy as np
import pytest

from infoacq import divergence, oracle
from infoacq.catalog import exchangeable_problem, random_problem
from infoacq.core import ChoiceRule, SolverError, ValidationError, validate_problem
from infoacq.costs import (
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    scale,
    shannon_kl_entropy,
)
from infoacq.oracle import (
    _lattice_rows,
    _LatticeTables,
    apu_perturbation_from_transform,
    apu_solve,
    brute_force_solve,
    salience_adjusted_perturbation,
    verify_focs,
)
from infoacq.io import load_problem
from infoacq.solver import multiplier_bounds, solve
from infoacq._rootfind import maximize_on_simplex, stationary_point
from infoacq.transform import chi2, shannon, shift_transform


class TestBruteForce:
    def test_identical_actions_attain_common_payoff(self):
        pay = [0.3, -0.1]
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", pay), ("b", pay)])
        m = mutual_information_cost(p.prior, 1.0)
        res = brute_force_solve(p, m, 0.05)
        assert res.value == pytest.approx(float(p.prior @ np.array(pay)), abs=1e-12)

    def test_scaled_entropy_cost_reads_its_scale(self):
        p = validate_problem(["s0", "s1"], [0.4, 0.6], [("a", [1, 0]), ("b", [0, 1])])
        scaled = brute_force_solve(p, scale(mutual_information_cost(p.prior), 2.0), 0.05)
        direct = brute_force_solve(p, mutual_information_cost(p.prior, 2.0), 0.05)
        assert scaled.value == pytest.approx(direct.value, abs=1e-12)

    def test_grid_step_must_divide_one(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, 0]), ("b", [0, 1])])
        with pytest.raises(Exception, match="divide"):
            brute_force_solve(p, mutual_information_cost(p.prior, 1.0), 0.03)

    def test_matches_solver_on_entropy_cost(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, 2, 2)
        m = mutual_information_cost(p.prior, 1.0)
        sol = solve(p, m)
        res = brute_force_solve(p, m, 0.01)
        assert abs(res.value - sol.value) < 2e-4
        assert res.value <= sol.value + 10 * 1e-8

    def test_matches_solver_on_quadratic_cost(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, 2, 2)
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m)
        res = brute_force_solve(p, m, 0.01)
        assert abs(res.value - sol.value) < 2e-4
        assert res.value <= sol.value + 10 * 1e-8

    def test_cost_on_another_prior_is_refused(self):
        # solve refuses this pair; the oracle must not price it with either prior
        p = validate_problem(["s0", "s1"], [0.3, 0.7], [("a", [1, 0]), ("b", [0, 1])])
        for model in (mutual_information_cost([0.5, 0.5], 1.0), chi2_cost([0.5, 0.5], 1.0)):
            with pytest.raises(ValidationError, match="share the prior"):
                brute_force_solve(p, model, 0.25)


class TestLatticeValues:
    @pytest.mark.parametrize("family", ["mutual_information", "chi2", "shifted_chi2"])
    def test_tables_match_the_primal_cost_of_each_rule(self, family):
        # the tables price MI and chi2 in closed form; primal_cost goes through
        # the Newton of divergence.f_mean for chi2, so this check is
        # independent.  chi2 shifted at k = 1 is chi2 itself, which the
        # oracle prices by its explicit batch of f-means: those values are
        # held to the chi2 tables.  A value is a difference of O(1) payoff and
        # cost terms, so one that cancels toward 0 is held to 1e-15 absolute,
        # a few roundings of them
        rng = np.random.default_rng(31)
        build = mutual_information_cost if family == "mutual_information" else chi2_cost
        for n, m in itertools.product((2, 3, 4), repeat=2):
            p = random_problem(rng, n, m)
            model = build(p.prior, float(rng.uniform(0.3, 3.0)))
            rows = _lattice_rows(4, m)
            idx = rng.integers(0, rows.shape[0], size=(5, n))
            if family == "shifted_chi2":
                explicit = csiszar_cost(p.prior, shift_transform(chi2(1.0), 1.0))
                values = _LatticeTables(p, explicit, rows).values(idx[:, :-1], idx[:, -1])
                tables = _LatticeTables(p, chi2_cost(p.prior, 1.0), rows).values(idx[:, :-1], idx[:, -1])
                assert values == pytest.approx(tables, rel=1e-13, abs=1e-15)
                continue
            values = _LatticeTables(p, model, rows).values(idx[:, :-1], idx[:, -1])
            for rule_idx, value in zip(idx, values):
                rule = ChoiceRule.build(p, rows[rule_idx])
                payoff = float(p.prior @ np.sum(rule.rows.T * p.payoffs, axis=0))
                assert value == pytest.approx(payoff - model.primal_cost(rule), rel=1e-13, abs=1e-15)

    def test_two_action_rule_with_an_unused_action_pays_no_reference_mass(self):
        # the explicit batch keeps the reference weight of an unused action at
        # 0 exactly, where its column adds 0 phi(0/0) = 0
        p = random_problem(np.random.default_rng(43), 3, 2)
        t = shift_transform(chi2(1.0), 0.5)
        rows = _lattice_rows(4, 2)  # (0, 1), (1/4, 3/4), ..., (1, 0)
        tables = _LatticeTables(p, csiszar_cost(p.prior, t), rows)
        for used, r in ((1, 0), (0, 4)):
            value = tables.values(np.full((1, 2), r), np.array([r]))[0]
            payoff = p.prior @ p.payoffs[used]
            cost = float(p.prior @ t.phi(np.ones(3)))  # sum_s pi_s phi(P_s,used)
            assert value == pytest.approx(payoff - cost, rel=0, abs=1e-15)

    def test_uncertified_f_mean_in_a_block_is_a_typed_failure(self, monkeypatch):
        # with no Newton step the unconditional distribution is not the chi2
        # f-mean of an informative rule, so its gap is left uncertified
        p = random_problem(np.random.default_rng(47), 2, 3)
        model = csiszar_cost(p.prior, shift_transform(chi2(1.0), 0.5))
        assert np.isfinite(brute_force_solve(p, model, 0.5).value)
        monkeypatch.setattr(divergence, "F_MEAN_STEPS", 0)
        with pytest.raises(SolverError, match="f-mean did not reach"):
            brute_force_solve(p, model, 0.5)

    @pytest.mark.parametrize("n_actions", [2, 3])
    def test_explicit_pricing_agrees_with_the_closed_forms(self, n_actions):
        # chi2 shifted at k = 1 is chi2 itself, and PS-KL is MI, but neither
        # takes the tables: the batched f-mean and primal_cost price the
        # explicit rules of each block (coarser with three actions)
        p = random_problem(np.random.default_rng(41), 2, n_actions)
        grid = 0.25 if n_actions == 2 else 0.5
        pairs = [
            (csiszar_cost(p.prior, shift_transform(chi2(1.0), 1.0)), chi2_cost(p.prior, 1.0)),
            (posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 0.7)), mutual_information_cost(p.prior, 0.7)),
        ]
        for explicit, closed in pairs:
            res = brute_force_solve(p, explicit, grid)
            ref = brute_force_solve(p, closed, grid)
            # the best rule takes a single action, which both routes price at
            # zero cost
            assert res.value == pytest.approx(ref.value, rel=0, abs=1e-15)
            np.testing.assert_array_equal(res.rule.rows, ref.rule.rows)
            assert res.evaluations == ref.evaluations and res.skipped_infinite == 0


def _product_reference(problem, model, grid_step):
    """Every lattice rule in one batch, listed by itertools.product: (value, rows, count).

    The rules are priced by the oracle's own tables: what this pins is the
    enumeration order and the rule it keeps.
    """
    rows = _lattice_rows(round(1.0 / grid_step), problem.n_actions)
    idx = np.array(list(itertools.product(range(rows.shape[0]), repeat=problem.n_states)))
    vals = _LatticeTables(problem, model, rows).values(idx[:, :-1], idx[:, -1])
    j = int(np.argmax(np.where(np.isfinite(vals), vals, -np.inf)))  # the first maximizer
    return float(vals[j]), rows[idx[j]], idx.shape[0]


_TIED = validate_problem(["s0", "s1"], [0.5, 0.5], [(a, [0.0, 0.0]) for a in "abc"])
_RANDOM2 = random_problem(np.random.default_rng(6), 2, 2)
_RANDOM3 = random_problem(np.random.default_rng(7), 3, 3)
# actions a and b are identical: at kappa 0.25 four rules tie for the
# maximum, with lead rows 423, 773, 983 and 1088 of 1,225 (35 lattice rows
# per state); the default walk meets the first in its first block and the
# other three in its second
_DUPLICATED = validate_problem(
    ["s0", "s1", "s2"],
    [0.2, 0.3, 0.5],
    [("a", [1.0, 0.0, 0.2]), ("b", [1.0, 0.0, 0.2]), ("c", [0.0, 1.0, 0.4]), ("d", [0.3, 0.3, 0.9])],
)


class TestLatticeEnumeration:
    @pytest.mark.parametrize(
        "problem,model",
        [
            (_TIED, mutual_information_cost(_TIED.prior, 1.0)),
            (_RANDOM2, chi2_cost(_RANDOM2.prior, 1.0)),
            (_RANDOM3, mutual_information_cost(_RANDOM3.prior, 1.0)),
            (_DUPLICATED, mutual_information_cost(_DUPLICATED.prior, 0.25)),
        ],
    )
    def test_matches_a_plain_product_enumeration(self, problem, model):
        value, rows, count = _product_reference(problem, model, 0.25)
        res = brute_force_solve(problem, model, 0.25)
        assert res.value == value
        np.testing.assert_array_equal(res.rule.rows, rows)
        assert res.evaluations == count

    def test_ties_keep_the_first_maximizer(self):
        # all payoffs tie, so every rule with equal rows is worth exactly 0
        res = brute_force_solve(_TIED, mutual_information_cost(_TIED.prior, 1.0), 0.25)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.rule.rows, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        res = brute_force_solve(_DUPLICATED, mutual_information_cost(_DUPLICATED.prior, 0.25), 0.25)
        np.testing.assert_array_equal(res.rule.rows[0], [0.0, 0.75, 0.0, 0.25])

    @pytest.mark.parametrize("block_values", [35, 35 * 100])
    def test_ties_in_separate_blocks_keep_the_first_maximizer(self, monkeypatch, block_values):
        # 100 lead rows a block puts the four ties in the 5th, 8th, 10th and
        # 11th of 13 blocks; one lead row a block gives each its own block
        model = mutual_information_cost(_DUPLICATED.prior, 0.25)
        expected = brute_force_solve(_DUPLICATED, model, 0.25)
        monkeypatch.setattr(oracle, "BLOCK_VALUES", block_values)
        res = brute_force_solve(_DUPLICATED, model, 0.25)
        assert res.value == expected.value
        np.testing.assert_array_equal(res.rule.rows, expected.rule.rows)
        np.testing.assert_array_equal(res.rule.rows[0], [0.0, 0.75, 0.0, 0.25])


_GUESS3 = load_problem(os.path.join(os.path.dirname(__file__), "..", "samples", "guess3_problem.json"))


def _nudged(nudges):
    """``_LatticeTables.values`` with the value of each rule in ``nudges``, by
    product-order index, moved 1 ulp toward the sign given there."""
    real = _LatticeTables.values

    def values(self, lead, last):
        vals = real(self, lead, last)
        idx = np.concatenate(
            [np.broadcast_to(lead, vals.shape + lead.shape[-1:]), np.broadcast_to(last, vals.shape)[..., None]],
            axis=-1,
        )
        flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), (self.rows.shape[0],) * idx.shape[-1])
        for rule, sign in nudges.items():
            vals = np.where(flat == rule, np.nextafter(vals, sign * np.inf), vals)
        return vals

    return values


class TestTieRule:
    # under chi2 shifted at 0.5, these guess3 rules at grid 0.25 lie within
    # 1 ulp of the maximum (rules 2295 and 2805 attain it): which of them
    # a first-maximizer search keeps depends on the last bit of the pricing
    TIES = (2295, 2311, 2805, 2991, 3260, 3276)

    @pytest.mark.parametrize("block_values", [15, oracle.BLOCK_VALUES])
    @pytest.mark.parametrize("first", [-1.0, 0.0, 1.0])
    def test_rules_within_a_few_ulp_return_the_first(self, monkeypatch, block_values, first):
        # 15 rule values a block give each lead row its own block
        model = csiszar_cost(_GUESS3.prior, shift_transform(chi2(1.0), 0.5))
        rows = _lattice_rows(4, 3)
        idx = np.array(np.unravel_index(np.array(self.TIES), (15,) * 3)).T
        exact = _LatticeTables(_GUESS3, model, rows).values(idx[:, :-1], idx[:, -1])
        assert np.all(exact >= exact.max() - np.spacing(exact.max()))
        monkeypatch.setattr(oracle, "BLOCK_VALUES", block_values)
        if first:
            # the first rule moves 1 ulp one way and every other tie the other way
            nudges = {rule: (first if k == 0 else -first) for k, rule in enumerate(self.TIES)}
            monkeypatch.setattr(_LatticeTables, "values", _nudged(nudges))
        res = brute_force_solve(_GUESS3, model, 0.25)
        np.testing.assert_array_equal(res.rule.rows, rows[idx[0]])
        assert res.value == (np.nextafter(exact[0], first * np.inf) if first else exact[0])


class TestPinnedOracles:
    # guess3 at grid 0.25, as the lattice search priced these costs one rule
    # at a time by ``primal_cost``; the batched ``primal_costs`` must keep
    # both the value and the rule
    @pytest.mark.parametrize(
        "family,value,rule,skipped",
        [
            ("posterior_separable", 0.4411084821718083, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], 0),
            ("perceptual_full_rank", 0.37244897959183676, [[2, 1, 1], [1, 2, 1], [1, 1, 2]], 3264),
            ("perceptual_rank_deficient", 0.25, [[3, 1, 0], [1, 3, 0], [2, 2, 0]], 3339),
        ],
    )
    def test_guess3_keeps_its_value_and_rule(self, family, value, rule, skipped):
        prior = _GUESS3.prior
        if family == "posterior_separable":
            model = posterior_separable_cost(prior, shannon_kl_entropy(prior))
        elif family == "perceptual_full_rank":
            enc = build_encoder([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], prior)
            model = perceptual_csiszar_cost(prior, chi2(1.0), enc)
        else:
            enc = build_encoder([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.5, 0.25]], prior)
            assert not enc.full_column_rank
            model = perceptual_csiszar_cost(prior, chi2(1.0), enc)
        res = brute_force_solve(_GUESS3, model, 0.25)
        assert res.value == pytest.approx(value, rel=1e-13)
        np.testing.assert_array_equal(res.rule.rows, np.array(rule) / 4)
        assert res.skipped_infinite == skipped

    def test_a_lattice_without_a_finite_rule_is_an_input_error(self):
        # the rank-deficient encoder replicates no rule of the grid-0.2 lattice
        enc = build_encoder([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.5, 0.25]], _GUESS3.prior)
        model = perceptual_csiszar_cost(_GUESS3.prior, chi2(1.0), enc)
        with pytest.raises(ValidationError, match="no finite-cost rule"):
            brute_force_solve(_GUESS3, model, 0.2)


class TestVerifyFocs:
    def test_converged_solution_passes(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, 2, 3)
        m = chi2_cost(p.prior, 1.0)
        sol = solve(p, m)
        rep = verify_focs(p, m, sol.alpha, sol.lam, sol.box)
        assert rep.within(1e-8)
        assert rep.in_box

    def test_arbitrary_point_fails(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, 2, 3)
        m = chi2_cost(p.prior, 1.0)
        alpha = np.full(3, 1 / 3)
        lam = np.array([0.3, -0.2])
        rep = verify_focs(p, m, alpha, lam)
        assert not rep.within(1e-6)

    def test_hand_built_saddle_from_closed_forms(self):
        p = exchangeable_problem([1.0, 0.0], 2)
        alpha = np.full(2, 0.5)
        lse = np.log(np.exp(p.payoffs.T) @ alpha)
        lam = p.prior * lse
        m = mutual_information_cost(p.prior, 1.0)
        rep = verify_focs(p, m, alpha, lam, multiplier_bounds(p, m))
        assert rep.residual_alpha < 1e-9 and rep.residual_lambda < 1e-9

    def test_cost_on_another_prior_is_refused(self):
        p = validate_problem(["s0", "s1"], [0.3, 0.7], [("a", [1, 0]), ("b", [0, 1])])
        with pytest.raises(ValidationError, match="share the prior"):
            verify_focs(p, chi2_cost([0.5, 0.5], 1.0), np.full(2, 0.5), np.zeros(2))


def _ascent_apu(payoffs, c, c_prime, tol=1e-10):
    """``apu_solve`` as the per-state simplex ascent took it before the
    first-order root: the reference the root must agree with."""
    m, n = payoffs.shape
    out = np.empty((n, m))
    for s in range(n):
        u = payoffs[:, s]
        gradient = lambda q: u - np.asarray(c_prime(q), dtype=float)
        gap = lambda q: float(gradient(q).max() - q @ gradient(q))
        out[s], certified = maximize_on_simplex(
            lambda q: float(q @ u - np.sum(c(q))),
            gradient,
            gap,
            np.full(m, 1.0 / m),
            tol=tol,
            refine=lambda q: stationary_point(gradient, q, q > 1e-10, accept=lambda r: gap(r) <= tol),
        )
        assert certified
    return out


class TestPerStatePerturbedChoice:
    @pytest.mark.parametrize(
        "t",
        [chi2(1.0), chi2(0.2), shannon(0.5), shift_transform(chi2(1.0), 0.5)],
        ids=["chi2", "chi2_prices_out", "shannon", "shifted_chi2"],
    )
    def test_matches_the_per_state_ascent(self, t):
        rng = np.random.default_rng(17)
        payoffs = rng.uniform(-2.0, 2.0, size=(5, 6))
        c, cp = apu_perturbation_from_transform(t, 5)
        np.testing.assert_allclose(apu_solve(payoffs, c, cp), _ascent_apu(payoffs, c, cp), rtol=0, atol=1e-8)

    def test_entropy_perturbation_reduces_to_logit(self):
        rng = np.random.default_rng(4)
        payoffs = rng.uniform(-1, 1, size=(3, 2))
        kappa = 0.7

        def c(t):
            t = np.asarray(t, dtype=float)
            return kappa * np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)) - t + 1, 1.0)

        def c_prime(t):
            return kappa * np.log(np.asarray(t, dtype=float))

        rows = apu_solve(payoffs, c, c_prime)
        expected = np.exp(payoffs.T / kappa)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(rows, expected, atol=1e-8)

    def test_uncertifiable_state_is_a_typed_failure(self):
        # a derivative that is nowhere finite: no step or refinement can
        # certify the state
        payoffs = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SolverError, match="state 0"):
            apu_solve(payoffs, lambda t: np.asarray(t) ** 2, lambda t: np.full(np.shape(t), np.nan))

    def test_priced_out_action_gets_zero_mass(self):
        # c(p) = p^2 / 2 makes the choice the Euclidean projection of u onto
        # the simplex, p = (u - m)^+: m = 0.45 prices action 2 out in state 0,
        # and m = -7/30 keeps every action in state 1
        payoffs = np.array([[1.0, 0.2], [0.9, 0.1], [-5.0, 0.0]])
        rows = apu_solve(payoffs, lambda t: np.asarray(t) ** 2 / 2, lambda t: np.asarray(t, dtype=float))
        np.testing.assert_allclose(rows[0], [0.55, 0.45, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows[1], np.array([13.0, 10.0, 7.0]) / 30, rtol=0, atol=1e-12)

    def test_identical_payoffs_give_uniform_choice(self):
        payoffs = np.zeros((4, 2))
        c, cp = apu_perturbation_from_transform(chi2(1.0), 4)
        rows = apu_solve(payoffs, c, cp)
        np.testing.assert_allclose(rows, 0.25, atol=1e-9)

    def test_exchangeable_match_with_saddle_solution(self):
        p = exchangeable_problem([0.9, 0.1], 3)
        t = chi2(1.0)
        sol = solve(p, chi2_cost(p.prior, 1.0))
        c, cp = apu_perturbation_from_transform(t, 3)
        rows = apu_solve(p.payoffs, c, cp)
        np.testing.assert_allclose(rows, sol.rule.rows, atol=1e-6)

    def test_salience_adjusted_form_reproduces_any_solution(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, 2, 3)
        t = chi2(1.0)
        sol = solve(p, chi2_cost(p.prior, 1.0))
        if sol.alpha.min() < 1e-9:
            keep = sol.alpha > 1e-9
            names = [n for n, k in zip(p.action_names, keep) if k]
            p = validate_problem(p.states, p.prior, [(n, p.action_payoffs(n)) for n in names])
            sol = solve(p, chi2_cost(p.prior, 1.0))
        c, cp = salience_adjusted_perturbation(t, sol.alpha)
        rows = apu_solve(p.payoffs, c, cp)
        np.testing.assert_allclose(rows, sol.rule.rows, atol=1e-6)
