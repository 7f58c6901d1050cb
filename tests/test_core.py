import numpy as np
import pytest

from infoacq.catalog import exchangeable_problem, guess_the_state, random_kernel, random_problem
from infoacq.core import (
    ChoiceRule,
    Kernel,
    Simplex,
    ValidationError,
    apply_garbling,
    clean_weights,
    detect_symmetries,
    normalize_binary,
    unconditional_distribution,
    validate_problem,
)


class TestValidation:
    def test_well_formed_problem_accepted(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, 0]), ("b", [0, 1])])
        assert p.n_states == 2 and p.n_actions == 2
        assert p.payoffs.shape == (2, 2)

    def test_boundary_prior_rejected(self):
        with pytest.raises(ValidationError, match="full support"):
            validate_problem(["s0", "s1"], [1.0, 0.0], [("a", [1, 0])])

    def test_ragged_payoffs_rejected(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, 0, 2])])

    def test_empty_sets_rejected(self):
        with pytest.raises(ValidationError):
            validate_problem([], [], [("a", [])])
        with pytest.raises(ValidationError):
            validate_problem(["s0"], [1.0], [])

    def test_simplex_sum_tolerance(self):
        Simplex.build(["x", "y"], [0.5 + 4e-13, 0.5 - 4e-13])
        with pytest.raises(ValidationError):
            Simplex.build(["x", "y"], [0.6, 0.5])

    def test_random_problem_rejects_infeasible_prior_floor(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="prior_floor"):
            random_problem(rng, 20, 20)  # default floor 0.05 needs n < 20
        with pytest.raises(ValidationError, match="prior_floor"):
            random_problem(rng, 4, 4, prior_floor=0.25)

    def test_random_problem_feasible_floor_keeps_draws(self):
        p = random_problem(np.random.default_rng(5), 4, 3)
        rng = np.random.default_rng(5)
        prior = rng.dirichlet(np.ones(4))
        while prior.min() < 0.05:
            prior = rng.dirichlet(np.ones(4))
        np.testing.assert_allclose(p.prior, prior / prior.sum(), rtol=1e-15)
        np.testing.assert_array_equal(p.payoffs, rng.uniform(-1.0, 1.0, size=(3, 4)))

    # the (states, floor) pairs of the tests and the benchmark that land
    # above the floor least often, with probability 1.5e-3 or more
    @pytest.mark.parametrize("n, floor", [(9, 0.05), (30, 0.2 / 30), (50, 0.1 / 50)])
    def test_random_problem_keeps_the_rejection_draws_in_use(self, n, floor):
        p = random_problem(np.random.default_rng(5), n, 3, prior_floor=floor)
        # the rejection loop the draws stay bit-identical to
        rng = np.random.default_rng(5)
        prior = rng.dirichlet(np.ones(n))
        while prior.min() < floor:
            prior = rng.dirichlet(np.ones(n))
        np.testing.assert_allclose(p.prior, prior / prior.sum(), rtol=1e-15)
        np.testing.assert_array_equal(p.payoffs, rng.uniform(-1.0, 1.0, size=(3, n)))

    def test_random_problem_rare_floor_draws_the_same_law_at_once(self):
        # a uniform draw clears the default floor at 15 states with
        # probability 3.7e-9, where the rejection loop does not return
        p = random_problem(np.random.default_rng(0), 15, 2)
        assert p.prior.min() >= 0.05
        # at 5 states and floor 0.181 (probability 8.1e-5) the prior is the
        # floor plus 0.095 times a uniform draw, whose smallest coordinate
        # has mean 1/25 and standard deviation 1/(25 sqrt(6))
        rng = np.random.default_rng(1)
        mins = np.array([random_problem(rng, 5, 1, prior_floor=0.181).prior.min() for _ in range(2000)])
        spare = 1.0 - 5 * 0.181
        assert abs(mins.mean() - (0.181 + spare / 25)) <= 4 * spare / (25 * 6**0.5) / 2000**0.5

    def test_solver_error_is_one_class_everywhere(self):
        import infoacq
        from infoacq import core, solver

        assert infoacq.SolverError is solver.SolverError is core.SolverError
        assert issubclass(core.SolverError, RuntimeError)

    def test_payoff_prior_is_read_only_and_kept(self):
        p = random_problem(np.random.default_rng(4), 3, 2)
        assert p.payoff_prior is p.payoff_prior
        np.testing.assert_array_equal(p.payoff_prior, p.payoffs * p.prior[None, :])
        assert not p.payoff_prior.flags.writeable

    def test_small_negative_entries_clipped(self):
        s = Simplex.build(["x", "y"], [1.0 + 1e-15, -1e-15])
        assert s.weights[1] == 0.0
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)


class TestRowValidation:
    """``ChoiceRule.build`` and ``Kernel.build`` check all rows in one pass."""

    def _rows(self, rng, n, m):
        rows = rng.dirichlet(np.ones(m) * 0.3, size=n)
        rows[rng.random((n, m)) < 0.2] = -1e-15
        rows /= rows.sum(axis=1, keepdims=True)
        return rows * (1.0 + rng.uniform(-3e-13, 3e-13, size=(n, 1)))

    @pytest.mark.parametrize("m", [1, 3, 9, 130, 1100])
    def test_rows_match_one_clean_weights_per_row(self, m):
        rng = np.random.default_rng(m)
        p = random_problem(rng, 5, m)
        rows = self._rows(rng, 5, m)
        expected = np.vstack([clean_weights(r, "row") for r in rows]).tobytes()
        # a transposed (Fortran-ordered) input sums its rows in another order
        # unless it is made contiguous first
        for given in (rows, np.asfortranarray(rows)):
            assert ChoiceRule.build(p, given).rows.tobytes() == expected
            assert Kernel.build(p.states, p.action_names, given).rows.tobytes() == expected

    @pytest.mark.parametrize("m", [2, 3, 9, 130])
    def test_normalized_rows_take_the_rows_of_build(self, m):
        # the solver's rows: non-negative, divided by their sums, and laid
        # out as the transpose of the conjugate gradients
        rng = np.random.default_rng(m)
        p = random_problem(rng, 5, m)
        raw = np.maximum(self._rows(rng, m, 5).T, 0.0)
        rows = raw / raw.sum(axis=1, keepdims=True)
        assert not rows.flags.c_contiguous
        for given in (rows, np.ascontiguousarray(rows)):
            fast = ChoiceRule._from_normalized(p, given)
            assert fast.rows.tobytes() == ChoiceRule.build(p, given).rows.tobytes()
            assert not fast.rows.flags.writeable

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "non-finite weight"), (-1e-3, "negative weight"), (0.5, "weights sum to")],
    )
    def test_the_error_names_the_first_bad_row(self, bad, message):
        p = random_problem(np.random.default_rng(3), 4, 3)
        rows = np.full((4, 3), 1.0 / 3.0)
        rows[[1, 3], 0] = bad
        with pytest.raises(ValidationError, match=f"choice rule row 's1': {message}"):
            ChoiceRule.build(p, rows)
        with pytest.raises(ValidationError, match=f"kernel row 's1': {message}"):
            Kernel.build(p.states, p.action_names, rows)


class TestUnconditional:
    def test_deterministic_rule_on_equiprobable_states(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, [[1, 0], [0, 1]])
        out = unconditional_distribution(rule, p.prior)
        np.testing.assert_allclose(out.weights, [0.5, 0.5])

    def test_constant_rule_ignores_prior(self):
        p = validate_problem(["s0", "s1"], [0.3, 0.7], [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, [[0.5, 0.5], [0.5, 0.5]])
        out = unconditional_distribution(rule, p.prior)
        np.testing.assert_allclose(out.weights, [0.5, 0.5])

    def test_deterministic_rule_returns_prior_mass(self):
        p = validate_problem(["s0", "s1"], [0.25, 0.75], [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, [[1, 0], [0, 1]])
        out = unconditional_distribution(rule, p.prior)
        np.testing.assert_allclose(out.weights, [0.25, 0.75])

    def test_mixing_rules_mixes_unconditionals(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, 3, 4)
        r1 = rng.dirichlet(np.ones(4), size=3)
        r2 = rng.dirichlet(np.ones(4), size=3)
        for t in (0.0, 0.25, 0.8, 1.0):
            mixed = ChoiceRule.build(p, t * r1 + (1 - t) * r2)
            lhs = unconditional_distribution(mixed, p.prior).weights
            rhs = t * (p.prior @ r1) + (1 - t) * (p.prior @ r2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_index_mismatch(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, [[1, 0], [0, 1]])
        with pytest.raises(ValidationError, match="index mismatch"):
            unconditional_distribution(rule, [0.2, 0.3, 0.5])


class TestGarbling:
    def test_identity_kernel_is_neutral(self):
        rng = np.random.default_rng(0)
        p = random_kernel(rng, 3, 4)
        ident = Kernel.build(p.target, p.target, np.eye(4))
        out = apply_garbling(ident, p)
        np.testing.assert_allclose(out.rows, p.rows)

    def test_total_garbling_collapses_rows(self):
        rng = np.random.default_rng(1)
        p = random_kernel(rng, 3, 4)
        collapse = Kernel.build(p.target, ["z"], np.ones((4, 1)))
        out = apply_garbling(collapse, p)
        np.testing.assert_allclose(out.rows, np.ones((3, 1)))

    def test_uniform_kernel_matches_matrix_product(self):
        rng = np.random.default_rng(2)
        p = random_kernel(rng, 2, 2)
        k = Kernel.build(p.target, ["z0", "z1"], [[0.5, 0.5], [0.5, 0.5]])
        out = apply_garbling(k, p)
        np.testing.assert_allclose(out.rows, p.rows @ k.rows, atol=1e-15)
        np.testing.assert_allclose(out.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_row_stochasticity_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_kernel(rng, 4, 5)
            k = random_kernel(rng, 5, 3)
            k = Kernel.build(p.target, k.target, k.rows)
            out = apply_garbling(k, p)
            np.testing.assert_allclose(out.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_label_mismatch(self):
        rng = np.random.default_rng(5)
        p = random_kernel(rng, 2, 3)
        k = random_kernel(rng, 2, 2)
        with pytest.raises(ValidationError, match="label mismatch"):
            apply_garbling(k, p)


class TestSymmetries:
    def test_guess_the_state_has_full_symmetric_group(self):
        p = guess_the_state(3, 1.0)
        group = detect_symmetries(p)
        assert len(group) == 6

    def test_asymmetric_payoffs_identity_only(self):
        p = validate_problem(
            ["s0", "s1", "s2"],
            [1 / 3, 1 / 3, 1 / 3],
            [("a", [1.0, 0.2, -0.3]), ("b", [0.0, 0.9, 0.4])],
        )
        group = detect_symmetries(p)
        assert group == [(tuple(range(3)), (0, 1))]

    def test_exchangeable_product_space_finds_coordinate_swap(self):
        p = exchangeable_problem([0.3, 0.9], 2)
        group = detect_symmetries(p)
        # identity plus the swap of the two mixed states
        assert len(group) == 2
        perms = {g for g, _ in group}
        assert tuple(range(4)) in perms
        swap = next(g for g, _ in group if g != tuple(range(4)))
        labels = p.states
        mapped = [labels[i] for i in swap]
        assert mapped[0] == labels[0] and mapped[3] == labels[3]
        assert mapped[1] == labels[2] and mapped[2] == labels[1]

    def test_group_axioms_hold(self):
        for p in (guess_the_state(3, 1.0), guess_the_state(4, 2.0), exchangeable_problem([0.0, 1.0], 2)):
            group = detect_symmetries(p)
            perms = {g for g, _ in group}
            n = p.n_states
            for g in perms:
                inv = tuple(np.argsort(g))
                assert inv in perms
                for h in perms:
                    comp = tuple(g[h[i]] for i in range(n))
                    assert comp in perms

    def test_symmetry_respects_action_permutations(self):
        p = guess_the_state(3, 2.0)
        for g, sigma in detect_symmetries(p):
            permuted = p.payoffs[:, list(g)]
            np.testing.assert_allclose(p.payoffs[list(sigma)], permuted, atol=1e-9)


class TestNormalizeBinary:
    def test_componentwise_subtraction(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [3, 1]), ("b", [2, 2])])
        out = normalize_binary(p)
        np.testing.assert_allclose(out.payoffs[0], [1, -1])
        np.testing.assert_allclose(out.payoffs[1], [0, 0])

    def test_idempotent_on_normalized_input(self):
        p = validate_problem(["s0", "s1"], [0.5, 0.5], [("a", [1, -1]), ("b", [0, 0])])
        out = normalize_binary(p)
        np.testing.assert_allclose(out.payoffs, p.payoffs)

    def test_not_binary(self):
        p = guess_the_state(3, 1.0)
        with pytest.raises(ValidationError, match="binary"):
            normalize_binary(p)
