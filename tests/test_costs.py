import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from infoacq import costs, divergence, solve
from infoacq.catalog import random_problem
from infoacq.core import ChoiceRule, SolverError, ValidationError, validate_problem
from infoacq.costs import (
    MEMO_CAPACITY,
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    neighborhood_hw_entropy,
    nested_shannon_cost,
    nested_shannon_entropy,
    numeric_conjugate,
    numeric_entropy,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    scale,
    shannon_kl_entropy,
)
from infoacq.transform import chi2, shannon, shift_transform, tabulated


def _fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _model_zoo(rng, n=3):
    prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
    prior /= prior.sum()
    enc_rows = rng.dirichlet(np.ones(n), size=n) * 0.5 + 0.5 * np.eye(n)
    enc_rows /= enc_rows.sum(axis=1, keepdims=True)
    encoder = build_encoder(enc_rows, prior)
    hoods = [(((0, 1)), 0.7), (((1, 2)), 1.3), ((tuple(range(n))), 0.5)]
    return [
        mutual_information_cost(prior, 1.0),
        chi2_cost(prior, 1.0),
        csiszar_cost(prior, shannon(0.7)),
        posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.2)),
        nested_shannon_cost(prior, encoder, 0.8, 1.4),
        neighborhood_hw_cost(prior, hoods),
        perceptual_csiszar_cost(prior, chi2(1.0), encoder),
    ]


class TestConjugateValues:
    def test_mutual_information_at_zero(self):
        m = mutual_information_cost(np.array([0.4, 0.6]), 1.0)
        assert m.f_star(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_chi2_branch_example(self):
        m = chi2_cost(np.array([0.5, 0.5]), 1.0)
        assert m.f_star(np.array([0.5, -0.5])) == pytest.approx(0.5)

    def test_nested_collapses_to_plain_entropy_when_weights_agree(self):
        rng = np.random.default_rng(0)
        prior = np.array([0.2, 0.3, 0.4, 0.1])
        rows = rng.dirichlet(np.ones(3), size=4)
        enc = build_encoder(rows, prior)
        for kappa in (0.6, 1.0, 1.7):
            nested = nested_shannon_entropy(enc, kappa, kappa)
            plain = shannon_kl_entropy(prior, kappa)
            for _ in range(10):
                x = rng.normal(size=4)
                assert nested.h_star(x) == pytest.approx(plain.h_star(x), abs=1e-9)

    def test_all_families_vanish_at_zero(self):
        rng = np.random.default_rng(1)
        for m in _model_zoo(rng):
            assert m.f_star(np.zeros(3)) == pytest.approx(0.0, abs=1e-10)


class TestConjugateGradients:
    def test_mutual_information_gradient_at_zero_is_ones(self):
        m = mutual_information_cost(np.array([0.25, 0.75]), 1.0)
        np.testing.assert_allclose(m.grad_f_star(np.zeros(2)), [1.0, 1.0], atol=1e-12)

    def test_nested_entropy_gradient_at_zero_is_prior(self):
        rng = np.random.default_rng(2)
        prior = np.array([0.3, 0.2, 0.5])
        rows = rng.dirichlet(np.ones(2), size=3)
        enc = build_encoder(rows, prior)
        h = nested_shannon_entropy(enc, 1.0, 1.0)
        np.testing.assert_allclose(h.grad_h_star(np.zeros(3)), prior, atol=1e-10)

    def test_perceptual_with_identity_encoder_matches_separable(self):
        rng = np.random.default_rng(3)
        prior = np.array([0.3, 0.3, 0.4])
        enc = build_encoder(np.eye(3), prior)
        perc = perceptual_csiszar_cost(prior, chi2(1.0), enc)
        plain = chi2_cost(prior, 1.0)
        for _ in range(10):
            x = rng.normal(scale=0.5, size=3)
            assert perc.f_star(x) == pytest.approx(plain.f_star(x), abs=1e-12)
            np.testing.assert_allclose(perc.grad_f_star(x), plain.grad_f_star(x), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        # arguments drawn on the payoff-space domain (a - lam_pi) * prior that
        # the saddle machinery actually queries, keeping curvature moderate
        rng = np.random.default_rng(4)
        for m in _model_zoo(rng):
            for _ in range(200 // 7 + 1):
                x = m.prior * rng.normal(scale=0.8, size=3)
                g = m.grad_f_star(x)
                fd = _fd_gradient(m.f_star, x)
                np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    def test_gradients_nonnegative(self):
        rng = np.random.default_rng(5)
        for m in _model_zoo(rng):
            for _ in range(20):
                x = rng.normal(scale=0.8, size=3)
                assert np.all(m.grad_f_star(x) >= -1e-12)


class TestOverflowReporting:
    def test_conjugate_overflow_names_a_state(self):
        from infoacq.costs import conjugate_value

        m = mutual_information_cost(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(OverflowError, match="state"):
            conjugate_value(m, np.array([400.0, 0.0]))

    def test_finite_values_pass_through(self):
        from infoacq.costs import conjugate_gradient, conjugate_value

        m = chi2_cost(np.array([0.5, 0.5]), 1.0)
        assert conjugate_value(m, np.array([0.5, -0.5])) == pytest.approx(0.5)
        assert conjugate_gradient(m, np.zeros(2)).shape == (2,)


class TestStructuralProperties:
    def test_monotone_in_componentwise_order(self):
        rng = np.random.default_rng(6)
        for m in _model_zoo(rng):
            for _ in range(20):
                x = rng.normal(scale=0.6, size=3)
                y = x + rng.uniform(0, 0.5, size=3)
                assert m.f_star(x) <= m.f_star(y) + 1e-12

    def test_convex_along_segments(self):
        rng = np.random.default_rng(7)
        for m in _model_zoo(rng):
            for _ in range(20):
                x = rng.normal(scale=0.6, size=3)
                y = rng.normal(scale=0.6, size=3)
                mid = m.f_star(0.5 * (x + y))
                assert mid <= 0.5 * m.f_star(x) + 0.5 * m.f_star(y) + 1e-10

    def test_fenchel_young_with_equality_at_gradient(self):
        rng = np.random.default_rng(8)
        prior = np.array([0.4, 0.35, 0.25])
        models = [
            mutual_information_cost(prior, 1.0),
            chi2_cost(prior, 1.0),
            posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.0)),
        ]

        def primal(m, y):
            if m.family in ("mutual_information", "chi2"):
                return float(prior @ m.transform.phi(y))
            p = y * prior
            if abs(p.sum() - 1.0) > 1e-9:
                return math.inf
            return m.entropy.value(p)

        for m in models:
            for _ in range(20):
                x = rng.normal(scale=0.5, size=3)
                y = m.grad_f_star(x)
                lhs = m.f_star(x) + primal(m, y)
                assert lhs == pytest.approx(float(x @ y), abs=1e-7)
                z = np.abs(rng.normal(scale=0.5, size=3))
                assert m.f_star(x) + primal(m, z) >= float(x @ z) - 1e-9

    def test_scaling_wrapper_identity(self):
        rng = np.random.default_rng(9)
        prior = np.array([0.5, 0.5])
        tri = np.array([0.2, 0.3, 0.5])
        enc = build_encoder([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], tri)
        bases = (
            mutual_information_cost(prior, 1.0),
            chi2_cost(prior, 1.0),
            posterior_separable_cost(tri, shannon_kl_entropy(tri, 0.7)),
            nested_shannon_cost(tri, enc, 0.5, 1.0),
            # a two-level cover: scaling wraps its nested-logit closed form
            neighborhood_hw_cost(tri, [((0, 1), 1.0), ((0, 1, 2), 0.5)]),
            # overlapping neighborhoods: scaling wraps the numeric conjugate
            neighborhood_hw_cost(tri, [((0, 1), 1.0), ((1, 2), 0.7), ((0, 1, 2), 0.5)]),
        )
        for base in bases:
            kappa = 2.3
            scaled = scale(base, kappa)
            for _ in range(20):
                x = rng.normal(size=base.prior.size)
                assert scaled.f_star(x) == pytest.approx(kappa * base.f_star(x / kappa), abs=1e-11)
                np.testing.assert_allclose(
                    scaled.grad_f_star(x), base.grad_f_star(x / kappa), atol=1e-11
                )

    def test_translation_invariance_posterior_separable(self):
        rng = np.random.default_rng(10)
        prior = np.array([0.3, 0.3, 0.4])
        m = posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.0))
        for _ in range(20):
            x = rng.normal(size=3)
            c = rng.normal()
            assert m.f_star(x + c * prior) == pytest.approx(m.f_star(x) + c, abs=1e-9)


# states 0, 2 and 3 each miss one attribute, so at their vertices a whole nest drops out
_NEST_KERNEL = np.array([[0.7, 0.3, 0.0], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6], [0.5, 0.0, 0.5]])
_NEST_PRIOR = np.array([0.1, 0.2, 0.3, 0.4])


def _nest_points(rng):
    """Dirichlet draws, posteriors on faces and the vertices e_s."""
    faces = [[0.5, 0.5, 0, 0], [0.3, 0, 0.7, 0], [0, 0.3, 0, 0.7], [0.2, 0.3, 0.5, 0]]
    return [*rng.dirichlet(np.ones(4), 10), *np.array(faces, dtype=float), *np.eye(4)]


class TestNestedShannonValues:
    """The entropy value is the dual of the closed-form nested-logit surplus."""

    @pytest.mark.parametrize("kappa", [0.001, 0.3, 1.0, 5000.0])
    def test_equal_weights_give_the_kl_closed_form(self, kappa):
        # zeta = eta = kappa collapses the nests into kappa KL(p || prior)
        rng = np.random.default_rng(12)
        h = nested_shannon_entropy(build_encoder(_NEST_KERNEL, _NEST_PRIOR), kappa, kappa)
        for p in _nest_points(rng):
            pos = p > 0
            kl = float(p[pos] @ np.log(p[pos] / _NEST_PRIOR[pos]))
            assert h.value(p) == pytest.approx(kappa * kl, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "zeta,eta", [(1, 1), (0.3, 1), (0.1, 0.5), (0.01, 1), (0.001, 1), (1, 0.5)]
    )
    def test_dual_point_meets_fenchel_young(self, zeta, eta):
        rng = np.random.default_rng(13)
        enc = build_encoder(_NEST_KERNEL, _NEST_PRIOR)
        etas = np.full(enc.n_attributes, float(eta))
        h = nested_shannon_entropy(enc, zeta, etas)
        with np.errstate(divide="ignore"):
            logmu = np.log(enc.mu)
        for p in _nest_points(rng):
            value, x = costs._nested_shannon_dual(np.log(enc.nu), logmu, etas, float(zeta), p)
            face = p > 0
            assert value == h.value(p)
            assert np.all(x[~face] == -np.inf)
            # a finite level this far below the face carries no mass either
            y = np.where(face, x, x[face].min() - 1e4 * max(zeta, eta))
            assert abs(p[face] @ x[face] - h.h_star(y) - value) <= 1e-12 * max(1.0, value)
            assert np.max(np.abs(h.grad_h_star(y) - p)) <= 1e-12


class TestNumericConjugate:
    def test_single_neighborhood_matches_closed_form(self):
        prior = np.array([0.3, 0.25, 0.45])
        h = neighborhood_hw_entropy(prior, [((0, 1, 2), 1.0)])
        closed = shannon_kl_entropy(prior, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.normal(size=3)
            val, arg = numeric_conjugate(h, x)
            assert val == pytest.approx(closed.h_star(x), abs=1e-8)
            np.testing.assert_allclose(arg, closed.grad_h_star(x), atol=1e-6)

    def test_constant_vector_hits_translation(self):
        prior = np.array([0.6, 0.4])
        h = neighborhood_hw_entropy(prior, [((0, 1), 1.0)])
        for c in (-0.7, 0.0, 1.3):
            val, arg = numeric_conjugate(h, np.full(2, c))
            assert val == pytest.approx(c, abs=1e-9)
            np.testing.assert_allclose(arg, prior, atol=1e-6)

    def test_tree_structure_matches_nested_entropy(self):
        prior = np.full(4, 0.25)
        cells = [(0, 1), (2, 3)]
        kappa0 = 0.7
        kappas = [0.5, 0.9]
        hoods = [(tuple(range(4)), kappa0)] + [(c, k) for c, k in zip(cells, kappas)]
        hw = neighborhood_hw_entropy(prior, hoods)
        rows = np.zeros((4, 2))
        for j, cell in enumerate(cells):
            for s in cell:
                rows[s, j] = 1.0
        enc = build_encoder(rows, prior)
        nested = nested_shannon_entropy(enc, kappa0, [kappa0 + k for k in kappas])
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.normal(size=4)
            val, _ = numeric_conjugate(hw, x)
            assert val == pytest.approx(nested.h_star(x), abs=1e-7)

    def test_memoization_returns_identical_objects(self):
        prior = np.array([0.5, 0.5])
        h = neighborhood_hw_entropy(prior, [((0, 1), 1.0)])
        x = np.array([0.3, -0.2])
        first = numeric_conjugate(h, x)
        second = numeric_conjugate(h, x)
        assert first is second

    def test_memo_is_a_bounded_lru(self):
        h = neighborhood_hw_entropy(np.array([0.6, 0.4]), [((0, 1), 1.0)])
        extra = 7
        # constant queries are certified at the prior, so each miss is cheap
        queries = [np.full(2, 1e-3 * i) for i in range(MEMO_CAPACITY + extra)]
        results = [numeric_conjugate(h, x) for x in queries]
        assert len(h._memo) == MEMO_CAPACITY
        for x, out in zip(queries[-extra:], results[-extra:]):
            assert numeric_conjugate(h, x) is out
        assert numeric_conjugate(h, queries[0]) is not results[0]  # evicted
        assert len(h._memo) == MEMO_CAPACITY

    def test_memo_shared_across_threads(self):
        # six threads insert, touch and scan the memo of one entropy; an
        # unguarded memo evicts a key between lookup and reordering
        memo = neighborhood_hw_entropy(np.array([0.6, 0.4]), [((0, 1), 1.0)])._memo
        workers, per_worker = 6, 4 * MEMO_CAPACITY
        errors = []

        def work(w):
            try:
                for i in range(per_worker):
                    memo.put(np.array([w, i], dtype=float).tobytes(), (float(i), np.ones(2)))
                    memo.get(np.array([w, max(i - 1, 0)], dtype=float).tobytes())
                    if i % 512 == 0:
                        memo.nearest_argmax(np.array([w, i], dtype=float))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(memo) == MEMO_CAPACITY

    def test_entropy_hessian_matches_central_differences_of_gradient(self):
        prior = np.array([0.2, 0.3, 0.1, 0.4])
        h = neighborhood_hw_entropy(prior, [((0, 1, 2, 3), 0.07), ((0, 1), 0.7), ((2, 3), 0.5)])
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4))
            fd = np.column_stack(
                [(h.grad_fn(p + e) - h.grad_fn(p - e)) / 2e-6 for e in 1e-6 * np.eye(4)]
            )
            np.testing.assert_allclose(h.hess_fn(p), fd, rtol=0, atol=1e-7)

    def test_cold_and_warm_memo_agree(self):
        prior = np.array([0.2, 0.3, 0.1, 0.4])
        hoods = [((0, 1, 2, 3), 0.07), ((0, 1), 0.7), ((2, 3), 0.5)]
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.normal(size=4)
            cold = numeric_conjugate(neighborhood_hw_entropy(prior, hoods), x)
            warm_h = neighborhood_hw_entropy(prior, hoods)
            numeric_conjugate(warm_h, x + 0.05 * rng.normal(size=4))
            warm = numeric_conjugate(warm_h, x)
            assert warm[0] == pytest.approx(cold[0], abs=1e-12)
            np.testing.assert_allclose(warm[1], cold[1], rtol=0, atol=1e-12)

    def test_mirror_symmetric_inputs_give_mirrored_argmaxes(self):
        h = neighborhood_hw_entropy(np.full(4, 0.25), [((0, 1, 2, 3), 0.1), ((0, 1), 1.0), ((2, 3), 1.0)])
        mirror = [1, 0, 3, 2]
        rng = np.random.default_rng(16)
        for _ in range(5):
            x = rng.normal(size=4)
            val, arg = numeric_conjugate(h, x)
            val_m, arg_m = numeric_conjugate(h, x[mirror])
            assert val_m == pytest.approx(val, abs=1e-12)
            np.testing.assert_allclose(arg_m, arg[mirror], rtol=0, atol=1e-12)

    def test_argmax_with_underflowing_masses_is_certified(self):
        # the argmax puts about e^-1150 on most states, so Newton on the
        # whole simplex fails every line search; the ascent used to run
        # 100,000 steps and 132,244 entropy evaluations (31 s) before a
        # bare RuntimeError
        prior = random_problem(np.random.default_rng(5), 9, 4).prior
        hoods = [(tuple(range(9)), 0.2), ((0, 1), 1), ((2, 3), 1), ((4, 5), 1), ((6, 7), 1)]
        h = neighborhood_hw_entropy(prior, hoods)
        x = np.array(
            [
                284.539041722471,
                248.8875044771337,
                53.73529311213349,
                8.551376948390764,
                69.24340927738841,
                191.58270113732056,
                -1156.49325496782,
                83.69928028610856,
                123.40057839405195,
            ]
        )
        calls = []
        value_fn, grad_fn = h.value_fn, h.grad_fn
        h.value_fn = lambda p: calls.append(1) or value_fn(p)
        h.grad_fn = lambda p: calls.append(1) or grad_fn(p)
        val, arg = numeric_conjugate(h, x)
        assert len(calls) <= 2_000
        assert h.gap_fn(x, arg) <= costs.NUMERIC_TOL
        assert val == pytest.approx(float(arg @ x) - value_fn(arg), abs=1e-9)
        assert val == pytest.approx(283.1856, abs=1e-3)

    def test_uncertifiable_query_is_a_typed_failure(self):
        # a gradient that is nowhere finite: no step or refinement certifies
        prior = np.array([0.3, 0.7])
        h = numeric_entropy(prior, lambda p: float(p @ np.log(p / prior)), lambda p: np.full(2, np.nan))
        with pytest.raises(SolverError, match="did not reach gap"):
            numeric_conjugate(h, np.array([0.5, -0.5]))

    def test_cover_that_leaves_a_state_out_is_rejected(self):
        # H would be linear along state 2; solves on such a cover used to hang
        with pytest.raises(ValidationError, match=r"state\(s\) \[2\] uncovered"):
            neighborhood_hw_entropy(np.full(3, 1 / 3), [((0, 1), 0.5)])


class TestNeighborhoodCover:
    @pytest.mark.parametrize(
        "hood, match",
        [
            (((0, 5), 1.0), r"lie in \[0, 3\)"),
            (((0, -1), 1.0), r"lie in \[0, 3\)"),
            (((0, 0, 1, 2), 1.0), "repeats a state"),
            (((0, 1.0, 2), 1.0), "integer"),
            (((), 1.0), "empty"),
            (((0, 1, 2), math.nan), "finite and positive"),
            (((0, 1, 2), math.inf), "finite and positive"),
            (((0, 1, 2), 0.0), "finite and positive"),
            (((0, 1, 2), "1.0"), "finite and positive"),
            ((0, 1, 2), r"\(states, weight\) pair"),
            ((3, 1.0), r"\(states, weight\) pair"),
        ],
    )
    def test_malformed_neighborhood_is_rejected(self, hood, match):
        with pytest.raises(ValidationError, match=match):
            neighborhood_hw_entropy(np.full(3, 1 / 3), [((0, 1, 2), 1.0), hood])

    def test_repeated_neighborhoods_add_their_weights(self):
        prior = np.array([0.2, 0.3, 0.5])
        split = neighborhood_hw_entropy(prior, [((0, 1), 0.3), ((1, 2), 0.5), ((1, 0), 0.4)])
        merged = neighborhood_hw_entropy(prior, [((0, 1), 0.7), ((1, 2), 0.5)])
        rng = np.random.default_rng(64)
        for p in rng.dirichlet(np.ones(3), size=5):
            assert split.value(p) == pytest.approx(merged.value(p), rel=1e-15, abs=1e-15)
            np.testing.assert_allclose(split.grad_fn(p), merged.grad_fn(p), rtol=1e-15, atol=1e-15)


def _loop_forms(prior, hoods):
    """The per-block loop forms of the neighborhood entropy's value, gradient
    and Hessian, as a reference for the block-membership matrix forms."""
    blocks = [(np.array(idx), kap, prior[list(idx)] / prior[list(idx)].sum()) for idx, kap in hoods]

    def value(p):
        total = 0.0
        for idx, kap, pi_b in blocks:
            mass = float(p[idx].sum())
            if mass <= 0.0:
                continue
            cond = p[idx] / mass
            pos = cond > 0
            total += kap * mass * float(cond[pos] @ np.log(cond[pos] / pi_b[pos]))
        return total

    def grad(p):
        g = np.zeros_like(p)
        for idx, kap, pi_b in blocks:
            mass = float(p[idx].sum())
            cond = np.maximum(p[idx] / max(mass, 1e-300), 1e-300)
            g[idx] += kap * np.log(cond / pi_b)
        return g

    def hess(p):
        H = np.zeros((p.size, p.size))
        for idx, kap, _ in blocks:
            p_b = np.maximum(p[idx], 1e-300)
            H[np.ix_(idx, idx)] += kap * (np.diag(1.0 / p_b) - 1.0 / p_b.sum())
        return H

    return value, grad, hess


def _log_uniform(rng, lo=0.002, hi=1000.0):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _two_level_cover(rng, n):
    """A random two-level cover: the whole set split into two repeats, and a
    random partition whose blocks (singletons among them) sit inside it,
    one of them repeated."""
    kappa_r = _log_uniform(rng)
    hoods = [(tuple(range(n)), kappa_r / 3), (tuple(int(s) for s in rng.permutation(n)), 2 * kappa_r / 3)]
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False))
    inner = [tuple(int(s) for s in part) for part in np.split(perm, cuts)]
    hoods += [(idx, _log_uniform(rng)) for idx in inner]
    kap = _log_uniform(rng)
    hoods += [(inner[0], kap / 2), (inner[0][::-1], kap / 2)]
    return hoods, kappa_r


class TestNeighborhoodClosedForm:
    def test_two_level_conjugate_matches_numeric_twin(self, numeric_twin):
        rng = np.random.default_rng(61)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
            prior /= prior.sum()
            hoods, kappa_r = _two_level_cover(rng, n)
            h = neighborhood_hw_entropy(prior, hoods)
            twin = numeric_twin(h)
            assert h.conj_fn is not None and twin.conj_fn is None
            # payoffs on the scale of the root weight keep every posterior
            # mass far above the 1e-10 face of the implicit Hessian
            Y = kappa_r * rng.normal(size=(4, n))
            for y in Y:
                H_y = h.conj_hess_fn(y[None], [1.0])
                H_t = twin.conj_hess_fn(y[None], [1.0])
                val, arg = numeric_conjugate(twin, y)
                assert abs(h.h_star(y) - val) <= 1e-12 * max(1.0, abs(val))
                np.testing.assert_allclose(h.grad_h_star(y), arg, rtol=0, atol=1e-12)
                # the implicit Hessian inverts a bordered matrix whose
                # condition grows with the weight ratio (up to 5e5 here): on
                # such draws it was off by up to 1.1e-11 of its scale, where
                # the closed form stayed within 2e-13 of a 40-digit evaluation
                np.testing.assert_allclose(H_y, H_t, rtol=0, atol=1e-10 * max(1.0, np.abs(H_t).max()))

    def test_fenchel_young_equality_at_the_gradient(self):
        rng = np.random.default_rng(62)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
            prior /= prior.sum()
            hoods, kappa_r = _two_level_cover(rng, n)
            h = neighborhood_hw_entropy(prior, hoods)
            for y in kappa_r * rng.normal(size=(4, n)):
                g = h.grad_h_star(y)
                dual = float(y @ g) - h.h_star(y)
                assert abs(h.value(g) - dual) <= 1e-12 * max(1.0, abs(dual))

    @pytest.mark.parametrize(
        "hoods",
        [
            [((0, 1, 2, 3), 0.5)],
            [((0, 1, 2, 3), 0.5), ((0, 1), 1.0)],
            [((3, 2, 1, 0), 0.2), ((0, 1, 2, 3), 0.3), ((1, 3), 0.7), ((2,), 0.4), ((3, 1), 0.1)],
        ],
    )
    def test_two_level_covers_get_the_closed_form(self, hoods):
        assert neighborhood_hw_entropy(np.full(4, 0.25), hoods).conj_fn is not None

    @pytest.mark.parametrize(
        "hoods",
        [
            [((0, 1), 1.0), ((1, 2), 0.5), ((2, 3), 0.5)],  # overlapping, no root
            [((0, 1, 2, 3), 0.5), ((0, 1), 1.0), ((1, 2), 0.5)],  # overlapping inner blocks
            [((0, 1, 2, 3), 0.5), ((0, 1, 2), 1.0), ((0, 1), 0.5)],  # three levels
            [((0, 1), 1.0), ((2, 3), 0.5)],  # no neighborhood of every state
        ],
    )
    def test_other_covers_keep_the_numeric_conjugate(self, hoods):
        h = neighborhood_hw_entropy(np.full(4, 0.25), hoods)
        assert h.conj_fn is None

    def test_matrix_forms_match_the_loop_forms(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            prior = rng.dirichlet(np.ones(n)) * 0.8 + 0.2 / n
            prior /= prior.sum()
            # random overlapping blocks plus singletons for what they miss
            hoods = []
            for _ in range(int(rng.integers(1, 5))):
                idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                hoods.append((tuple(int(s) for s in idx), _log_uniform(rng, 0.05, 20.0)))
            missed = sorted(set(range(n)) - {s for idx, _ in hoods for s in idx})
            hoods += [((s,), 0.3) for s in missed]
            h = neighborhood_hw_entropy(prior, hoods)
            value, grad, hess = _loop_forms(prior, hoods)
            weight = np.array([sum(kap for idx, kap in hoods if s in idx) for s in range(n)])
            for _ in range(5):
                p = rng.dirichlet(np.full(n, 0.5))
                p[rng.random(n) < 0.2] = 0.0  # faces, and blocks without mass
                if p.sum() == 0.0:
                    p[0] = 1.0
                p /= p.sum()
                assert abs(h.value(p) - value(p)) <= 1e-13 * max(1.0, abs(value(p)))
                g = grad(p)
                np.testing.assert_allclose(h.grad_fn(p), g, rtol=0, atol=1e-13 * max(1.0, np.abs(g).max()))
                # the Hessian sums terms kap / p_s that cancel on singleton
                # blocks; off the face p_s is clamped at 1e-300
                q = rng.dirichlet(np.ones(n))
                np.testing.assert_allclose(h.hess_fn(q), hess(q), rtol=0, atol=1e-13 * np.max(weight / q))


def _eager_forms(prior, blocks):
    """The neighborhood entropy's value, gradient, Hessian, gap and faces with
    every table built up front, as a reference for the tables built on
    first use."""
    n = prior.size
    member = np.zeros((len(blocks), n), dtype=bool)
    for b, (idx, _) in enumerate(blocks):
        member[b, list(idx)] = True
    M = member.astype(float)
    kap = np.array([k for _, k in blocks])
    kap_states = kap @ M
    logpi_b = np.where(member, np.log(prior)[None, :] - np.log(M @ prior)[:, None], 0.0)
    diag = np.arange(n)

    def value(p):
        mass = M @ p
        keep = member & (p > 0)[None, :] & (mass > 0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * (np.log(p)[None, :] - np.log(mass)[:, None] - logpi_b)
        return float(kap @ np.where(keep, terms, 0.0).sum(axis=1))

    def grad(p):
        mass = np.maximum(M @ p, 1e-300)
        with np.errstate(over="ignore"):
            cond = np.maximum(p[None, :] / mass[:, None], 1e-300)
        return kap @ np.where(member, np.log(cond) - logpi_b, 0.0)

    def hess(p):
        p = np.maximum(p, 1e-300)
        H = -(M.T * (kap / (M @ p))) @ M
        H[diag, diag] += kap_states / p
        return H

    def surplus(x):
        z = np.where(member, x[None, :] / kap[:, None] + logpi_b, -np.inf)
        zmax = z.max(axis=1)
        return kap * (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)))

    def gap(x, p):
        g = x - grad(np.maximum(p, 1e-300))
        full = M @ p > 1e-12
        supported = member[full].any(axis=0)
        candidates = np.concatenate([g[supported], surplus(x)[~full]])
        return float(candidates.max() - p[supported] @ g[supported])

    def faces(x, p):
        s = surplus(x)
        winners = member[s >= s.max() - 1e-9].any(axis=0)
        return [winners, winners | (p > 1e-10), winners | (p > 1e-4)]

    return value, grad, hess, gap, faces


class TestLazyNeighborhoodTables:
    """The neighborhood entropy builds its tables on the first call of a map
    that reads them, and validates its cover with the same messages."""

    @pytest.mark.parametrize(
        "hoods",
        [
            [((0, 1, 2, 3, 4), 0.3), ((0, 1), 0.8), ((2, 4), 0.5)],  # two levels
            [((0, 1, 2, 3, 4), 0.3), ((0, 1, 2), 0.8), ((0, 1), 0.5), ((3, 4), 0.2)],  # three levels
            [((0, 1), 0.7), ((1, 2, 3), 0.4), ((3, 4), 0.9), ((4, 0), 0.2)],  # overlapping
        ],
    )
    def test_maps_equal_the_eager_ones_bit_for_bit(self, hoods):
        rng = np.random.default_rng(71)
        prior = rng.dirichlet(np.ones(5)) * 0.8 + 0.04
        prior /= prior.sum()
        h = neighborhood_hw_entropy(prior, hoods)
        reference = _eager_forms(h.prior, costs._neighborhood_blocks(5, hoods))
        lazy = (h.value, h.grad_fn, h.hess_fn, h.gap_fn, h.faces_fn)
        points = list(rng.dirichlet(np.full(5, 0.5), size=4)) + [np.array([0.5, 0.5, 0.0, 0.0, 0.0])]
        for p in points:
            x = rng.normal(size=5)
            assert lazy[0](p) == reference[0](p)
            for mine, theirs in zip(lazy[1:3], reference[1:3]):
                np.testing.assert_array_equal(mine(p), theirs(p))
            assert lazy[3](x, p) == reference[3](x, p)
            for mine, theirs in zip(lazy[4](x, p), reference[4](x, p)):
                np.testing.assert_array_equal(mine, theirs)

    def test_blocks_merge_repeats_in_order_of_first_place(self):
        hoods = [((2, 0), 0.5), ((0, 1, 2), 0.25), ((np.int64(0), np.int64(2)), 0.25)]
        assert costs._neighborhood_blocks(3, hoods) == [((0, 2), 0.75), ((0, 1, 2), 0.25)]

    @pytest.mark.parametrize(
        "hood, message",
        [
            (((0, True), 1.0), "neighborhood (0, True): states must be integer indices"),
            (((np.int64(0), np.bool_(True)), 1.0), "neighborhood (np.int64(0), np.True_): states must be integer indices"),
            (((0, 1.0), 1.0), "neighborhood (0, 1.0): states must be integer indices"),
            (((0, 4), 1.0), "neighborhood (0, 4): states must lie in [0, 4)"),
            (((np.int64(-1), np.int64(2)), 1.0), "neighborhood (np.int64(-1), np.int64(2)): states must lie in [0, 4)"),
            (((1, 2, 1), 1.0), "neighborhood (1, 2, 1) repeats a state"),
            (((0, 1), 0.0), "neighborhood weights must be finite and positive, got 0.0"),
            (((0, 1), -1.0), "neighborhood weights must be finite and positive, got -1.0"),
            (((0, 1), True), "neighborhood weights must be finite and positive, got True"),
            ((0, 1), "a neighborhood is a (states, weight) pair, got (0, 1)"),
            (((0, 1), 1.0, 2.0), "a neighborhood is a (states, weight) pair, got ((0, 1), 1.0, 2.0)"),
            (3, "a neighborhood is a (states, weight) pair, got 3"),
            (((), 1.0), "empty neighborhood"),
        ],
    )
    def test_malformed_items_keep_their_messages(self, hood, message):
        with pytest.raises(ValidationError) as err:
            neighborhood_hw_entropy(np.full(4, 0.25), [((0, 1, 2, 3), 1.0), hood])
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "hoods, message",
        [
            ([((0, 1), 1.0), ((2,), 0.5)], "neighborhoods leave state(s) [3] uncovered"),
            ([((np.int32(1),), 1.0)], "neighborhoods leave state(s) [0, 2, 3] uncovered"),
            ([], "neighborhoods leave state(s) [0, 1, 2, 3] uncovered"),
        ],
    )
    def test_uncovered_states_keep_their_message(self, hoods, message):
        with pytest.raises(ValidationError) as err:
            neighborhood_hw_entropy(np.full(4, 0.25), hoods)
        assert str(err.value) == message

    def test_the_cost_shares_the_entropys_cleaned_prior(self):
        model = neighborhood_hw_cost([0.2, 0.3, 0.5], [((0, 1, 2), 0.5), ((0, 1), 0.4)])
        assert model.prior is model.entropy.prior
        np.testing.assert_array_equal(model.prior, costs.clean_weights([0.2, 0.3, 0.5]))
        # a scaled model still cleans the prior it is handed, as it did when
        # the model's prior was a second cleaning of the caller's
        prior = np.random.default_rng(0).dirichlet(np.ones(5))
        scaled = scale(neighborhood_hw_cost(prior, [((0, 1, 2, 3, 4), 0.5)]), 2.0)
        assert scaled.prior.tobytes() == costs.clean_weights(costs.clean_weights(prior)).tobytes()


class TestPrimalCost:
    def test_constant_rule_is_free(self):
        rng = np.random.default_rng(13)
        for m in _model_zoo(rng):
            p = validate_problem(
                ["s0", "s1", "s2"], m.prior, [("a", [1, 0, 0]), ("b", [0, 1, 0])]
            )
            rows = np.tile([0.4, 0.6], (3, 1))
            rule = ChoiceRule.build(p, rows)
            assert m.primal_cost(rule) == pytest.approx(0.0, abs=1e-9)

    def test_fully_revealing_under_entropy_cost(self):
        prior = np.array([0.5, 0.5])
        p = validate_problem(["s0", "s1"], prior, [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, np.eye(2))
        m = mutual_information_cost(prior, 1.0)
        assert m.primal_cost(rule) == pytest.approx(math.log(2), abs=1e-12)

    def test_unreplicable_rule_costs_infinity(self):
        prior = np.full(4, 0.25)
        rows = np.zeros((4, 2))
        rows[:2, 0] = 1.0
        rows[2:, 1] = 1.0
        enc = build_encoder(rows, prior)  # coarse deterministic categorization
        p = validate_problem(
            [f"s{i}" for i in range(4)], prior, [("a", [1, 0, 0, 0]), ("b", [0, 1, 1, 1])]
        )
        separating = ChoiceRule.build(p, np.array([[1, 0], [0, 1], [0, 1], [0, 1]], dtype=float))
        m = perceptual_csiszar_cost(prior, chi2(1.0), enc)
        assert m.primal_cost(separating) == math.inf
        coarse = ChoiceRule.build(p, np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float))
        assert math.isfinite(m.primal_cost(coarse))

    def test_blackwell_monotone_under_garblings(self):
        rng = np.random.default_rng(14)
        prior = np.array([0.4, 0.6])
        p = validate_problem(["s0", "s1"], prior, [("a", [1, 0]), ("b", [0, 1]), ("c", [0.5, 0.5])])
        models = [
            mutual_information_cost(prior, 1.0),
            chi2_cost(prior, 1.0),
            posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.0)),
        ]
        for _ in range(50):
            rows = rng.dirichlet(np.ones(3), size=2)
            rule = ChoiceRule.build(p, rows)
            k = rng.dirichlet(np.ones(3), size=3)
            garbled = ChoiceRule.build(p, rows @ k)
            for m in models:
                assert m.primal_cost(garbled) <= m.primal_cost(rule) + 1e-8

    def test_primal_convex_along_segments(self):
        rng = np.random.default_rng(15)
        prior = np.array([0.5, 0.5])
        p = validate_problem(["s0", "s1"], prior, [("a", [1, 0]), ("b", [0, 1])])
        m = chi2_cost(prior, 1.0)
        for _ in range(10):
            r1 = rng.dirichlet(np.ones(2), size=2)
            r2 = rng.dirichlet(np.ones(2), size=2)
            lam = rng.uniform()
            mid = m.primal_cost(ChoiceRule.build(p, lam * r1 + (1 - lam) * r2))
            ends = lam * m.primal_cost(ChoiceRule.build(p, r1)) + (1 - lam) * m.primal_cost(
                ChoiceRule.build(p, r2)
            )
            assert mid <= ends + 1e-8

    def test_uncertified_f_mean_is_a_typed_failure(self, monkeypatch):
        prior = np.array([0.5, 0.5])
        p = validate_problem(["s0", "s1"], prior, [("a", [1, 0]), ("b", [0, 1])])
        rule = ChoiceRule.build(p, np.array([[0.9, 0.1], [0.2, 0.8]]))
        m = chi2_cost(prior, 1.0)
        assert math.isfinite(m.primal_cost(rule))
        real = divergence.f_means

        def uncertified(spec, rows):
            alpha, value, residual = real(spec, rows)
            return alpha, value, residual + 2.0 * divergence.F_MEAN_TOL

        monkeypatch.setattr(divergence, "f_means", uncertified)
        with pytest.raises(SolverError, match="f-mean did not reach"):
            m.primal_cost(rule)

    def test_encoder_garbling_raises_perceptual_cost(self):
        rng = np.random.default_rng(16)
        prior = np.array([0.3, 0.3, 0.4])
        sharp = build_encoder(np.eye(3), prior)
        for _ in range(5):
            noise = rng.dirichlet(np.ones(3) * 5, size=3)
            blurred = build_encoder(np.eye(3) @ noise, prior)
            m_sharp = perceptual_csiszar_cost(prior, chi2(1.0), sharp)
            m_blur = perceptual_csiszar_cost(prior, chi2(1.0), blurred)
            for _ in range(5):
                q = rng.dirichlet(np.ones(2), size=3)
                # a rule replicable under the blurred encoder: lift an attribute rule
                rows = blurred.rows @ q
                p = validate_problem(
                    ["s0", "s1", "s2"], prior, [("a", [1, 0, 0]), ("b", [0, 1, 1])]
                )
                rule = ChoiceRule.build(p, rows)
                assert m_blur.primal_cost(rule) >= m_sharp.primal_cost(rule) - 1e-8


_BATCH_PRIOR = np.array([0.25, 0.35, 0.4])
_FULL_RANK = [[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]
_RANK_DEFICIENT = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.5, 0.25]]  # row 2 is the mean of rows 0 and 1


def _batch_model(name):
    prior = _BATCH_PRIOR
    ts = np.linspace(-3.0, 3.0, 25)
    return {
        "mutual_information": lambda: mutual_information_cost(prior, 0.8),
        "chi2": lambda: chi2_cost(prior, 1.3),
        "shifted_chi2": lambda: csiszar_cost(prior, shift_transform(chi2(1.0), 0.5)),
        "tabulated": lambda: csiszar_cost(prior, tabulated(np.column_stack([ts, np.exp(ts) * (1.0 + 0.1 * np.sin(ts))]))),
        "posterior_separable": lambda: posterior_separable_cost(prior, shannon_kl_entropy(prior, 1.2)),
        "nested_shannon": lambda: nested_shannon_cost(prior, build_encoder(_FULL_RANK, prior), 0.8, 1.4),
        "neighborhood_two_level": lambda: neighborhood_hw_cost(prior, [((0, 1, 2), 0.5), ((0, 1), 1.0)]),
        "neighborhood_overlapping": lambda: neighborhood_hw_cost(prior, [((0, 1, 2), 0.5), ((0, 1), 1.0), ((1, 2), 0.5)]),
        "perceptual_full_rank": lambda: perceptual_csiszar_cost(prior, chi2(1.0), build_encoder(_FULL_RANK, prior)),
        "perceptual_rank_deficient": lambda: perceptual_csiszar_cost(
            prior, shift_transform(chi2(1.0), 0.5), build_encoder(_RANK_DEFICIENT, prior)
        ),
    }[name]()


def _batch_rules(rng, model):
    """Random 3 x 3 rules, one with an unused action and one with a zero entry;
    for a perceptual cost, lifts of attribute channels (nnls replicates the
    sparse ones through a rank-deficient encoder) and the identity, which no
    mixing encoder replicates."""
    if model.family == "perceptual_csiszar":
        channels = [np.eye(3), np.eye(3)[[1, 2, 0]], [[1, 0, 0], [0.5, 0.5, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 1, 0]]]
        channels.append(rng.dirichlet(np.ones(3), size=3))
        return np.array([model.encoder.rows @ np.asarray(q) for q in channels] + [np.eye(3)])
    rules = rng.dirichlet(np.ones(3), size=(5, 3))
    rules[1, :, 2] = 0.0
    rules[2, 0] = [0.0, 0.3, 0.7]
    return rules / rules.sum(axis=2, keepdims=True)


def _replicated_cost(model, rule, tol=1e-8):
    """The perceptual cost of one rule, its attribute channel found by
    least squares (full rank) or by nnls column by column."""
    from scipy.optimize import nnls

    K = model.encoder.rows
    if model.encoder.full_column_rank:
        Q = np.linalg.lstsq(K, rule, rcond=None)[0]
    else:
        Q = np.column_stack([nnls(K, col)[0] for col in rule.T])
    if Q.min() < -tol:
        return math.inf
    Q = np.maximum(Q, 0.0)
    if np.abs(K @ Q - rule).sum() > tol or np.abs(Q.sum(axis=1) - 1.0).max() > tol:
        return math.inf
    spec = divergence.csiszar_spec(model.encoder.nu, model.transform)
    return float(divergence.csiszar_f_means(spec, (Q / Q.sum(axis=1, keepdims=True))[None])[1][0])


class TestBatchedPrimalCosts:
    @pytest.mark.parametrize("name", ["mutual_information", "chi2", "shifted_chi2", "tabulated"])
    def test_csiszar_stack_is_each_rule_alone(self, name):
        model = _batch_model(name)
        rules = _batch_rules(np.random.default_rng(71), model)
        spec = divergence.csiszar_spec(model.prior, model.transform)
        each = [divergence.csiszar_f_means(spec, rule[None])[1][0] for rule in rules]
        np.testing.assert_array_equal(model.primal_costs(rules), each)
        p = validate_problem(["s0", "s1", "s2"], model.prior, [("a", [1, 0, 0]), ("b", [0, 1, 0]), ("c", [0, 0, 1])])
        rule = ChoiceRule.build(p, rules[0])
        assert model.primal_cost(rule) == divergence.csiszar_f_means(spec, rule.rows[None])[1][0]

    @pytest.mark.parametrize(
        "name", ["posterior_separable", "nested_shannon", "neighborhood_two_level", "neighborhood_overlapping"]
    )
    def test_posterior_separable_stack_is_the_divergence_at_the_unconditional(self, name):
        model = _batch_model(name)
        if name.startswith("neighborhood"):
            # the two-level cover takes the nested-logit closed form, the
            # overlapping one the numeric conjugate
            assert (model.entropy.conj_fn is not None) == (name == "neighborhood_two_level")
        rules = _batch_rules(np.random.default_rng(72), model)
        spec = divergence.posterior_separable_spec(model.prior, model.entropy.value)
        each = [divergence.f_divergence(spec, rule, model.prior @ rule) for rule in rules]
        np.testing.assert_allclose(model.primal_costs(rules), each, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["perceptual_full_rank", "perceptual_rank_deficient"])
    def test_perceptual_stack_replicates_each_rule(self, name):
        model = _batch_model(name)
        assert model.encoder.full_column_rank == (name == "perceptual_full_rank")
        rules = _batch_rules(np.random.default_rng(73), model)
        each = [_replicated_cost(model, rule) for rule in rules]
        assert math.isinf(each[-1]) and sum(map(math.isfinite, each)) >= 2
        np.testing.assert_allclose(model.primal_costs(rules), each, rtol=1e-13, atol=1e-16)


_PASS_FAMILIES = [
    "mutual_information",
    "chi2",
    "shifted_chi2",
    "tabulated",
    "posterior_separable",
    "nested_shannon",
    "neighborhood_two_level",
    "scaled_entropy",
    "numeric_twin",
]


class TestConjugatePass:
    """``evaluate_rows`` takes one ``conj_pass`` per matrix, and the Hessian
    formed from that pass is the one a fresh ``weighted_hessian`` computes."""

    def _build(self, name, numeric_twin):
        if name == "scaled_entropy":
            return scale(_batch_model("posterior_separable"), 1.7)
        if name == "numeric_twin":
            model = _batch_model("neighborhood_two_level")
            return costs.PosteriorSeparableCost(model.prior, numeric_twin(model.entropy), model.family)
        return _batch_model(name)

    def _point(self):
        rng = np.random.default_rng(81)
        return 0.6 * rng.normal(size=(4, 3)), rng.uniform(0.1, 1.0, size=4)

    @pytest.mark.parametrize("name", _PASS_FAMILIES)
    def test_pass_equals_the_separate_rows(self, name, numeric_twin):
        X, _ = self._point()
        v, G = self._build(name, numeric_twin).evaluate_rows(X)
        separate = self._build(name, numeric_twin)
        np.testing.assert_array_equal(v, separate.f_star_rows(X))
        np.testing.assert_array_equal(G, separate.grad_rows(X))

    @pytest.mark.parametrize("name", _PASS_FAMILIES)
    def test_hessian_from_the_pass_equals_a_fresh_one(self, name, numeric_twin):
        X, w = self._point()
        model = self._build(name, numeric_twin)
        model.evaluate_rows(X)

        def fresh(*args):
            raise AssertionError("the Hessian at the evaluated matrix is read off its pass")

        model._hessian_at = fresh
        H = model.weighted_hessian(X, w)
        expected = self._build(name, numeric_twin).weighted_hessian(X, w)
        assert H.shape == (3, 3)
        np.testing.assert_array_equal(H, expected)

    def test_another_matrix_gets_a_fresh_hessian(self):
        X, w = self._point()
        model = _batch_model("posterior_separable")
        model.evaluate_rows(X)
        moved = X + 0.1
        np.testing.assert_array_equal(
            model.weighted_hessian(moved, w), _batch_model("posterior_separable").weighted_hessian(moved, w)
        )

    def test_an_entropy_without_a_hessian_passes_none(self):
        # a numeric entropy with no hess_fn has no conjugate Hessian: its pass
        # keeps no map, and the Newton solves take forward differences
        def quadratic(prior):
            return numeric_entropy(
                prior, lambda p: 0.5 * float(np.sum((p - prior) ** 2 / prior)), lambda p: (p - prior) / prior
            )

        model = posterior_separable_cost(_BATCH_PRIOR, quadratic(_BATCH_PRIOR))
        X, w = self._point()
        v, G = model.evaluate_rows(X)
        assert model._last_rows[4] is None and model.weighted_hessian(X, w) is None
        separate = posterior_separable_cost(_BATCH_PRIOR, quadratic(_BATCH_PRIOR))
        np.testing.assert_array_equal(v, separate.f_star_rows(X))
        np.testing.assert_array_equal(G, separate.grad_rows(X))
        p = random_problem(np.random.default_rng(3), 3, 3)
        assert solve(p, posterior_separable_cost(p.prior, quadratic(p.prior))).converged

    @pytest.mark.parametrize("name", _PASS_FAMILIES)
    def test_the_kept_pass_does_not_hold_its_model(self, name, numeric_twin):
        # a Hessian map bound to its model would make a reference cycle, so
        # every evaluated model would wait for the cyclic collector
        model = self._build(name, numeric_twin)
        model.evaluate_rows(self._point()[0])
        ref = weakref.ref(model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestEntropyInvariants:
    def test_entropies_vanish_at_prior(self):
        rng = np.random.default_rng(17)
        prior = np.array([0.25, 0.3, 0.45])
        rows = rng.dirichlet(np.ones(2), size=3)
        enc = build_encoder(rows, prior)
        entropies = [
            shannon_kl_entropy(prior, 1.3),
            nested_shannon_entropy(enc, 0.9, 1.1),
            neighborhood_hw_entropy(prior, [((0, 1), 1.0), ((1, 2), 0.5)]),
        ]
        for h in entropies:
            assert h.value(prior) == pytest.approx(0.0, abs=1e-8)

    def test_conjugate_translation_invariance(self):
        rng = np.random.default_rng(18)
        prior = np.array([0.25, 0.3, 0.45])
        rows = rng.dirichlet(np.ones(2), size=3)
        enc = build_encoder(rows, prior)
        entropies = [
            shannon_kl_entropy(prior, 1.0),
            nested_shannon_entropy(enc, 0.9, 1.1),
        ]
        for h in entropies:
            for _ in range(10):
                x = rng.normal(size=3)
                c = rng.normal()
                assert h.h_star(x + c) == pytest.approx(h.h_star(x) + c, abs=1e-9)
