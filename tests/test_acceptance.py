"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
timings.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from infoacq.analysis import (
    epsilon_split_experiment,
    inconclusive_thresholds,
    multitask_experiment,
    mutual_information_threshold,
    psychometric_curve,
    response_curve,
)
from infoacq.catalog import (
    distance_encoder,
    exchangeable_problem,
    guess_the_state,
    guess_with_outside_option,
    one_dim_binary,
    random_problem,
)
from infoacq.core import ChoiceRule, detect_symmetries, validate_problem
from infoacq.costs import (
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_entropy,
    nested_shannon_entropy,
    numeric_conjugate,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    shannon_kl_entropy,
)
from infoacq.oracle import apu_perturbation_from_transform, apu_solve, brute_force_solve
from infoacq.solver import (
    chi2_multiplier,
    reduce_solution,
    solve,
    solve_best_response,
    solve_mutual_information,
    statewise_multiplier,
)
from infoacq.transform import chi2, shannon, shift_transform


def _report(name, start, limit=None):
    elapsed = time.monotonic() - start
    budget = "" if limit is None else f" (budget {limit:.0f} s)"
    print(f"\n{name}: PASS in {elapsed:.2f} s{budget}")
    if limit is not None:
        assert elapsed < limit


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(20):
        p = random_problem(rng, 2, 2)
        for model in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            sol = solve(p, model)
            assert sol.converged
            bf = brute_force_solve(p, model, 0.01)
            assert abs(sol.value - bf.value) < 2e-4
    _report("criterion 1 (lattice-oracle equivalence, 20 problems x 2 costs)", start, 120)


def test_criterion_1_oracle_equivalence_three_by_three():
    # A lattice rule is feasible, so it cannot beat the saddle value beyond
    # the solve tolerance.  The gap bound scales the 2e-4 of the 2x2 check at
    # grid h = 0.01, which is 2 h^2: at the optimum the objective is
    # stationary along the face of the simplex that holds each row, so
    # rounding the rows to the lattice within that face loses O(h^2), and at
    # h = 0.1 the same 2 h^2 is 0.02.
    start = time.monotonic()
    rng = np.random.default_rng(103)
    for trial in range(20):
        p = random_problem(rng, 3, 3)
        for model in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            sol = solve(p, model)
            assert sol.converged
            bf = brute_force_solve(p, model, 0.1)
            assert bf.value <= sol.value + 1e-9
            assert sol.value - bf.value < 0.02
    _report("criterion 1 (lattice-oracle equivalence, 20 3x3 problems x 2 costs)", start, 120)


def test_criterion_2_entropy_route_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(20):
        p = random_problem(rng, 3, 3)
        fixed_point = solve_mutual_information(p, 1.0)
        generic = solve_best_response(p, mutual_information_cost(p.prior, 1.0))
        assert abs(fixed_point.value - generic.value) < 1e-6
        for sol in (fixed_point, generic):
            ppi = sol.rule.unconditional
            weights = ppi[None, :] * np.exp(p.payoffs.T)
            logit_rows = weights / weights.sum(axis=1, keepdims=True)
            assert np.max(np.abs(sol.rule.rows - logit_rows)) < 1e-6
            assert np.max(np.abs(sol.alpha - ppi)) < 1e-6
    _report("criterion 2 (fixed-point vs saddle backend, 20 problems)", start)


def test_criterion_3_closed_form_response_function():
    start = time.monotonic()
    grid = np.linspace(0.1, 5.0, 50)
    for kappa in (0.5, 1.0, 2.0):
        curve = response_curve(shannon(kappa), 0.5, grid)
        e = np.exp(grid / kappa)
        expected = 0.5 * e / (0.5 * e + 0.5)
        assert np.max(np.abs(curve.rho - expected)) < 1e-9
    point = response_curve(shannon(1.0), 0.5, [math.log(3.0)])
    assert point.rho[0] == pytest.approx(0.75, abs=1e-12)
    _report("criterion 3 (closed-form response curve)", start, 1)


def test_criterion_4_quadratic_multiplier_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    inactive_seen = 0
    for trial in range(100):
        m = int(rng.integers(2, 7))
        alpha = rng.dirichlet(np.ones(m))
        pay = rng.uniform(-1, 1, size=m)
        kappa = float(rng.uniform(0.02, 2.0))
        closed = chi2_multiplier(alpha, pay, kappa)
        bisected = statewise_multiplier(alpha, pay, chi2(kappa))
        assert abs(closed - bisected) < 1e-10
        if np.any(pay < closed - kappa):
            inactive_seen += 1
    assert inactive_seen > 10  # instances where the cutoff excludes actions
    _report("criterion 4 (quadratic multiplier closed form, 100 draws)", start, 1)


def test_criterion_5_inconclusive_evidence():
    start = time.monotonic()
    w = math.log(3.0)
    for n in (2, 3):
        c_hat = mutual_information_threshold(n, w, 1.0)
        assert abs(c_hat - math.log(math.exp(w) / n + (n - 1) / n)) < 1e-9
        for sign, target in ((+1, 1.0), (-1, 0.0)):
            p = guess_with_outside_option(n, w, c_hat + sign * 0.05)
            sol = solve(p, mutual_information_cost(p.prior, 1.0))
            assert sol.converged
            assert abs(sol.rule.unconditional[-1] - target) < 1e-4
    t = shift_transform(chi2(1.0), 2.0)
    for n in (2, 3):
        rep = inconclusive_thresholds(t, n, 1.0)
        assert rep.c_lower < rep.c_upper
        c_mid = 0.5 * (rep.c_lower + rep.c_upper)
        p = guess_with_outside_option(n, 1.0, c_mid)
        sol = solve(p, csiszar_cost(p.prior, t))
        assert sol.converged
        assert np.all(sol.rule.unconditional > 1e-9)  # full n + 1 support
    _report("criterion 5 (inconclusive-evidence thresholds)", start, 30)


def test_criterion_6_multitask_limits():
    start = time.monotonic()
    rep = multitask_experiment(1e-3, 1.0)
    assert rep.accuracies[0] >= 0.99
    assert rep.accuracies[1] >= 0.99
    assert abs(rep.accuracies[2] - math.e / (math.e + 1)) < 5e-3
    same = multitask_experiment(0.7, 0.7)
    assert abs(same.accuracies[0] - same.accuracies[1]) < 1e-6
    assert abs(same.accuracies[1] - same.accuracies[2]) < 1e-6
    _report("criterion 6 (multi-dimensional learning limits)", start, 30)


def test_criterion_7_nested_equals_tree_neighborhood():
    start = time.monotonic()
    prior = np.full(4, 0.25)
    cells = [(0, 1), (2, 3)]
    kappa0 = 0.6
    kappas = [0.8, 0.5]
    hoods = [(tuple(range(4)), kappa0)] + list(zip(cells, kappas))
    hw = neighborhood_hw_entropy(prior, hoods)
    rows = np.zeros((4, 2))
    for j, cell in enumerate(cells):
        for s in cell:
            rows[s, j] = 1.0
    enc = build_encoder(rows, prior)
    nested = nested_shannon_entropy(enc, kappa0, [kappa0 + k for k in kappas])
    rng = np.random.default_rng(707)
    for trial in range(50):
        x = rng.normal(scale=1.0, size=4)
        val, _ = numeric_conjugate(hw, x)
        assert abs(val - nested.h_star(x)) < 1e-6
    _report("criterion 7 (nested vs tree-neighborhood conjugates, 50 points)", start)


def test_criterion_8_perturbed_utility_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    for trial in range(5):
        values = np.sort(rng.uniform(-1, 1, size=2))
        p = exchangeable_problem(values, 3)
        t = chi2(1.0) if trial % 2 == 0 else shannon(0.8)
        sol = solve_best_response(p, csiszar_cost(p.prior, t))
        assert sol.converged
        c, cp = apu_perturbation_from_transform(t, 3)
        rows = apu_solve(p.payoffs, c, cp)
        assert np.max(np.abs(rows - sol.rule.rows)) < 1e-6
    _report("criterion 8 (per-state perturbed-utility equivalence, 5 problems)", start)


def test_criterion_9_invariant_suite():
    start = time.monotonic()
    rng = np.random.default_rng(909)

    # gradient versus centered finite differences, every cost family
    prior3 = rng.dirichlet(np.ones(3)) * 0.7 + 0.3 / 3
    prior3 /= prior3.sum()
    enc_rows = rng.dirichlet(np.ones(3), size=3) * 0.4 + 0.6 * np.eye(3)
    enc_rows /= enc_rows.sum(axis=1, keepdims=True)
    encoder = build_encoder(enc_rows, prior3)
    families = [
        mutual_information_cost(prior3, 1.0),
        chi2_cost(prior3, 1.0),
        csiszar_cost(prior3, shannon(0.7)),
        csiszar_cost(prior3, shift_transform(chi2(1.0), 1.5)),
        posterior_separable_cost(prior3, shannon_kl_entropy(prior3, 1.1)),
        posterior_separable_cost(prior3, nested_shannon_entropy(encoder, 0.9, 1.3)),
        posterior_separable_cost(
            prior3, neighborhood_hw_entropy(prior3, [((0, 1), 0.8), ((0, 1, 2), 0.4)])
        ),
        perceptual_csiszar_cost(prior3, chi2(1.0), encoder),
    ]
    h = 1e-6
    for model in families:
        for _ in range(25):
            x = prior3 * rng.normal(scale=0.8, size=3)
            g = model.grad_f_star(x)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (model.f_star(x + e) - model.f_star(x - e)) / (2 * h)
            assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))

    # garbling never raises the primal cost
    p2 = validate_problem(
        ["s0", "s1"], [0.45, 0.55], [("a", [1, 0]), ("b", [0, 1]), ("c", [0.4, 0.4])]
    )
    monotone_models = [
        mutual_information_cost(p2.prior, 1.0),
        chi2_cost(p2.prior, 1.0),
        posterior_separable_cost(p2.prior, shannon_kl_entropy(p2.prior, 1.0)),
    ]
    for _ in range(50):
        rows = rng.dirichlet(np.ones(3), size=2)
        k = rng.dirichlet(np.ones(3), size=3)
        rule = ChoiceRule.build(p2, rows)
        garbled = ChoiceRule.build(p2, rows @ k)
        for model in monotone_models:
            assert model.primal_cost(garbled) <= model.primal_cost(rule) + 1e-8

    # multiplier box containment on converged solves
    for _ in range(6):
        p = random_problem(rng, 2, 3)
        for model in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            sol = solve(p, model)
            assert sol.converged and sol.box.contains(sol.lam)

    # support reduction bounds with three extra actions
    for trial in range(20):
        n = int(rng.integers(2, 4))
        p = random_problem(rng, n, n + 3)
        sol = solve(p, chi2_cost(p.prior, 1.0))
        red = reduce_solution(sol)
        assert (red.alpha > 1e-12).sum() <= n + 1
        assert abs(red.value - sol.value) < 1e-8
        if trial < 8:
            ps = posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0))
            sol_ps = solve(p, ps)
            red_ps = reduce_solution(sol_ps)
            assert (red_ps.alpha > 1e-12).sum() <= n
            assert abs(red_ps.value - sol_ps.value) < 1e-8

    # symmetric problems produce symmetric rules
    for n, w in ((3, 1.0), (4, 0.7)):
        p = guess_the_state(n, w)
        group = detect_symmetries(p)
        for model in (mutual_information_cost(p.prior, 1.0), chi2_cost(p.prior, 1.0)):
            sol = solve(p, model)
            P = sol.rule.rows
            for g, sigma in group:
                for s in range(n):
                    for a in range(n):
                        assert abs(P[g[s], a] - P[s, sigma[a]]) < 1e-7

    # split-experiment ratio converges at first order or better
    rep = epsilon_split_experiment(chi2(1.0), [1.0, 0.0, 0.0], 1, 2)
    assert rep.estimated_order >= 0.9
    rep2 = epsilon_split_experiment(shannon(1.0), [1.0, 0.0, 0.0], 1, 2)
    assert rep2.estimated_order >= 0.9
    _report("criterion 9 (invariant suite)", start)


def test_criterion_10_perceptual_continuity():
    start = time.monotonic()
    thetas = np.linspace(-1.0, 1.0, 9)
    p = one_dim_binary(thetas, np.linspace(-0.8, 0.8, 9))
    sigma = 0.35
    enc = distance_encoder(thetas, lambda d: math.exp(-(d * d) / (2 * sigma * sigma)))
    rep = psychometric_curve(p, shannon(1.0), enc)
    assert rep.mlrp
    assert rep.monotone
    K = enc.rows
    rows = rep.solution.rule.rows
    for s in range(8):
        slack = float(np.abs(K[s] - K[s + 1]).sum())
        assert np.max(np.abs(rows[s] - rows[s + 1])) <= slack + 1e-9
    _report("criterion 10 (perceptual continuity bound)", start, 10)
