"""Property tests of the convergence contract on random problems."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from infoacq.catalog import random_problem
from infoacq.core import ValidationError, validate_problem
from infoacq.costs import (
    chi2_cost,
    mutual_information_cost,
    posterior_separable_cost,
    shannon_kl_entropy,
)
from infoacq.oracle import verify_focs
from infoacq.solver import SolveOptions, SolverError, solve, solve_best_response

_COSTS = {
    "mutual_information": mutual_information_cost,
    "chi2": chi2_cost,
    "ps_kl": lambda prior: posterior_separable_cost(prior, shannon_kl_entropy(prior)),
}


@st.composite
def problems(draw):
    """Random n x m problems, n, m in [2, 8], payoffs scaled by 0.1, 1 or 10,
    sometimes with the first action duplicated."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(2, 8))
    payoff_scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    duplicate = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    p = random_problem(np.random.default_rng(seed), n, m, prior_floor=0.1 / n)
    payoffs = payoff_scale * p.payoffs
    actions = list(zip(p.action_names, payoffs))
    if duplicate:
        actions.append(("copy", payoffs[0]))
    return validate_problem(p.states, p.prior, actions)


@given(
    st.integers(2, 8),
    st.integers(2, 8),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.floats(0.3, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_shannon_kl_posterior_separable_cost_is_mutual_information(n, m, payoff_scale, kappa, seed):
    # the two costs are one cost solved by two routes: the Newton polish
    # first, and the best response with a closed-form inner step.  At
    # payoffs scaled by 0.1 the value is a difference of terms near 1, so
    # the bound takes an absolute floor of a few ulp of those terms
    p = random_problem(np.random.default_rng(seed), n, m, prior_floor=0.1 / n)
    p = validate_problem(p.states, p.prior, list(zip(p.action_names, payoff_scale * p.payoffs)))
    opts = SolveOptions(max_iter=2000)
    ps = solve(p, posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, kappa)), opts)
    mi = solve(p, mutual_information_cost(p.prior, kappa), opts)
    assert ps.converged and mi.converged
    assert abs(ps.value - mi.value) <= 1e-12 * abs(mi.value) + 1e-14


@given(problems())
def test_converged_solves_meet_tolerance(p):
    for family, cost in sorted(_COSTS.items()):
        model = cost(p.prior)
        opts = SolveOptions(max_iter=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                sol = solve(p, model, opts)
            except (ValidationError, SolverError):
                continue  # typed failures keep the contract; any other error escapes
        if sol.converged:
            report = verify_focs(p, model, sol.alpha, sol.lam)
            assert max(report.residual_alpha, report.residual_lambda) <= opts.tol, family


def _solve_or_typed_failure(p, model, opts):
    """The best response, or None for a typed failure; any other error escapes."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return solve_best_response(p, model, opts)
        except (ValidationError, SolverError):
            return None


@given(problems())
def test_multiplier_inside_the_box_is_reported(p):
    for family, cost in sorted(_COSTS.items()):
        model = cost(p.prior)
        sol = _solve_or_typed_failure(p, model, SolveOptions(max_iter=2000))
        if sol is None:
            continue
        lam = sol.lam - sol.lam.sum() * p.prior if sol.box.translation_slice else sol.lam
        inside = bool(np.max(np.abs(lam)) <= sol.box.bound)
        if inside:
            assert sol.box_contains_multiplier is True, family
        # the box is proven, so it holds the multiplier of every converged solve
        assert inside or not sol.converged, family


@given(problems())
def test_overflow_scale_payoffs_fail_typed_or_flagged(p):
    # the problem is valid, so only a SolverError counts as a typed failure:
    # a ValidationError here would come from the solver's own assembly.
    # Posterior-separable KL is left out for time: at this scale its best
    # response can run all 200 iterations, up to 10 s a solve
    big = validate_problem(p.states, p.prior, list(zip(p.action_names, 800 * p.payoffs)))
    for family in ("chi2", "mutual_information"):
        model = _COSTS[family](big.prior)
        opts = SolveOptions(max_iter=200)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                sol = solve(big, model, opts)
            except SolverError:
                continue
        if not sol.converged:
            assert np.all(np.isfinite(sol.alpha)), family
            continue
        report = verify_focs(big, model, sol.alpha, sol.lam)
        assert max(report.residual_alpha, report.residual_lambda) <= opts.tol, family
