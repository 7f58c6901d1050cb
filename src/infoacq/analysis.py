"""Application-level computations: response curves, evidence thresholds,
psychometric curves, split experiments, and behavioral diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rootfind import bracketed_roots
from .catalog import (
    epsilon_split_vector,
    guess_with_outside_option,
    irreducible_problem,
    multitask_encoder,
    multitask_problems,
)
from .core import DecisionProblem, ValidationError
from .costs import Encoder, Entropy, nested_shannon_cost, posterior_separable_cost
from .solver import (
    SolveOptions,
    Solution,
    _statewise,
    solve,
    solve_perceptual,
)
from .transform import Transform, psi_inverse, risk_indices


# ---------------------------------------------------------------------------
# symmetric betting tasks


def guess_state_accuracy(t: Transform, n: int, m: int, w: float) -> tuple[float, float]:
    """Probability of a winning bet and the common multiplier in the m-of-n task.

    The multiplier solves (m/n) psi'(w - l) + ((n-m)/n) psi'(-l) = 1 on
    [0, w]; accuracy is (m/n) psi'(w - l).
    """
    if not (1 <= m < n):
        raise ValidationError("need 1 <= m < n")
    if w <= 0:
        raise ValidationError("the reward must be positive")
    curve = response_curve(t, m / n, [w])
    return float(curve.rho[0]), float(curve.l[0])


def _response_multipliers(t: Transform, gamma, w) -> np.ndarray:
    """The multiplier l in [0, w] with gamma psi'(w - l) + (1 - gamma) psi'(-l) = 1,
    at each entry of the broadcast ``gamma`` and ``w``.

    chi2 and Shannon transforms, scaled ones included, take their closed
    forms at their ``kappa``; any other takes one array of Brent roots.
    """
    gamma, w = np.broadcast_arrays(gamma, w)
    if t.family == "chi2":
        k = t.kappa
        # psi'(-l) = 1 - l/k is positive while l = gamma w <= k, and 0 past it
        return np.where(gamma * w <= k, gamma * w, w + k - k / gamma)
    if t.family == "shannon":
        k = t.kappa
        return k * np.logaddexp(np.log(gamma) + w / k, np.log1p(-gamma))

    def g(l):
        return gamma * t.psi_prime(w - l) + (1 - gamma) * t.psi_prime(-l) - 1.0

    return bracketed_roots(g, 0.0, w, xtol=1e-14)


@dataclass
class ResponseCurve:
    gamma: float
    w: np.ndarray
    rho: np.ndarray
    l: np.ndarray
    transform: Transform


def response_curve(t: Transform, gamma: float, w_grid) -> ResponseCurve:
    """Correct-guess probability as a function of the reward, at success share gamma."""
    if not (0.0 < gamma < 1.0):
        raise ValidationError("gamma must lie strictly between 0 and 1")
    w_grid = np.asarray(w_grid, dtype=float)
    if np.any(w_grid <= 0):
        raise ValidationError("rewards must be positive")
    ls = _response_multipliers(t, gamma, w_grid)
    rhos = gamma * np.asarray(t.psi_prime(w_grid - ls), dtype=float)
    return ResponseCurve(gamma, w_grid, rhos, ls, t)


def inverse_response(t: Transform, x: float, y: float) -> float:
    """Reward recovering the likelihood-ratio pair (x, y): phi'(x) - phi'(y)."""
    if not (x > 1.0 and 0.0 < y < 1.0):
        raise ValidationError("need x > 1 and y in (0, 1)")
    fx, fy = float(t.phi_prime(x)), float(t.phi_prime(y))
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise ValidationError("likelihood ratio outside the domain of phi'")
    return fx - fy


# ---------------------------------------------------------------------------
# evidence thresholds for the outside-option task


@dataclass
class ThresholdReport:
    c_lower: float
    c_upper: float
    c_hat: float | None
    curvature_trend: str  # increasing | decreasing | constant | mixed


def mutual_information_threshold(n: int, w: float, kappa: float = 1.0) -> float:
    return kappa * math.log(math.exp(w / kappa) / n + (n - 1) / n)


def _curvature_samples(t: Transform, lo: float, hi: float, samples: int = 41) -> np.ndarray:
    """Curvature index psi''/psi' on ``samples`` evenly spaced points of [lo, hi].

    Points within 1e-4 of a kink are skipped, and so are points where
    ``psi' <= 0`` or ``psi'' == 0``.  Without an analytic ``psi''`` it takes
    the centered differences of ``risk_indices``, all points in one call.
    """
    xs = np.linspace(lo, hi, samples)
    xs = xs[np.all(np.abs(xs[:, None] - np.asarray(t.kinks, dtype=float)) >= 1e-4, axis=1)]
    p1 = t.psi_prime(xs)
    if t.psi_pp is not None:
        p2 = t.psi_pp(xs)
    else:
        h = 1e-5 * np.maximum(1.0, np.abs(xs))
        p2 = (t.psi_prime(xs + h) - t.psi_prime(xs - h)) / (2 * h)
    keep = ~(p1 <= 0.0) & (p2 != 0.0)  # a NaN psi' is kept, as in risk_indices
    return p2[keep] / p1[keep]


def _curvature_trend(t: Transform, lo: float, hi: float, samples: int = 41) -> str:
    vals = _curvature_samples(t, lo, hi, samples)
    if len(vals) < 3:
        return "mixed"
    diffs = np.diff(vals)
    scale = max(1e-12, np.abs(vals).max())
    if np.all(np.abs(diffs) <= 1e-9 * scale):
        return "constant"
    if np.all(diffs >= -1e-9 * scale):
        return "increasing"
    if np.all(diffs <= 1e-9 * scale):
        return "decreasing"
    return "mixed"


def inconclusive_thresholds(t: Transform, n: int, w: float) -> ThresholdReport:
    """Outside-option values between which all n + 1 actions stay in play.

    The upper threshold equates the conjugate value of the safe action with
    the value of betting when no learning occurs; the lower threshold does
    the same at the no-safe-action multiplier.  For the exponential family
    the two collapse to the closed-form knife edge.
    """
    return _thresholds(t, [n], w)[0]


def _thresholds(t: Transform, ns, w: float) -> list[ThresholdReport]:
    """``inconclusive_thresholds`` at every n of ``ns``: the upper threshold,
    the multiplier and the psi inverse each take one array of roots."""
    ns = np.asarray(ns)
    if np.any(ns < 2) or w <= 0:
        raise ValidationError("need n >= 2 and w > 0")
    if t.family == "shannon":
        c_hats = [mutual_information_threshold(n, w, t.kappa) for n in ns.tolist()]
        return [ThresholdReport(c, c, c, "constant") for c in c_hats]

    def upper_eq(c):
        return t.psi(w - c) / ns + (ns - 1) / ns * t.psi(-c)

    c_upper = bracketed_roots(upper_eq, w / ns, w, xtol=1e-14)
    lam = _response_multipliers(t, 1.0 / ns, w)
    mixed = t.psi(w - lam) / ns + (ns - 1) / ns * t.psi(-lam)
    c_lower = psi_inverse(t, mixed) + lam
    trend = _curvature_trend(t, -w, w)
    return [ThresholdReport(lo, up, None, trend) for lo, up in zip(c_lower.tolist(), c_upper.tolist())]


@dataclass
class PosteriorSeparableThresholdReport:
    c_hat: float
    p_safe_above: float | None = None
    p_safe_below: float | None = None


def posterior_separable_threshold(
    h: Entropy, n: int, w: float, verify: bool = False, margin: float = 0.05
) -> PosteriorSeparableThresholdReport:
    """Knife-edge outside option under a symmetric entropy: the safe action's
    certain score matches the conjugate value of a single bet."""
    if h.prior.size != n or np.max(np.abs(h.prior - 1.0 / n)) > 1e-12:
        raise ValidationError("entropy must live on the uniform prior over n states")
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.dirichlet(np.ones(n))
        q = p[rng.permutation(n)]
        if abs(h.value(p) - h.value(q)) > 1e-8:
            raise ValidationError("asymmetric entropy rejected")
    x = np.zeros(n)
    x[0] = w
    c_hat = h.h_star(x) - h.h_star(np.zeros(n))
    report = PosteriorSeparableThresholdReport(c_hat)
    if verify:
        for sign in (+1, -1):
            problem = guess_with_outside_option(n, w, c_hat + sign * margin)
            model = posterior_separable_cost(problem.prior, h)
            sol = solve(problem, model, SolveOptions(tol=1e-8))
            p_safe = float(sol.rule.unconditional[-1])
            if sign > 0:
                report.p_safe_above = p_safe
            else:
                report.p_safe_below = p_safe
    return report


# ---------------------------------------------------------------------------
# one-dimensional discrimination


@dataclass
class PsychometricReport:
    thetas: np.ndarray
    p_risky: np.ndarray
    solution: Solution
    mlrp: bool
    monotone: bool
    second_differences: np.ndarray
    mixture_dominates: np.ndarray  # per interior state: convexity predicted
    state_dominates: np.ndarray  # per interior state: concavity predicted
    shape_consistent: bool


def encoder_mlrp(encoder: Encoder, tol: float = 1e-12) -> bool:
    K = encoder.rows
    n, k = K.shape
    for s in range(n - 1):
        for i in range(k):
            for j in range(i):
                if K[s + 1, i] * K[s, j] < K[s, i] * K[s + 1, j] - tol:
                    return False
    return True


def psychometric_curve(
    problem: DecisionProblem, transform: Transform, encoder: Encoder, opts=None
) -> PsychometricReport:
    """Risky-choice probability along an ordered one-dimensional state axis."""
    if problem.n_actions != 2:
        raise ValidationError("expected a binary risky/safe problem")
    try:
        thetas = np.array([float(s) for s in problem.states])
    except ValueError as exc:
        raise ValidationError("states must carry numeric labels") from exc
    if np.any(np.diff(thetas) <= 0):
        raise ValidationError("unordered states")
    sol = solve_perceptual(problem, transform, encoder, opts)
    p_risky = sol.rule.rows[:, 0]
    d2 = np.diff(p_risky, 2)
    K = encoder.rows
    n = problem.n_states
    mix_dom = np.zeros(n - 2, dtype=bool)
    state_dom = np.zeros(n - 2, dtype=bool)
    for i in range(1, n - 1):
        mix = 0.5 * K[i - 1] + 0.5 * K[i + 1]
        cdf_mix = np.cumsum(mix)
        cdf_state = np.cumsum(K[i])
        mix_dom[i - 1] = bool(np.all(cdf_mix <= cdf_state + 1e-12))
        state_dom[i - 1] = bool(np.all(cdf_state <= cdf_mix + 1e-12))
    consistent = bool(
        np.all(d2[mix_dom] >= -1e-9) and np.all(d2[state_dom] <= 1e-9)
    )
    return PsychometricReport(
        thetas=thetas,
        p_risky=p_risky,
        solution=sol,
        mlrp=encoder_mlrp(encoder),
        monotone=bool(np.all(np.diff(p_risky) >= -1e-9)),
        second_differences=d2,
        mixture_dominates=mix_dom,
        state_dominates=state_dom,
        shape_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# split experiments: marginal response to a small incentive


@dataclass
class SplitExperiment:
    epsilons: np.ndarray
    log_likelihood_ratios: np.ndarray
    linear_predictions: np.ndarray  # 2 eps R at the unsplit multiplier
    ratios: np.ndarray  # log LR / (2 eps)
    target: float
    multiplier: float
    estimated_order: float
    base_problem: DecisionProblem


def epsilon_split_experiment(
    t: Transform, d, i: int, j: int, epsilons=(0.2, 0.1, 0.05, 0.025)
) -> SplitExperiment:
    """Log odds between two split actions, against the curvature prediction.

    Each split problem is exchangeable, so its multiplier is the uniform
    statewise solution and the optimal odds follow from the response map
    directly; the base problem is materialized to honor the enumeration cap.
    """
    d = np.asarray(d, dtype=float)
    base_problem = irreducible_problem(d)  # raises when too many permutation states
    n = d.size
    if not (0 <= i < n and 0 <= j < n and i != j) or abs(d[i] - d[j]) > 1e-12:
        raise ValidationError(f"split dimensions i={i}, j={j} must be distinct indices of d with equal payoffs")
    eps = np.asarray(epsilons, dtype=float)
    # the base vector and every split vector, one column each
    columns = np.column_stack([d] + [epsilon_split_vector(d, i, j, e) for e in eps])
    lam_base, *lams = _statewise(np.full(n, 1.0 / n), columns, t).tolist()
    target = risk_indices(t, d[i] - lam_base)[0]
    llrs = np.empty(eps.size)
    for k, (e, lam_e) in enumerate(zip(eps, lams)):
        odds_i, odds_j = float(t.psi_prime(d[i] + e - lam_e)), float(t.psi_prime(d[j] - e - lam_e))
        if not (odds_i > 0.0 and odds_j > 0.0):
            raise ValidationError(f"epsilon {e:g} prices a split action out: its log odds are undefined")
        llrs[k] = math.log(odds_i) - math.log(odds_j)
    ratios = llrs / (2.0 * eps)
    errors = np.abs(ratios - target)
    if errors.max() < 1e-12:
        order = math.inf
    else:
        mask = errors > 1e-14
        if mask.sum() < 2:
            order = math.inf
        else:
            slope, _ = np.polyfit(np.log(eps[mask]), np.log(errors[mask]), 1)
            order = float(slope)
    return SplitExperiment(
        epsilons=eps,
        log_likelihood_ratios=llrs,
        linear_predictions=2.0 * eps * target,
        ratios=ratios,
        target=target,
        multiplier=lam_base,
        estimated_order=order,
        base_problem=base_problem,
    )


# ---------------------------------------------------------------------------
# multi-dimensional discrimination


@dataclass
class MultitaskReport:
    zeta: float
    eta: float
    accuracies: tuple[float, float, float]
    solutions: tuple[Solution, Solution, Solution]


def multitask_experiment(zeta: float, eta: float, model_builder=None, opts=None) -> MultitaskReport:
    """Accuracies for the three bets on a four-state grid under a nested cost.

    The default cost nests the four overlapping events (rows and columns of
    the grid) with across-nest weight zeta and within-nest weight eta.  The
    bets share one prior, so one default cost serves all three; a
    ``model_builder`` is called once per bet.
    """
    problems = multitask_problems()
    if model_builder is None:
        model = nested_shannon_cost(problems[0].prior, multitask_encoder(), zeta, eta)

        def model_builder(p):
            return model

    opts = opts or SolveOptions(tol=1e-9)
    sols = []
    accs = []
    for p in problems:
        sol = solve(p, model_builder(p), opts)
        sols.append(sol)
        accs.append(sol.rule.expected_payoff())  # rewards are indicators
    return MultitaskReport(zeta, eta, tuple(accs), tuple(sols))


# ---------------------------------------------------------------------------
# invariance diagnostics


@dataclass
class IIAReport:
    actions_max_dev: float | None
    labels_max_dev: float | None
    states_max_dev: float | None
    matched_multiplier_max_dev: float | None
    pair_counts: dict = field(default_factory=dict)


def _log_ratio_dev(P, s, t, a, b):
    return abs(
        math.log(P[s, a] / P[s, b]) - math.log(P[t, a] / P[t, b])
    )


def iia_diagnostics(
    sol: Solution, payoff_tol: float = 1e-9, support_tol: float = 1e-9
) -> IIAReport:
    """Max deviations from the odds-invariance conditions a solved rule satisfies.

    Three hypotheses are scanned: equal-payoff action pairs across states,
    payoff-identical state pairs, and action pairs that agree in both states;
    plus state pairs whose adjusted multipliers coincide.
    """
    problem = sol.problem
    P = sol.rule.rows
    U = problem.payoffs
    n, m = problem.n_states, problem.n_actions
    lam_pi = sol.lam_pi
    supp = P > support_tol

    actions_dev: list[float] = []
    states_dev: list[float] = []
    labels_dev: list[float] = []
    matched_dev: list[float] = []
    for s in range(n):
        for tt in range(s + 1, n):
            if np.all(np.abs(U[:, s] - U[:, tt]) <= payoff_tol):
                labels_dev.append(float(np.max(np.abs(P[s] - P[tt]))))
            lam_match = abs(lam_pi[s] - lam_pi[tt]) <= 1e-9
            for a in range(m):
                for b in range(m):
                    if a == b:
                        continue
                    if not (supp[s, a] and supp[s, b] and supp[tt, a] and supp[tt, b]):
                        continue
                    a_const = abs(U[a, s] - U[a, tt]) <= payoff_tol
                    b_const = abs(U[b, s] - U[b, tt]) <= payoff_tol
                    if a_const and b_const:
                        dev = _log_ratio_dev(P, s, tt, a, b)
                        actions_dev.append(dev)
                        if lam_match:
                            matched_dev.append(dev)
                    if (
                        abs(U[a, s] - U[b, s]) <= payoff_tol
                        and abs(U[a, tt] - U[b, tt]) <= payoff_tol
                    ):
                        states_dev.append(_log_ratio_dev(P, s, tt, a, b))
    return IIAReport(
        actions_max_dev=max(actions_dev) if actions_dev else None,
        labels_max_dev=max(labels_dev) if labels_dev else None,
        states_max_dev=max(states_dev) if states_dev else None,
        matched_multiplier_max_dev=max(matched_dev) if matched_dev else None,
        pair_counts={
            "actions": len(actions_dev),
            "labels": len(labels_dev),
            "states": len(states_dev),
            "matched_multiplier": len(matched_dev),
        },
    )


@dataclass
class SelectivityReport:
    trend: str
    comparisons: int
    violations: int
    max_violation: float


def selectivity_report(
    solutions: list[Solution], t: Transform, tol: float = 1e-7
) -> SelectivityReport:
    """Check the odds ordering across bolder states implied by the curvature trend.

    Bolder states are those with the larger adjusted multiplier; with a
    decreasing curvature index the odds of a better action over a worse one
    must weakly rise with boldness (and fall when the index increases).
    """
    args = []
    for sol in solutions:
        lam_pi = sol.lam_pi
        for s in range(sol.problem.n_states):
            args.extend((sol.problem.payoffs[:, s] - lam_pi[s]).tolist())
    lo, hi = (min(args), max(args)) if args else (-1.0, 1.0)
    trend = _curvature_trend(t, lo, hi)
    comparisons = 0
    violations = 0
    worst = 0.0
    for sol in solutions:
        P = sol.rule.rows
        U = sol.problem.payoffs
        lam_pi = sol.lam_pi
        p_pi = sol.rule.unconditional
        n, m = sol.problem.n_states, sol.problem.n_actions
        for s in range(n):
            for tt in range(n):
                if s == tt:
                    continue
                comparable = any(
                    abs(U[a, s] - U[a, tt]) <= 1e-9 and p_pi[a] > 1e-9 for a in range(m)
                )
                if not comparable or lam_pi[s] < lam_pi[tt]:
                    continue
                for a in range(m):
                    for b in range(m):
                        if a == b or p_pi[a] <= 1e-9 or p_pi[b] <= 1e-9:
                            continue
                        if (
                            abs(U[a, s] - U[a, tt]) > 1e-9
                            or abs(U[b, s] - U[b, tt]) > 1e-9
                            or U[a, s] < U[b, s]
                        ):
                            continue
                        if min(P[s, a], P[s, b], P[tt, a], P[tt, b]) <= 1e-12:
                            continue  # odds degenerate at a statewise zero
                        lhs = math.log(P[s, a] / P[s, b])
                        rhs = math.log(P[tt, a] / P[tt, b])
                        comparisons += 1
                        if trend == "decreasing" and lhs < rhs - tol:
                            violations += 1
                            worst = max(worst, rhs - lhs)
                        elif trend == "increasing" and lhs > rhs + tol:
                            violations += 1
                            worst = max(worst, lhs - rhs)
                        elif trend == "constant" and abs(lhs - rhs) > tol:
                            violations += 1
                            worst = max(worst, abs(lhs - rhs))
    return SelectivityReport(trend, comparisons, violations, worst)


__all__ = [
    "guess_state_accuracy",
    "ResponseCurve",
    "response_curve",
    "inverse_response",
    "ThresholdReport",
    "mutual_information_threshold",
    "inconclusive_thresholds",
    "PosteriorSeparableThresholdReport",
    "posterior_separable_threshold",
    "PsychometricReport",
    "psychometric_curve",
    "encoder_mlrp",
    "SplitExperiment",
    "epsilon_split_experiment",
    "MultitaskReport",
    "multitask_experiment",
    "IIAReport",
    "iia_diagnostics",
    "SelectivityReport",
    "selectivity_report",
]
