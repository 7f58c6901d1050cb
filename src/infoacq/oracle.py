"""Independent ground truth: lattice brute force, condition checks, and the
per-state perturbed-utility solver.

The brute-force search enumerates every stochastic choice rule whose rows lie
on a lattice over the action simplex and evaluates the primal objective
directly; it shares no code with the saddle-point machinery beyond the primal
cost evaluators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import maximize_on_simplex, stationary_point
from .core import ChoiceRule, DecisionProblem, SolverError, ValidationError
from .costs import CostModel, CsiszarCost
from .solver import MultiplierBox, foc_residuals

EVAL_CAP = 100_000_000


def _lattice_rows(k: int, m: int) -> np.ndarray:
    """All compositions of k into m nonnegative parts, scaled to the simplex."""
    rows = []
    for cuts in itertools.combinations(range(k + m - 1), m - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + m - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=float) / k


def _golden_reference_min(chunk: np.ndarray, prior: np.ndarray, transform) -> np.ndarray:
    """Vectorized golden-section minimization of D(P || (s, 1-s)) over s, per rule.

    Only for two actions; the divergence is convex in the reference weight.
    """
    R = chunk.shape[0]

    def dval(s):
        # s in (0, 1): reference weight on action 0, one entry per rule
        out = np.zeros(R)
        for col, w in ((0, s), (1, 1.0 - s)):
            ratio = chunk[:, :, col] / w[:, None]
            out += (w[:, None] * np.asarray(transform.phi(ratio))) @ prior
        return out

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.full(R, 1e-12)
    b = np.full(R, 1.0 - 1e-12)
    for _ in range(64):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        left = dval(c) <= dval(d)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    return dval(0.5 * (a + b))


@dataclass
class BruteForceResult:
    value: float
    rule: ChoiceRule
    evaluations: int
    skipped_infinite: int


def brute_force_solve(problem: DecisionProblem, model: CostModel, grid_step: float) -> BruteForceResult:
    """Exhaustive primal search over rules with rows on the grid lattice.

    Intended for problems with at most three states and actions; the number
    of rule evaluations is hard-capped at 1e8.
    """
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-12:
        raise ValidationError("grid_step must divide 1")
    n, m = problem.n_states, problem.n_actions
    rows = _lattice_rows(k, m)
    n_rows = rows.shape[0]
    total = n_rows**n
    if total > EVAL_CAP:
        raise ValidationError(f"lattice too large: {total} rule evaluations exceeds cap")

    prior = problem.prior
    payoffs = problem.payoffs  # (m, n)
    gains = rows @ payoffs  # (n_rows, n): expected payoff of a row in each state

    best_val = -math.inf
    best_idx = None
    skipped = 0
    chunk_size = max(1, 50_000 // max(n * m, 1))
    for start in range(0, total, chunk_size):
        # rules start..stop-1 in the order of itertools.product: the last
        # state's row varies fastest, so the first maximizer is kept
        flat = np.arange(start, min(start + chunk_size, total))
        idx = np.stack(np.unravel_index(flat, (n_rows,) * n), axis=1)  # (B, n)
        payoff_term = np.array([gains[idx[:, s], s] for s in range(n)]).T @ prior
        chunk = rows[idx]  # (B, n, m)
        cost = _chunk_costs(chunk, problem, model)
        vals = payoff_term - cost
        finite = np.isfinite(vals)
        skipped += int((~finite).sum())
        if np.any(finite):
            j = int(np.nanargmax(np.where(finite, vals, -np.inf)))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_idx = idx[j].copy()
    if best_idx is None:
        raise ValidationError("no finite-cost rule on the lattice")
    rule = ChoiceRule.build(problem, rows[best_idx])
    return BruteForceResult(best_val, rule, total, skipped)


def _chunk_costs(chunk: np.ndarray, problem: DecisionProblem, model: CostModel) -> np.ndarray:
    prior = problem.prior
    B, n, m = chunk.shape
    if isinstance(model, CsiszarCost) and model.transform.family == "shannon":
        kappa = model.transform.kappa
        p_pi = np.einsum("s,bsa->ba", prior, chunk)
        with np.errstate(divide="ignore", invalid="ignore"):
            logratio = np.log(chunk) - np.log(p_pi[:, None, :])
            term = np.where(chunk > 0, chunk * logratio, 0.0)
        infinite = (chunk > 0) & (p_pi[:, None, :] <= 0)
        out = kappa * np.einsum("s,bsa->b", prior, term)
        out[np.any(infinite, axis=(1, 2))] = np.inf
        return out
    if isinstance(model, CsiszarCost) and m == 2:
        return _golden_reference_min(chunk, prior, model.transform)
    out = np.empty(B)
    for b in range(B):
        out[b] = model.primal_cost(ChoiceRule.build(problem, chunk[b]))
    return out


@dataclass
class FocReport:
    residual_alpha: float
    residual_lambda: float
    in_box: bool | None
    translation_slice_residual: float | None

    def within(self, tol: float) -> bool:
        return self.residual_alpha <= tol and self.residual_lambda <= tol


def verify_focs(problem, model, alpha, lam, box: MultiplierBox | None = None) -> FocReport:
    """Residuals of the saddle first-order conditions at a candidate pair."""
    alpha = np.asarray(alpha, dtype=float)
    lam = np.asarray(lam, dtype=float)
    res_a, res_l, _, _ = foc_residuals(problem, model, alpha, lam)
    slice_resid = None
    if getattr(model, "translation_invariant", False):
        slice_resid = abs(float(lam.sum()))
    in_box = None if box is None else box.holds(problem, lam)
    return FocReport(res_a, res_l, in_box, slice_resid)


def apu_solve(payoffs: np.ndarray, perturbation, perturbation_prime=None, tol: float = 1e-10) -> np.ndarray:
    """Statewise maximization of sum_a p(a) u(a) - c(p(a)) over the simplex.

    ``payoffs`` has shape (n_actions, n_states); returns the per-state choice
    distributions as rows (n_states, n_actions).  Each state is solved by
    ``_rootfind.maximize_on_simplex`` from the uniform distribution to a
    simplex stationarity gap below ``tol``.  Its refinement is a Newton
    solve of the stationarity conditions on the support; the ascent prices
    actions out toward zero and ``_rootfind.stationary_point`` drops those
    whose mass underflows.  Raises ``SolverError`` when a state misses the
    gap within the step cap.  The perturbation must be strictly convex on
    its domain.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m, n = payoffs.shape
    if perturbation_prime is None:
        h = 1e-7

        def perturbation_prime(t):
            t = np.asarray(t, dtype=float)
            lo = np.maximum(t - h, 1e-12)
            return (perturbation(t + h) - perturbation(lo)) / (t + h - lo)

    out = np.empty((n, m))
    for s in range(n):
        u = payoffs[:, s]

        def gradient(q):
            return u - np.asarray(perturbation_prime(q), dtype=float)

        def gap(q):
            g = gradient(q)
            return float(g.max() - q @ g)

        def certifies(q):
            return gap(q) <= tol

        p, certified = maximize_on_simplex(
            lambda q: float(q @ u - np.sum(perturbation(q))),
            gradient,
            gap,
            np.full(m, 1.0 / m),
            tol=tol,
            refine=lambda q: stationary_point(gradient, q, q > 1e-10, accept=certifies),
        )
        if not certified:
            raise SolverError(f"per-state maximization stalled in state {s}")
        out[s] = p
    return out


def apu_perturbation_from_transform(transform, n_actions: int):
    """Perturbation pair (c, c') with c(t) = phi(n t) / n."""
    n = float(n_actions)

    def c(t):
        return np.asarray(transform.phi(n * np.asarray(t, dtype=float)), dtype=float) / n

    def c_prime(t):
        return np.asarray(transform.phi_prime(n * np.asarray(t, dtype=float)), dtype=float)

    return c, c_prime


def salience_adjusted_perturbation(transform, alpha):
    """Per-action perturbation alpha(a) phi(p / alpha(a)) and its derivative."""
    alpha = np.asarray(alpha, dtype=float)

    def c(p):
        p = np.asarray(p, dtype=float)
        return alpha * np.asarray(transform.phi(p / alpha), dtype=float)

    def c_prime(p):
        p = np.asarray(p, dtype=float)
        return np.asarray(transform.phi_prime(p / alpha), dtype=float)

    return c, c_prime


__all__ = [
    "BruteForceResult",
    "brute_force_solve",
    "FocReport",
    "verify_focs",
    "apu_solve",
    "apu_perturbation_from_transform",
    "salience_adjusted_perturbation",
]
