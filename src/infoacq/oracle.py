"""Independent ground truth: lattice brute force, condition checks, and the
per-state perturbed-utility solver.

The brute-force search enumerates every stochastic choice rule whose rows lie
on a lattice over the action simplex and evaluates the primal objective
directly; it shares no code with the saddle-point machinery beyond the primal
cost evaluators.  A rule's value is assembled from per-state tables over the
R lattice rows, built once per search: the prior-weighted payoff
``pi_s gains[r, s]`` and, for the two costs whose f-information has a closed
form in a prior-weighted sum over states, the pieces of that form.  Mutual
information is ``kappa (sum_s pi_s sum_a r_a log r_a - sum_a p_a log p_a)``
with the marginal ``p_a = sum_s pi_s P_sa``.  Under chi2 the f-mean is
``alpha_a ~ sqrt(c_a)`` with ``c_a = sum_s pi_s P_sa^2``, so the cost is
``kappa/2 ((sum_a sqrt(c_a))^2 - 1)``, the order-2 case of Sibson's
alpha-mutual information (Sibson 1969; Verdu 2015).  Under mutual
information the marginal of action a in a block is the lead rows' sum plus
``pi_last c/k`` for the last state's level c = 0..k, so it takes only k + 1
values per lead row: the ``p log p`` terms are tabulated per lead row,
action and level, one log each, and each rule reads its entries.  Every
other cost prices the explicit rules of a block in one call,
``model.primal_costs``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._rootfind import bracketed_roots, expand_bracket
from .core import ChoiceRule, DecisionProblem, SolverError, ValidationError
from .costs import CostModel
from .solver import MultiplierBox, _check_shared_prior, foc_residuals

EVAL_CAP = 100_000_000
# rule values per block of the lattice walk: the walk's memory is bounded by
# this, not by the R ** (n - 1) lead rows
BLOCK_VALUES = 20_000
# a rule value below the lattice maximum by at most this much of it, 4 to 8
# ulp, ties with it
TIE_RTOL = 4 * float(np.finfo(float).eps)


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


def _xlogx(p: np.ndarray) -> np.ndarray:
    return p * np.log(np.where(p > 0, p, 1.0))


def _lead_sum(table: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """sum over the lead states s of ``table[s, lead[..., s]]``, in state order."""
    out = np.zeros(lead.shape[:-1] + table.shape[2:])
    for s in range(lead.shape[-1]):
        out += table[s, lead[..., s]]
    return out


def _at_levels(table: np.ndarray, level: np.ndarray) -> np.ndarray:
    """``table[..., level]`` with each rule's lead row and level paired.

    ``table`` holds a row of levels per lead, its leading axes those of the
    lead, and ``level`` the level of each rule, in the shape of ``last``; the
    result has the broadcast shape of the two.  When the lead's axes end in
    one axis of length 1 per axis of ``level``, as the walk's block of lead
    rows ``(B, 1)`` against every last row does, every lead row meets every
    level and one gather along the level axis takes them all.  Otherwise
    each rule reads its own lead row of the flattened table.
    """
    lead = table.shape[:-1]
    ends = len(lead) - level.ndim
    if ends >= 0 and all(n == 1 for n in lead[ends:]):
        return table.reshape(lead[:ends] + table.shape[-1:])[..., level]
    at = np.arange(table[..., 0].size).reshape(lead)
    return table.reshape(-1)[at * table.shape[-1] + level]


class _LatticeTables:
    """Per-state tables over the lattice rows, and the rule values built from them.

    ``gain[s, r]`` is ``pi_s gains[r, s]``.  Under mutual information
    ``separable[s, r]`` is ``kappa pi_s sum_a r_a log r_a`` and ``weighted[s, r]``
    is ``pi_s r``; under chi2 ``weighted[s, r]`` is ``pi_s r**2``.  Sums over
    states and over actions run in index order, whatever the shape of the
    block, so a rule's value does not depend on the block that holds it.
    Under mutual information the last state's ``weighted`` entries take at
    most k + 1 values, ``levels``, and row r takes ``levels[level_of[a, r]]``
    at action a: ``values`` takes ``p log p`` of each lead row's marginal at
    every level, one log per lead row, action and level instead of one per
    rule and action, and reads each rule's entries from that table.  The
    entries are the ones the per-rule logs give, so the values keep every
    bit.  chi2 keeps one square root per rule and action, since a table
    read costs about what a root does.
    The tables serve the ``mutual_information`` and ``chi2`` cost families;
    every other model prices a block's explicit rules by ``primal_costs``.
    """

    def __init__(self, problem: DecisionProblem, model: CostModel, rows: np.ndarray):
        prior = problem.prior
        self.model, self.rows = model, rows
        self.gain = prior[:, None] * (rows @ problem.payoffs).T
        self.family = model.family if model.family in ("mutual_information", "chi2") else None
        if self.family is not None:
            self.kappa = model.transform.kappa
        if self.family == "mutual_information":
            entropy = _xlogx(rows[:, 0])
            for a in range(1, rows.shape[1]):
                entropy = entropy + _xlogx(rows[:, a])
            self.separable = self.kappa * prior[:, None] * entropy
            self.weighted = prior[:, None, None] * rows
            self.levels, level_of = np.unique(self.weighted[-1].ravel(), return_inverse=True)
            self.level_of = level_of.reshape(rows.shape).T.copy()
        elif self.family == "chi2":
            self.weighted = prior[:, None, None] * rows**2

    def values(self, lead: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Values of the rules whose first n - 1 rows are ``lead`` and last row ``last``.

        Both hold lattice-row indices, ``lead`` with the states on its last
        axis; the result has the broadcast shape of ``lead[..., 0]`` and
        ``last``.
        """
        payoff = _lead_sum(self.gain, lead) + self.gain[-1, last]
        if self.family is None:
            return payoff - self._explicit_costs(lead, last)
        lead_w = _lead_sum(self.weighted, lead)
        if self.family == "chi2":
            total = 0.0
            for a in range(self.rows.shape[1]):
                total = total + np.sqrt(lead_w[..., a] + self.weighted[-1, last, a])
            return payoff - 0.5 * self.kappa * (total * total - 1.0)
        # one log per lead row, action and level, then one read per rule
        tables = _xlogx(lead_w[..., None] + self.levels)
        for a, level in enumerate(self.level_of):
            term = _at_levels(tables[..., a, :], level[last])
            # p log p is never -0.0, so the sum starts at the first term
            # as it would at 0.0
            if a == 0:
                total = term
            else:
                total += term
        total *= self.kappa
        cost = _lead_sum(self.separable, lead) + self.separable[-1, last]
        cost -= total
        payoff -= cost
        return payoff

    def _explicit_costs(self, lead: np.ndarray, last: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(lead.shape[:-1], last.shape)
        idx = np.concatenate(
            [np.broadcast_to(lead, shape + lead.shape[-1:]), np.broadcast_to(last, shape)[..., None]],
            axis=-1,
        )
        chunk = self.rows[idx.reshape(-1, idx.shape[-1])]  # (rules, n, m)
        return self.model.primal_costs(chunk).reshape(shape)


@dataclass
class BruteForceResult:
    value: float
    rule: ChoiceRule
    evaluations: int
    skipped_infinite: int


def brute_force_solve(problem: DecisionProblem, model: CostModel, grid_step: float) -> BruteForceResult:
    """Exhaustive primal search over rules with rows on the grid lattice.

    The rules are walked in product order, the last state's row varying
    fastest, and the first rule within ``TIE_RTOL`` of the maximum, relative,
    is returned with its own value, so a tie broken by rounding alone does
    not choose the rule.  Each block crosses a slice of the lead rows (the
    first n - 1 states) with all R rows of the last state, about
    ``BLOCK_VALUES`` rule values at a time, so memory is bounded by the
    block, never by ``R ** (n - 1)``.  Under mutual information and chi2 a
    block's values are lead sums of the per-state tables plus the last
    state's tables plus one closed-form term per action column: no rule is
    gathered, and under mutual information a log is taken per lead row and
    level of the last state's row, not per rule.  Other costs price the
    block's explicit rules.  Intended for problems with at most three states
    and actions; the number of rule evaluations is hard-capped at 1e8.
    Raises ``ValidationError`` when the model was built on another prior.
    """
    _check_shared_prior(problem, model)
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-12:
        raise ValidationError("grid_step must divide 1")
    n = problem.n_states
    rows = _lattice_rows(k, problem.n_actions)
    n_rows = rows.shape[0]
    total = n_rows**n
    if total > EVAL_CAP:
        raise ValidationError(f"lattice too large: {total} rule evaluations exceeds cap")

    tables = _LatticeTables(problem, model, rows)
    n_lead = n_rows ** (n - 1)
    per_block = max(1, BLOCK_VALUES // n_rows)
    every_row = np.arange(n_rows)
    best_val = -math.inf
    # product-order indices and values of the rules that tie with best_val
    tied, tied_vals = np.empty(0, dtype=np.intp), np.empty(0)
    skipped = 0
    for start in range(0, n_lead, per_block):
        flat = np.arange(start, min(start + per_block, n_lead))
        if n > 1:
            lead = np.stack(np.unravel_index(flat, (n_rows,) * (n - 1)), axis=1)
        else:
            lead = np.zeros((flat.size, 0), dtype=np.intp)
        # row-major (lead, last) is the order of itertools.product
        vals = tables.values(lead[:, None, :], every_row).ravel()
        finite = np.isfinite(vals)
        n_infinite = vals.size - int(np.count_nonzero(finite))
        skipped += n_infinite
        top = float(np.max(vals[finite], initial=-np.inf) if n_infinite else np.max(vals))
        # a block whose best rule is below the ties so far adds none
        if top > -math.inf and top >= best_val - TIE_RTOL * abs(best_val):
            best_val = max(best_val, top)
            floor = best_val - TIE_RTOL * abs(best_val)
            near = np.flatnonzero(vals >= floor)
            keep = tied_vals >= floor
            tied = np.concatenate([tied[keep], start * n_rows + near])
            tied_vals = np.concatenate([tied_vals[keep], vals[near]])
    if tied.size == 0:
        raise ValidationError("no finite-cost rule on the lattice")
    rule = ChoiceRule.build(problem, rows[np.array(np.unravel_index(tied[0], (n_rows,) * n))])
    return BruteForceResult(float(tied_vals[0]), rule, total, skipped)


@dataclass
class FocReport:
    residual_alpha: float
    residual_lambda: float
    in_box: bool | None
    translation_slice_residual: float | None

    def within(self, tol: float) -> bool:
        return self.residual_alpha <= tol and self.residual_lambda <= tol


def verify_focs(problem, model, alpha, lam, box: MultiplierBox | None = None) -> FocReport:
    """Residuals of the saddle first-order conditions at a candidate pair.

    Raises ``ValidationError`` when the model was built on another prior.
    """
    _check_shared_prior(problem, model)
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
    distributions as rows (n_states, n_actions), from the first-order
    condition ``sum_a p_a(mu) = 1``: ``p_a(mu)`` is 0 where
    ``u_a - mu <= c'(0)``, else the root of ``c'(p) = u_a - mu`` on [0, 1],
    taken in ``log p`` down to about 1e-300.  The payoff range shifted by
    ``c'(1/m)`` brackets mu, and one ``bracketed_roots`` call finds it in
    every state.  Raises ``SolverError`` naming the first state whose
    stationarity gap ``max_a g_a - p . g``, with ``g = u - c'(p)``, exceeds
    ``tol``.  The perturbation must be strictly convex.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m, n = payoffs.shape
    if perturbation_prime is None:
        h = 1e-7

        def perturbation_prime(t):
            t = np.asarray(t, dtype=float)
            lo = np.maximum(t - h, 1e-12)
            return (perturbation(t + h) - perturbation(lo)) / (t + h - lo)

    u = payoffs.T  # (n, m)
    log_floor = math.log(1e-300)
    floor = math.exp(log_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        at_zero, at_floor, at_uniform, at_one = (
            perturbation_prime(np.full(u.shape, p)) for p in (0.0, floor, 1.0 / m, 1.0)
        )

    def masses(mu):
        x = u - mu[:, None]
        live = (x > at_floor) & (x < at_one)
        # an entry that is not live reads 0 at both ends, so it stops at once
        f = lambda z: np.where(live, perturbation_prime(np.exp(z)) - x, 0.0)
        log_p = bracketed_roots(f, np.full(x.shape, log_floor), np.zeros(x.shape))
        # where c' is NaN no case holds, and the mass stays NaN
        cases = [x <= at_zero, x <= at_floor, x >= at_one, live]
        return np.select(cases, [0.0, floor, 1.0, np.exp(log_p)], np.nan)

    excess = lambda mu: masses(mu).sum(axis=1) - 1.0
    # rounding can leave an end of the shifted payoff range on the wrong
    # side, as where every payoff of a state is the same; that bracket grows
    shifted = u - at_uniform
    mu = bracketed_roots(excess, *expand_bracket(excess, shifted.min(axis=1), shifted.max(axis=1)))
    p = masses(mu)
    p /= p.sum(axis=1, keepdims=True)
    g = u - perturbation_prime(p)
    gap = g.max(axis=1) - (p * g).sum(axis=1)
    bad = np.flatnonzero(~(gap <= tol))
    if bad.size:
        raise SolverError(f"stationarity gap {gap[bad[0]]:.3g} exceeds tol in state {bad[0]}")
    return p


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
