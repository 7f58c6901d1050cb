"""Saddle-point solvers for information-acquisition problems.

A solution is a pair ``(alpha, lambda)`` maximizing over action distributions
and minimizing over state multipliers the objective

    L(alpha, lambda) = sum_a alpha(a) f*(a pi - lambda) + sum_s lambda(s),

whose saddle value equals the optimal net payoff of the primal problem.  The
first-order conditions are: the conjugate values f*(a pi - lambda) are
maximal on the support of alpha, and the reconstructed rows

    P[s, a] = alpha(a) * grad_s f*(a pi - lambda)

sum to one in every state.  ``solve`` reduces perceptual costs to the
attribute problem, and runs every other cost model, mutual information
included, through ``solve_best_response``: an exact-inner-minimization best
response finished by a semismooth Newton polish of the Fischer-Burmeister
form of these conditions.  Under a Csiszar cost the inner minimization is
closed form or per state, and the best response runs first.  Under every
other cost it is a Newton solve over all states, so the polish starts
alone from the seeded alpha and lambda = 0, and the best response runs
only when it misses the tolerance; polishing Csiszar costs first took
more Newton steps at scale.  ``solve_mutual_information``, the
Blahut-Arimoto fixed point, is kept as an independent reference.  Every
vector root is the damped Newton of ``_rootfind.newton``, with exact
Jacobians from the model's weighted conjugate Hessian where it has one,
and forward differences otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from ._rootfind import BracketError, bracketed_roots, descend, newton
from .core import (
    ChoiceRule,
    DecisionProblem,
    SolverError,
    ValidationError,
    finite_positive,
    validate_problem,
)
from .costs import (
    CostModel,
    CsiszarCost,
    PerceptualCsiszarCost,
    PosteriorSeparableCost,
    csiszar_cost,
    mutual_information_cost,
)
from .transform import Transform


@dataclass
class SolveOptions:
    """``tol`` bounds both residuals of a converged solution, ``max_iter`` caps
    the iterations and ``seed`` draws the start (0 is uniform); the cost
    model, not an option, selects the route."""

    tol: float = 1e-8
    max_iter: int = 200000
    seed: int = 0

    def __post_init__(self):
        finite_positive(self.tol, "tol")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValidationError(f"iteration cap must be an integer of at least 1, got {self.max_iter!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class MultiplierBox:
    bound: float
    epsilon: float
    translation_slice: bool = False
    reduced: bool = False

    def contains(self, lam: np.ndarray) -> bool:
        return bool(np.max(np.abs(lam)) <= self.bound * (1 + 1e-12) + 1e-9)

    def holds(self, problem: DecisionProblem, lam: np.ndarray) -> bool | None:
        """Whether the box contains lam, read on the sum-zero slice for a
        translation slice; None for a bound on the reduced problem's multiplier."""
        if self.reduced:
            return None
        return self.contains(lam - lam.sum() * problem.prior if self.translation_slice else lam)


@dataclass
class Solution:
    """A saddle pair with its choice rule, residuals and certificate.

    ``box_source`` builds the multiplier box and ``gap_source`` computes the
    duality-gap certificate.  No solve reads either, so each is built the
    first time ``box`` or ``gap`` is read, and kept.  Neither source holds
    the solution, so an unread one makes no reference cycle.
    """

    problem: DecisionProblem
    model: CostModel
    alpha: np.ndarray
    lam: np.ndarray
    rule: ChoiceRule
    value: float
    residual_alpha: float
    residual_lambda: float
    converged: bool
    iterations: int
    backend: str
    box_source: Callable[[], MultiplierBox] = field(repr=False, compare=False)
    gap_source: Callable[[], float] = field(repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def box(self) -> MultiplierBox:
        return self.box_source()

    @cached_property
    def gap(self) -> float:
        """The ``duality_certificate`` of the pair: upper minus lower bound."""
        return self.gap_source()

    @property
    def box_contains_multiplier(self) -> bool | None:
        """Whether the box holds the multiplier; None for a bound on a reduced problem."""
        return self.box.holds(self.problem, self.lam)

    @property
    def lam_pi(self) -> np.ndarray:
        return self.lam / self.problem.prior

    def consideration_set(self, tol: float = 1e-9) -> tuple[str, ...]:
        keep = np.flatnonzero(self.rule.unconditional > tol)
        return tuple(self.problem.action_names[i] for i in keep)


# ---------------------------------------------------------------------------
# shared evaluation helpers


def payoff_arguments(problem: DecisionProblem, lam: np.ndarray) -> np.ndarray:
    """Matrix of payoff-space conjugate arguments, one row per action."""
    return problem.payoff_prior - lam[None, :]


def evaluate(problem, model, lam):
    """Read-only conjugate values and gradients at the payoff arguments of lam.

    The model keeps the pair for the last arguments it saw
    (``CostModel.evaluate_rows``), so the repeats of the solve path, such
    as a Newton Jacobian at the point whose residual was just accepted,
    cost no second evaluation.
    """
    return model.evaluate_rows(payoff_arguments(problem, lam))


def foc_residuals(problem, model, alpha, lam):
    """(residual_alpha, residual_lambda, values, gradients) at a candidate pair."""
    v, G = evaluate(problem, model, lam)
    return (*_residuals(alpha, v, G), v, G)


def _residuals(alpha, v, G):
    """``(residual_alpha, residual_lambda)`` of alpha against the conjugate
    values v and gradients G at a multiplier."""
    vmax = float(v.max())
    return float(alpha @ (vmax - v)), float(abs(alpha @ G - 1.0).max())


# ---------------------------------------------------------------------------
# multiplier bounds


# the table of n 2^(n-1) candidate vertices is built only up to this many states
_VERTEX_TABLE_MAX_N = 12


def _ball_vertices(prior: np.ndarray, eps: float) -> np.ndarray | None:
    """Distinct vertices of ``{l <= p <= u, sum p = 1}`` as rows, or None above
    ``_VERTEX_TABLE_MAX_N`` states.

    Here ``l = max(prior - eps, 0)`` and ``u = min(prior + eps, 1)``.  Each
    vertex holds n - 1 coordinates at a bound and takes the last one from
    the sum, kept when it lies within its own bounds.  A vertex with every
    coordinate at a bound arises once per free coordinate; candidates are
    told apart by which bound each coordinate sits at, and the first is kept.
    """
    n = prior.size
    if n > _VERTEX_TABLE_MAX_N:
        return None
    lo, hi = np.maximum(prior - eps, 0.0), np.minimum(prior + eps, 1.0)
    tol = 1e-12
    upper = ((np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1).astype(bool)
    points = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        P = np.empty((upper.shape[0], n))
        P[:, others] = np.where(upper, hi[others], lo[others])
        P[:, i] = 1.0 - P[:, others].sum(axis=1)
        points.append(P[(P[:, i] >= lo[i] - tol) & (P[:, i] <= hi[i] + tol)])
    P = np.vstack(points)
    # 0 at the lower bound, 1 at the upper, 2 strictly between
    where = np.where(np.abs(P - lo) <= tol, 0, np.where(np.abs(P - hi) <= tol, 1, 2))
    _, first = np.unique(where, axis=0, return_index=True)
    return P[np.sort(first)]


def _ps_entropy_spread(model: PosteriorSeparableCost, eps: float) -> float:
    """A proven bound on max |H(p) - H(prior)| over the eps-ball around the
    prior in the simplex.

    ``H(prior) = 0`` is the ``Entropy`` contract.  Shannon-KL has a closed
    form.  Otherwise the bound is taken over a polytope that contains the
    ball: the ball itself, whose vertices ``_ball_vertices`` enumerates,
    while they number at most ``n (n - 1) + 256``, and beyond that the
    simplex ``{p >= lo, sum p = 1}`` with ``lo = max(prior - eps, 0)``, whose
    n vertices are ``lo + (1 - sum lo) e_s``.  H is convex, so its maximum
    over the polytope is the largest value at a vertex.  |H| is not convex,
    so -min H is bounded apart: by the tangent plane at the prior at the
    same vertices when the entropy has a gradient, else by Fenchel-Young at
    zero, ``H(p) >= -H*(0)``.
    """
    prior = model.prior
    n = prior.size
    h = model.entropy
    if h.family == "shannon_kl":
        kap = h.value(np.eye(n)[0]) / max(-math.log(prior[0]), 1e-300)  # recover scale
        return kap * math.log(1.0 + eps / prior.min())
    V = _ball_vertices(prior, eps)
    if V is None or len(V) > n * (n - 1) + 256:
        lo = np.maximum(prior - eps, 0.0)
        V = lo + (1.0 - lo.sum()) * np.eye(n)
    if h.grad_fn is not None:
        lower = float(((V - prior) @ np.asarray(h.grad_fn(prior), dtype=float)).min())
    else:
        lower = -h.h_star(np.zeros(n))
    upper = max(h.value(v) for v in V)
    return max(upper, -lower)


def multiplier_bounds(problem: DecisionProblem, model: CostModel) -> MultiplierBox:
    """A finite sup-norm box guaranteed to contain a saddle multiplier.

    For statewise-separable costs the bound is
    ``(2/eps + 1) (max_a ||a||_inf + max_{|x-1|<=eps} |f(x)|)`` with the max
    of the separable f taken coordinatewise at the corners.  For
    posterior-separable costs the bound applies on the sum-zero slice and
    uses the entropy's spread on the eps-ball around the prior, which is
    proven at the vertices of the ball, or of a simplex that contains it
    where the ball has too many vertices, as at 9 or more than 10 states at
    the default radius (see ``_ps_entropy_spread``).  Perceptual costs are
    bounded through their reduced attribute problem.
    """
    a_inf = problem.payoff_bound()
    if isinstance(model, PerceptualCsiszarCost):
        reduced, _ = _reduced_problem(problem, model.encoder)
        inner = multiplier_bounds(reduced, csiszar_cost(reduced.prior, model.transform))
        return replace(inner, reduced=True)
    if isinstance(model, PosteriorSeparableCost):
        eps = min(0.5, problem.prior.min() / 2)
        if eps <= 0:
            raise SolverError("prior on the boundary: no valid ball radius")
        spread = _ps_entropy_spread(model, eps)
        bound = (2.0 / eps + 1.0 / problem.prior.min()) * (a_inf + spread)
        return MultiplierBox(bound, eps, translation_slice=True)
    if isinstance(model, CsiszarCost):
        eps = 0.5
        t = model.transform
        lo, hi = float(t.phi(1.0 - eps)), float(t.phi(1.0 + eps))
        for _ in range(30):
            if math.isfinite(lo) and math.isfinite(hi):
                break
            eps /= 2
            if eps < 1e-12:
                raise SolverError("1 on the boundary of the transform domain")
            lo, hi = float(t.phi(1.0 - eps)), float(t.phi(1.0 + eps))
        fmax = max(abs(lo), abs(hi))  # separable max over the box corners
        bound = (2.0 / eps + 1.0) * (a_inf + fmax)
        return MultiplierBox(bound, eps)
    raise SolverError(f"no multiplier bound available for family {model.family!r}")


# ---------------------------------------------------------------------------
# statewise multipliers (separable costs)


def statewise_multiplier(alpha, payoffs_state, transform: Transform, tol: float = 1e-12) -> float:
    """Prior-adjusted multiplier in one state given the action distribution:
    one column of ``_statewise``."""
    pay = np.asarray(payoffs_state, dtype=float)
    return float(_statewise(alpha, pay[:, None], transform, tol)[0])


def _statewise(alpha, payoffs, transform: Transform, tol: float = 1e-12) -> np.ndarray:
    """Statewise multiplier of every column of the ``(actions, states)`` payoffs.

    Solves ``sum_a alpha(a) psi'(a(s) - l) = 1`` in every state at once by
    Brent's method (``bracketed_roots``, to ``tol`` relative to
    ``max(1, |l|)``) on the brackets spanned by the supported payoffs: the
    equation falls in ``l``, and psi'(0) = 1 pins the signs at the ends.  A
    state whose left end reads below 0 by rounding alone, by at most 4 eps
    of ``sum_a alpha(a) psi'`` there, has its root at that end.
    """
    alpha = np.asarray(alpha, dtype=float)
    supp = alpha > 0.0
    if not np.any(supp):
        raise ValidationError("empty support")
    w, vals = alpha[supp], np.asarray(payoffs, dtype=float)[supp]
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    mass = w @ transform.psi_prime(vals - lo)
    live = (hi - lo >= 1e-15) & ~((mass < 1.0) & (mass >= 1.0 - 4.0 * np.finfo(float).eps * mass))

    def g(l):
        # a state that is not live reads 0 at both ends, so it stops at once at lo
        return np.where(live, w @ transform.psi_prime(vals - l) - 1.0, 0.0)

    try:
        return bracketed_roots(g, lo, hi, xtol=tol)
    except BracketError as exc:
        raise BracketError(
            "statewise multiplier bracket failed; transform response is not monotone"
        ) from exc


def chi2_multiplier(alpha, payoffs_state, kappa: float = 1.0) -> float:
    """Closed-form statewise multiplier for the quadratic transform.

    Actions in the support are ranked by payoff (descending, ties by index);
    the cutoff keeps every action whose payoff gap to the running mixture is
    below kappa, and the multiplier is the truncated mixture average shifted
    by the unused budget.  One column of ``_chi2_statewise``.
    """
    pay = np.asarray(payoffs_state, dtype=float)
    return float(_chi2_statewise(alpha, pay[:, None], kappa)[0])


def _chi2_statewise(alpha, payoffs, kappa):
    """``chi2_multiplier`` of every column of the ``(actions, states)`` payoffs."""
    alpha = np.asarray(alpha, dtype=float)
    keep = np.flatnonzero(alpha > 0.0)
    if keep.size == 0:
        raise ValidationError("empty support")
    pay = payoffs[keep]
    # a stable sort keeps tied payoffs in index order
    order = np.argsort(-pay, axis=0, kind="stable")
    a = np.take_along_axis(pay, order, axis=0)
    w = alpha[keep][order]
    cum_w = np.cumsum(w, axis=0)
    cum_wa = np.cumsum(w * a, axis=0)
    gaps = cum_wa - cum_w * a  # sum_{j<=i} alpha_j (a_j - a_i)
    inside = gaps < kappa
    # the last action inside; the first always is, with a gap of zero
    istar = keep.size - 1 - np.argmax(inside[::-1], axis=0)
    cols = np.arange(pay.shape[1])
    s = cum_w[istar, cols]
    return cum_wa[istar, cols] / s - kappa / s + kappa


def _mi_statewise(alpha, payoffs, kappa):
    """Shannon statewise multipliers: ``kappa`` times the logsumexp over the
    support of ``log alpha + payoffs / kappa`` in every state."""
    # one contiguous row per state, so each row sums in the order of a
    # one-state sum
    logits = np.where(
        alpha > 0, np.log(np.maximum(alpha, 1e-300)) + np.ascontiguousarray(payoffs.T) / kappa, -np.inf
    )
    mx = logits.max(axis=1)
    return kappa * (mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1)))


def scipy_root(*args, **kwargs):
    """``scipy.optimize.root``, imported on first call.

    Nothing in the library calls it: every vector root goes through
    ``_rootfind.newton``.  It is kept only because ``bench/tracer.py`` binds
    this name when it installs, until the bench rework of ROADMAP item 3
    replaces that tracer.
    """
    from scipy.optimize import root

    return root(*args, **kwargs)


def _inner_minimize(problem, model, alpha, lam0, inner_tol=1e-11):
    """Exact best response in the multiplier given alpha.

    Statewise for separable costs.  Otherwise the mass conditions
    ``alpha @ G(lam) = 1`` are solved on the sum-zero slice for translation-
    invariant conjugates: by ``_rootfind.newton`` from lam0, and when that
    misses ``inner_tol``, by minimizing the convex ``L(alpha, .)`` with
    ``_rootfind.descend``.  The result of the latter is returned even when
    it misses ``inner_tol``.
    """
    prior = problem.prior
    n = problem.n_states
    if isinstance(model, CsiszarCost):
        t = model.transform
        if t.family == "shannon":
            lam_pi = _mi_statewise(alpha, problem.payoffs, t.kappa)
        elif t.family == "chi2":
            lam_pi = _chi2_statewise(alpha, problem.payoffs, t.kappa)
        else:
            lam_pi = _statewise(alpha, problem.payoffs, t)
        return prior * lam_pi

    lam = np.zeros(n) if lam0 is None else lam0.copy()
    if model.translation_invariant:
        lam = lam - lam.sum() * prior

    def residual(l):
        _, G = evaluate(problem, model, l)
        return alpha @ G - 1.0

    # a start that already meets the mass conditions is kept: near a
    # solution the system is close to singular and a root search can walk off
    if float(abs(residual(lam)).max()) <= inner_tol:
        return lam

    # fast path: damped Newton on the mass conditions (projected to the
    # sum-zero slice for translation-invariant conjugates, where one
    # condition is redundant)
    basis = _slice_basis(n) if model.translation_invariant else None

    def F(z):
        l = basis @ z if basis is not None else z
        r = residual(l)
        return basis.T @ r if basis is not None else r

    live = alpha > 0

    def J(z):
        l = basis @ z if basis is not None else z
        H = model.weighted_hessian(payoff_arguments(problem, l)[live], alpha[live])
        return -(basis.T @ H @ basis) if basis is not None else -H

    jac = J if model.has_hessian else None
    z0 = basis.T @ lam if basis is not None else lam
    z, _ = newton(F, z0, jac)
    cand = basis @ z if basis is not None else z
    if np.isfinite(cand).all() and float(abs(residual(cand)).max()) <= inner_tol:
        return cand

    # fallback: the mass conditions are the stationarity of the convex
    # L(alpha, .), which is minimized by regularized Newton steps; they move
    # along the nearly linear directions where the conjugates saturate, at
    # overflow-scale payoffs, on which Newton's own steps stall.  Newton
    # then finishes below the rounding level of L
    def objective(z):
        l = basis @ z if basis is not None else z
        return float(alpha @ model.f_star_rows(payoff_arguments(problem, l)) + l.sum())

    z, _ = newton(F, descend(objective, F, z0, jac, tol=inner_tol), jac)
    return basis @ z if basis is not None else z


# ---------------------------------------------------------------------------
# semismooth Newton polish on the Fischer-Burmeister system


@lru_cache(maxsize=64)
def _slice_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane of sum-zero multiplier directions.

    Kept per n and read-only, since every caller shares the array.
    """
    a = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(a)
    basis = u[:, : n - 1]
    basis.flags.writeable = False
    return basis


class _KKTPoint(NamedTuple):
    """One evaluation of the optimality system: the weights, the multiplier
    lam, the payoff arguments X at it, the conjugate values v and gradients
    G there, and the arguments ``b = t - v`` and norms ``r = hypot(alpha, b)``
    of the Fischer-Burmeister rows.

    ``_kkt_jacobian`` reads it at each Newton iterate, and the polish hands
    the one at its result on to the weight trim, the FOC score,
    ``_assemble`` and the certificate's upper bound, which then evaluate
    nothing again."""

    alpha: np.ndarray
    lam: np.ndarray
    X: np.ndarray
    v: np.ndarray
    G: np.ndarray
    b: np.ndarray
    r: np.ndarray


def _kkt_system(problem, model, z, basis=None):
    """Residual F of the optimality system at z, and the ``_KKTPoint`` it read.

    The unknowns are ``z = (alpha, t, lambda)`` over all actions, with
    ``lambda = basis @ w`` on the sum-zero slice when a basis is given.  F
    stacks ``phi(alpha_a, t - v_a)`` for every action, where the
    Fischer-Burmeister function ``phi(a, b) = a + b - sqrt(a^2 + b^2)``
    vanishes exactly when ``a >= 0``, ``b >= 0`` and ``a b = 0``; the mass
    conditions ``sum_a alpha_a G_a - 1``; and, off the slice,
    ``sum alpha - 1``.
    """
    m, n = problem.n_actions, problem.n_states
    alpha, t = z[:m], z[m]
    lam = basis @ z[m + 1 :] if basis is not None else z[m + 1 :]
    X = payoff_arguments(problem, lam)
    v, G = model.evaluate_rows(X)
    b = t - v
    r = np.hypot(alpha, b)
    F = np.empty(z.size)
    np.subtract(alpha + b, r, out=F[:m])
    np.subtract(alpha @ G, 1.0, out=F[m : m + n])
    if basis is None:
        F[m + n] = alpha.sum() - 1.0
    return F, _KKTPoint(alpha, lam, X, v, G, b, r)


def _kkt_frame(m, n, basis=None):
    """The Jacobian's constant entries: zeros, and off the slice the row of
    ones of ``sum alpha - 1``."""
    if basis is not None:
        return np.zeros((m + n, m + n))
    J = np.zeros((m + n + 1, m + n + 1))
    J[m + n, :m] = 1.0
    return J


def _kkt_jacobian(model, point, basis=None, out=None):
    """Generalized Jacobian of the optimality system at a point of ``_kkt_system``.

    Built from the model's weighted Hessian, or None when it has no closed
    form.  At the kink ``a = b = 0`` it takes the element ``1 - 1/sqrt(2)``
    for both partial derivatives of phi.  ``out`` is a C-contiguous array of
    the Jacobian's shape, as ``_kkt_frame`` makes it, whose entries outside
    the blocks filled here are those of ``_kkt_frame``, as a previous call
    leaves them; without it a new one is made.
    """
    H = model.weighted_hessian(point.X, point.alpha)
    if H is None:
        return None
    alpha, G, b, r = point.alpha, point.G, point.b, point.r
    m, n = G.shape
    kink = r == 0.0
    if kink.any():
        r = np.where(kink, 1.0, r)
        d_a = np.where(kink, 1.0 - math.sqrt(0.5), 1.0 - alpha / r)
        d_b = np.where(kink, 1.0 - math.sqrt(0.5), 1.0 - b / r)
    else:
        d_a, d_b = 1.0 - alpha / r, 1.0 - b / r
    J = _kkt_frame(m, n, basis) if out is None else out
    # the diagonal of the top-left m x m block, through a strided view
    size = J.shape[1]
    J.reshape(-1)[: m * (size + 1) : size + 1] = d_a
    J[:m, m] = d_b
    J[m : m + n, :m] = G.T
    if basis is None:
        J[:m, m + 1 :] = d_b[:, None] * G
        J[m : m + n, m + 1 :] = -H
    else:
        J[:m, m + 1 :] = (d_b[:, None] * G) @ basis
        J[m : m + n, m + 1 :] = -(H @ basis)
    return J


def _polish_once(problem, model, alpha0, lam0):
    """Semismooth Newton solve of the Fischer-Burmeister system from (alpha0, lam0).

    The solve is ``_rootfind.newton``: LU steps, with least squares only for
    a singular Jacobian, as tied or duplicated actions make it, or a step
    that fails the residual check; Armijo backtracking on ``|F|^2 / 2``; a
    stop, with no Jacobian formed there, at an iterate whose residual is at
    the rounding floor ``_rootfind._RESIDUAL_FLOOR``, as the start is when
    the backend already solved the system; and a stop before a
    rounding-level step, so the result is the accepted iterate with the
    smallest residual norm.  Each step evaluates the system once per trial
    point: the Jacobian at the accepted iterate is filled, in one array
    kept for the solve, from the pieces of the evaluation that accepted
    it.  Weights that the complementarity leaves at or below
    ``b_a = t - v_a`` are set to zero.
    Returns ``(alpha, lam, point)``, with ``point`` the ``_KKTPoint`` of the
    iterate Newton returned: its last evaluation, or, after a line search
    that failed on a rejected trial, one more.  Returns None when F is not
    finite at the start, such as at an overflowed iterate, or no weight
    survives.
    """
    m, n = problem.n_actions, problem.n_states
    basis = _slice_basis(n) if model.translation_invariant else None
    if basis is not None:
        lam0 = lam0 - lam0.sum() * problem.prior
    v0, _ = evaluate(problem, model, lam0)
    z0 = np.concatenate([alpha0, [v0.max()], basis.T @ lam0 if basis is not None else lam0])
    last = [None, None]  # the latest point the system was evaluated at, and its pieces

    def system(x):
        F, point = _kkt_system(problem, model, x, basis)
        last[:] = x, point
        return F

    jacobian = None
    if model.has_hessian:
        # the array the Jacobians are filled in, made on the first one: a
        # polish that starts at its optimum forms none
        frame = []

        def jacobian(x):
            # newton hands over the array the system last saw: the start, or
            # the iterate its line search just accepted
            assert last[0] is x
            if not frame:
                frame.append(_kkt_frame(m, n, basis))
            return _kkt_jacobian(model, last[1], basis, frame[0])

    z, F = newton(system, z0, jacobian)
    if not np.isfinite(F).all():
        return None
    if last[0] is not z:
        # the last evaluation was a trial that the line search rejected
        system(z)
    point = last[1]
    alpha = np.where(point.alpha > np.maximum(point.b, 0.0), point.alpha, 0.0)
    total = alpha.sum()
    if total <= 0.0:
        return None
    return alpha / total, point.lam, point


def _polish(problem, model, alpha0, lam0, tol):
    """Newton polish from an iterate; ``(alpha, lam, score, evaluated)`` when
    it meets tol, else None.

    ``evaluated`` is ``(v, G, residuals)``: the conjugate values and
    gradients at lam, read off the ``_KKTPoint`` of the polish's result, and
    the FOC residual pair of the polished pair, of which ``score`` is the
    larger.
    """
    got = _polish_once(problem, model, alpha0, lam0)
    if got is None:
        return None
    alpha, lam, point = got
    residuals = _residuals(alpha, point.v, point.G)
    score = max(residuals)
    return (alpha, lam, score, (point.v, point.G, residuals)) if score <= tol else None


# ---------------------------------------------------------------------------
# backends


def _init_alpha(m: int, seed: int) -> np.ndarray:
    if seed == 0:
        return np.full(m, 1.0 / m)
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(m))


def _best_response_backend(problem, model, opts):
    """``(alpha, lam, iterations, converged, (v, G, residuals))``, the last
    the conjugate values and gradients at lam, as the solve evaluated them,
    and the FOC residual pair of alpha against them."""
    alpha = _init_alpha(problem.n_actions, opts.seed)
    if not isinstance(model, CsiszarCost):
        # the inner minimization is a vector root here, so the Newton polish
        # goes first, from the start and lambda = 0, and the best response
        # runs only when it misses.  A Csiszar inner step is closed form or
        # per-state, and polishing first cost more steps at scale (200 x 200
        # mutual information: 21 Newton steps against 15)
        got = _polish(problem, model, alpha, np.zeros(problem.n_states), opts.tol)
        if got is not None:
            return got[0], got[1], 1, True, got[3]
    lam = _inner_minimize(problem, model, alpha, None, inner_tol=min(1e-11, opts.tol / 10))
    best = (math.inf, alpha.copy(), lam.copy(), None)
    step_scale = None
    polish_at = 3
    iters = 0
    converged = False
    for k in range(1, opts.max_iter + 1):
        iters = k
        res_a, res_l, v, G = foc_residuals(problem, model, alpha, lam)
        score = max(res_a, res_l)
        if score < best[0]:
            best = (score, alpha.copy(), lam.copy(), (v, G, (res_a, res_l)))
        if score <= opts.tol:
            converged = True
            evaluated = v, G, (res_a, res_l)
            if score > 0.0:
                got = _polish(problem, model, alpha, lam, opts.tol)
                if got is not None and got[2] <= score:
                    alpha, lam, _, evaluated = got
            break
        if k >= polish_at or res_a <= 10 * opts.tol:
            polish_at = min(2 * polish_at + 1, polish_at + 50)
            got = _polish(problem, model, alpha, lam, opts.tol)
            if got is not None:
                alpha, lam, _, evaluated = got
                converged = True
                break
        vmax = float(v.max())
        if step_scale is None:
            step_scale = max(vmax - float(v.min()), 1e-9)
        step = 2.0 / (step_scale * math.sqrt(k))
        alpha = alpha * np.exp(step * (v - vmax))
        total = alpha.sum()
        if total <= 0 or not np.isfinite(total):
            alpha = _init_alpha(problem.n_actions, opts.seed + 1)
        else:
            alpha /= total
        lam = _inner_minimize(problem, model, alpha, lam, inner_tol=min(1e-11, opts.tol / 10))
    if not converged:
        _, alpha, lam, evaluated = best
    return alpha, lam, iters, converged, evaluated


# ``bench/tracer.py`` binds this name when it installs; the name goes with the
# bench rework of ROADMAP item 3
_mirror_prox_backend = _best_response_backend


# ---------------------------------------------------------------------------
# assembling solutions


def _assemble(problem, model, alpha, lam, iters, converged, backend, box_source, extra=None, evaluated=None):
    """The ``Solution`` at (alpha, lam).

    ``evaluated`` is ``(v, G, residuals)`` where the solve already has it:
    the conjugate values and gradients at lam and the FOC residual pair of
    alpha against them.  Without it they are evaluated here.  The rule's
    rows are finite, non-negative and normalized by construction, so they
    are not checked again.  The certificate is computed on the first read
    of ``Solution.gap``, through the module's ``duality_certificate`` as
    bound when the solve assembles, from the values at lam.
    """
    if evaluated is None:
        v, G = evaluate(problem, model, lam)
        res_a, res_l = _residuals(alpha, v, G)
    else:
        v, G, (res_a, res_l) = evaluated
    value = float(alpha @ v + lam.sum())
    raw_rows = alpha[None, :] * G.T
    row_err = float(abs(raw_rows.sum(axis=1) - 1.0).max())
    rows = np.maximum(raw_rows, 0.0)
    sums = rows.sum(axis=1, keepdims=True)
    diagnostics = {
        "row_sum_error": row_err,
        "alpha_floor": float(alpha.min()),
    }
    # a state whose row has no finite positive mass, as where conjugate
    # gradients underflow or overflow at an unconverged overflow-scale
    # iterate, gets alpha as a stand-in row
    degenerate = ~(np.isfinite(sums[:, 0]) & (sums[:, 0] > 0.0))
    if degenerate.any():
        rows[degenerate], sums[degenerate] = alpha, alpha.sum()
        converged = False
        diagnostics["degenerate_rows"] = [problem.states[i] for i in np.flatnonzero(degenerate)]
    rule = ChoiceRule._from_normalized(problem, rows / sums)
    if extra:
        diagnostics.update(extra)
    return Solution(
        problem=problem,
        model=model,
        alpha=alpha,
        lam=lam,
        rule=rule,
        value=value,
        residual_alpha=res_a,
        residual_lambda=res_l,
        converged=converged,
        iterations=iters,
        backend=backend,
        box_source=box_source,
        gap_source=partial(duality_certificate, problem, model, alpha, lam, v),
        diagnostics=diagnostics,
    )


def duality_certificate(problem, model, alpha, lam, values=None) -> float:
    """Upper-minus-lower bound from one exact best response on each side.

    The upper bound ``max_a f*(a pi - lam) + sum lam`` reads ``values``,
    the conjugate values at lam, when the caller has them.  The lower bound
    always takes its own inner minimization in lam at alpha, so it stays an
    independent check of the pair.
    """
    v = evaluate(problem, model, lam)[0] if values is None else values
    upper = float(v.max() + lam.sum())
    lam_best = _inner_minimize(problem, model, alpha, lam.copy())
    v2, _ = evaluate(problem, model, lam_best)
    lower = float(alpha @ v2 + lam_best.sum())
    return upper - lower


def _check_shared_prior(problem: DecisionProblem, model: CostModel) -> None:
    if model.prior.shape != problem.prior.shape or abs(model.prior - problem.prior).max() > 1e-12:
        raise ValidationError("cost model and problem must share the prior")


def solve(problem: DecisionProblem, model: CostModel, opts: SolveOptions | None = None) -> Solution:
    """Find a saddle point and reconstruct the choice rule: perceptual costs
    through the attribute reduction, every other cost by the best response."""
    opts = opts or SolveOptions()
    if isinstance(model, PerceptualCsiszarCost):
        _check_shared_prior(problem, model)
        return solve_perceptual(problem, model.transform, model.encoder, opts)
    # solve_best_response checks the prior
    return solve_best_response(problem, model, opts)


def solve_best_response(
    problem: DecisionProblem, model: CostModel, opts: SolveOptions | None = None
) -> Solution:
    """The best response finished by the Newton polish, for any cost model.

    Actions with bit-identical payoff rows are solved as one action, whose
    weight is split evenly among them.
    """
    opts = opts or SolveOptions()
    _check_shared_prior(problem, model)
    # unmerged, a multiplicative step can send every weight but the copies'
    # to exactly zero, and no later step revives a zero weight
    groups = _row_groups(problem.payoffs)
    merged = problem
    if len(groups) < problem.n_actions:
        actions = [(problem.action_names[g[0]], problem.payoffs[g[0]]) for g in groups]
        merged = validate_problem(problem.states, problem.prior, actions)
    # the best response never reads the box: it is built when the solution's is read
    alpha, lam, iters, converged, evaluated = _best_response_backend(merged, model, opts)
    if merged is not problem:
        split = np.empty(problem.n_actions)
        for g, a in zip(groups, alpha):
            split[g] = a / len(g)
        # the merged problem's conjugates have one row per group
        alpha, evaluated = split, None
    box = partial(multiplier_bounds, problem, model)
    return _assemble(problem, model, alpha, lam, iters, converged, "best_response", box, evaluated=evaluated)


# ---------------------------------------------------------------------------
# mutual information: multiplicative fixed point on the action distribution


def _lse_vec(v):
    mx = v.max()
    return mx + math.log(np.exp(v - mx).sum())


def _mi_fixed_point(problem, kappa, alpha, max_iter, tol):
    """Safeguarded Blahut-Arimoto iteration from alpha; ``(alpha, lam, iters, converged)``.

    Iterates ``alpha'(a) proportional to alpha(a) exp(c_a - 1)`` with
    ``c_a = P_pi(a) / alpha(a)`` computed from the exponential-payoff rule,
    falling back to the plain averaging step whenever the concave reduced
    objective would not improve.  At the fixed point alpha equals the
    unconditional action distribution.
    """
    prior = problem.prior
    logits = problem.payoffs.T / kappa  # (n, m)
    fp_tol = 1e-10

    def reduced_objective(log_a):
        M = log_a[None, :] + logits
        mx = M.max(axis=1)
        lse = mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))
        return kappa * float(prior @ lse), lse

    log_alpha = np.log(alpha)
    obj, lse = reduced_objective(log_alpha)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        P = np.exp(log_alpha[None, :] + logits - lse[:, None])
        ppi = prior @ P
        alpha = np.exp(log_alpha)
        alpha /= alpha.sum()
        ratio = ppi / np.maximum(alpha, 1e-300)
        # kappa (max ratio - 1) is residual_alpha at lam = kappa prior lse,
        # where residual_lambda vanishes by construction
        if (
            float(np.abs(ppi - alpha).max()) <= fp_tol
            and kappa * (float(ratio.max()) - 1.0) <= tol
        ):
            converged = True
            break
        cand = log_alpha + (ratio - 1.0)
        cand -= _lse_vec(cand)
        cand_obj, cand_lse = reduced_objective(cand)
        if cand_obj < obj - 1e-13:
            # safeguard: fall back to the averaging step, which never decreases
            cand = np.log(np.maximum(ppi, 1e-300))
            cand -= _lse_vec(cand)
            cand_obj, cand_lse = reduced_objective(cand)
        log_alpha, obj, lse = cand, cand_obj, cand_lse
    # the alpha that lse belongs to; when max_iter runs out, the loop has
    # stepped past the alpha it formed last
    alpha = np.exp(log_alpha)
    alpha /= alpha.sum()
    return alpha, kappa * prior * lse, iters, converged


def solve_mutual_information(
    problem: DecisionProblem, kappa: float = 1.0, opts: SolveOptions | None = None
) -> Solution:
    """Entropy-cost solver: the Blahut-Arimoto fixed point run to ``opts.tol``.

    This is the pure multiplicative route of ``_mi_fixed_point``, with no
    Newton polish, so it stays an independent check of ``solve``.  Its
    diagnostics add ``alpha_vs_unconditional``, the gap between alpha and the
    unconditional distribution of the rule that the pair reconstructs.
    """
    opts = opts or SolveOptions()
    kappa = finite_positive(kappa, "kappa")
    prior = problem.prior
    alpha0 = _init_alpha(problem.n_actions, opts.seed)
    alpha, lam, iters, converged = _mi_fixed_point(problem, kappa, alpha0, opts.max_iter, opts.tol)
    lse = lam / (kappa * prior)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alpha)
    ppi = prior @ np.exp(log_alpha[None, :] + problem.payoffs.T / kappa - lse[:, None])
    model = mutual_information_cost(prior, kappa)
    return _assemble(
        problem,
        model,
        alpha,
        lam,
        iters,
        converged,
        "blahut_arimoto",
        partial(multiplier_bounds, problem, model),
        extra={"alpha_vs_unconditional": float(np.abs(ppi - alpha).max())},
    )


# ---------------------------------------------------------------------------
# perceptual costs: reduction to the attribute problem


def _row_groups(rows) -> list[list[int]]:
    """Indices of the bit-identical rows of ``rows``, grouped in order of first occurrence."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(i)
    return list(groups.values())


def _reduced_problem(problem: DecisionProblem, encoder):
    """Project actions onto attribute space, merging payoff-identical images."""
    E = problem.payoffs @ encoder.mu.T  # (m, n_attr): E_i[a]
    group_lists = _row_groups(np.round(E, 12))
    reduced_payoffs = np.array([E[g[0]] for g in group_lists])
    names = tuple("+".join(problem.action_names[i] for i in g) for g in group_lists)
    reduced = validate_problem(
        encoder.attributes,
        encoder.nu,
        list(zip(names, reduced_payoffs)),
    )
    return reduced, group_lists


def solve_perceptual(
    problem: DecisionProblem,
    transform: Transform,
    encoder,
    opts: SolveOptions | None = None,
) -> Solution:
    """Two-step solver for attribute-mediated costs.

    Solves the reduced problem on attributes under the statewise-separable
    cost, then lifts the attribute-contingent rule through the encoder.
    Duplicate attribute images are merged and split uniformly on the lift;
    the lifted rule obeys |P_s(a) - P_t(a)| <= ||K_s - K_t||_1.
    """
    reduced, groups = _reduced_problem(problem, encoder)
    rsol = solve_best_response(reduced, csiszar_cost(reduced.prior, transform), opts)

    m = problem.n_actions
    Q = rsol.rule.rows  # (n_attr, n_reduced)
    rows = np.zeros((problem.n_states, m))
    alpha = np.zeros(m)
    for g_idx, members in enumerate(groups):
        share = 1.0 / len(members)
        lifted = encoder.rows @ Q[:, g_idx]
        for a in members:
            rows[:, a] = lifted * share
            alpha[a] = rsol.alpha[g_idx] * share
    rule = ChoiceRule.build(problem, rows)

    model = PerceptualCsiszarCost(problem.prior, transform, encoder)
    diagnostics = {
        "merged_groups": [list(g) for g in groups if len(g) > 1],
        "reduced_value": rsol.value,
        "reduced_converged": rsol.converged,
        "continuity_bound_ok": _continuity_ok(rows, encoder.rows),
    }
    if encoder.full_column_rank:
        lam_bar_nu = rsol.lam / reduced.prior
        lam_pi, *_ = np.linalg.lstsq(encoder.mu, lam_bar_nu, rcond=None)
        lam = lam_pi * problem.prior
        res_a, res_l, v, G = foc_residuals(problem, model, alpha, lam)
        value = float(alpha @ v + lam.sum())
        diagnostics["lift_residuals"] = (res_a, res_l)
    else:
        # attribute-space multiplier; see diagnostics
        lam, value, res_a, res_l = rsol.lam, rsol.value, rsol.residual_alpha, rsol.residual_lambda
        diagnostics["dual_surface"] = "unavailable: encoder is rank deficient"
    return Solution(
        problem=problem,
        model=model,
        alpha=alpha,
        lam=lam,
        rule=rule,
        value=value,
        residual_alpha=res_a,
        residual_lambda=res_l,
        converged=rsol.converged,
        iterations=rsol.iterations,
        backend="perceptual_two_step",
        box_source=lambda: replace(rsol.box, reduced=True),
        gap_source=lambda: rsol.gap,
        diagnostics=diagnostics,
    )


def _continuity_ok(rows, K):
    n = rows.shape[0]
    for s in range(n):
        for t in range(s + 1, n):
            bound = float(np.abs(K[s] - K[t]).sum())
            if np.max(np.abs(rows[s] - rows[t])) > bound + 1e-9:
                return False
    return True


# ---------------------------------------------------------------------------
# support reduction


def reduce_support(problem, model, alpha, lam):
    """Shrink the support of alpha without changing the multiplier or value.

    Moves alpha along null directions of the stacked gradient system (with a
    mass-conservation row for costs that are not translation invariant) until
    the support is at most n_states + 1, or n_states in the translation-
    invariant case.  Idempotent once the bound is met.
    """
    alpha = np.asarray(alpha, dtype=float).copy()
    n = problem.n_states
    bound = n if model.translation_invariant else n + 1
    _, G = evaluate(problem, model, lam)
    guard = 0
    while guard < problem.n_actions + 2:
        guard += 1
        S = np.flatnonzero(alpha > 1e-14)
        if S.size <= bound:
            break
        rows = [G[S].T]  # n rows of gradients
        if not model.translation_invariant:
            rows.append(np.ones((1, S.size)))
        M = np.vstack(rows)
        _, sv, vt = np.linalg.svd(M)
        cutoff = 1e-9 * (sv[0] if sv.size else 1.0)
        rank = int((sv > cutoff).sum())
        if rank >= vt.shape[0]:
            break
        beta = vt[-1]
        if beta.max() <= 0:
            beta = -beta
        pos = beta > 1e-15
        if not np.any(pos):
            break
        t = np.min(alpha[S][pos] / beta[pos])
        upd = alpha[S] - t * beta
        upd[upd < 1e-15] = 0.0
        alpha[S] = upd
        total = alpha.sum()
        alpha = alpha / total
    return alpha


def reduce_solution(sol: Solution) -> Solution:
    alpha = reduce_support(sol.problem, sol.model, sol.alpha, sol.lam)
    out = _assemble(
        sol.problem,
        sol.model,
        alpha,
        sol.lam,
        sol.iterations,
        sol.converged,
        sol.backend,
        lambda: sol.box,
        extra={**sol.diagnostics, "support_reduced": True},
    )
    return out


__all__ = [
    "SolveOptions",
    "MultiplierBox",
    "Solution",
    "SolverError",
    "solve",
    "solve_best_response",
    "solve_mutual_information",
    "solve_perceptual",
    "multiplier_bounds",
    "statewise_multiplier",
    "chi2_multiplier",
    "reduce_support",
    "reduce_solution",
    "duality_certificate",
    "foc_residuals",
    "payoff_arguments",
    "evaluate",
]
