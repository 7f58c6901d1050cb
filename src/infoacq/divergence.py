"""Multivariate f-divergences between experiments and reference distributions.

Two forms are supported: the statewise-separable form built from a prior and
a univariate transform, and the posterior-separable form built from an
entropy over posteriors (finite only when the reference equals the
unconditional distribution).  The minimization over the reference
distribution yields the f-mean of an experiment, which is also its
information cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rootfind import maximize_on_simplex, stationary_point
from .core import clean_weights
from .transform import Transform


@dataclass(frozen=True)
class DivergenceSpec:
    prior: np.ndarray
    transform: Transform | None = None
    entropy_value: Callable[[np.ndarray], float] | None = None

    @property
    def kind(self) -> str:
        return "csiszar" if self.transform is not None else "posterior_separable"


def csiszar_spec(prior, transform: Transform) -> DivergenceSpec:
    return DivergenceSpec(prior=clean_weights(prior, "prior"), transform=transform)


def posterior_separable_spec(prior, entropy_value) -> DivergenceSpec:
    return DivergenceSpec(
        prior=clean_weights(prior, "prior"), entropy_value=entropy_value
    )


def f_divergence(spec: DivergenceSpec, rows: np.ndarray, alpha: np.ndarray) -> float:
    """D_f(P || alpha) for an experiment with state-contingent rows.

    Outcomes with zero reference mass contribute the recession value: zero
    when no state puts mass there, +inf otherwise (the transforms here are
    co-finite).  Returns extended reals; never raises on zero masses.
    """
    rows = np.asarray(rows, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    prior = spec.prior
    if spec.kind == "posterior_separable":
        p_pi = prior @ rows
        if np.max(np.abs(alpha - p_pi)) > 1e-12:
            return math.inf
        total = 0.0
        for w in range(rows.shape[1]):
            if p_pi[w] <= 0.0:
                continue
            post = prior * rows[:, w] / p_pi[w]
            total += p_pi[w] * float(spec.entropy_value(post))
        return total
    t = spec.transform
    total = 0.0
    for w in range(rows.shape[1]):
        a_w = alpha[w]
        col = rows[:, w]
        if a_w > 0.0:
            total += a_w * float(prior @ t.phi(col / a_w))
        elif float(prior @ col) > 0.0:
            return math.inf
        # zero column against zero mass contributes nothing
    return total


@dataclass
class FMeanResult:
    alpha: np.ndarray
    value: float
    converged: bool
    residual: float


def _csiszar_mean_subgradient(spec, rows, alpha, active):
    """d/d alpha_w of D_f(P || alpha): sum_s prior_s (phi(r) - r phi'(r))."""
    t = spec.transform
    prior = spec.prior
    g = np.zeros(rows.shape[1])
    phi0 = t.phi_at_zero()
    for w in np.flatnonzero(active):
        r = rows[:, w] / alpha[w]
        pos = r > 0.0
        vals = np.empty_like(r)
        vals[~pos] = phi0
        if np.any(pos):
            vals[pos] = t.phi(r[pos]) - r[pos] * t.phi_prime(r[pos])
        g[w] = float(prior @ vals)
    return g


def f_mean(spec: DivergenceSpec, rows: np.ndarray, tol: float = 1e-9) -> FMeanResult:
    """Minimize D_f(P || .) over reference distributions.

    For posterior-separable specs the minimizer is the unconditional
    distribution; the same holds in closed form for the shannon transform.
    Otherwise ``_rootfind.maximize_on_simplex`` maximizes -D_f with exact
    subgradients from the unconditional distribution, moved inside the face
    of outcomes that carry mass.  The objective has infinite slope toward
    zero mass on such an outcome, so the minimizer is interior on that face,
    where the subgradient is constant: the refinement solves that system by
    ``_rootfind.stationary_point``.  The reference is certified once the
    simplex stationarity gap falls below ``tol``; without a certificate the
    iterate with the smallest gap is returned with ``converged=False``.
    """
    rows = np.asarray(rows, dtype=float)
    prior = spec.prior
    p_pi = prior @ rows
    if spec.kind == "posterior_separable" or spec.transform.family == "shannon":
        value = f_divergence(spec, rows, p_pi)
        return FMeanResult(p_pi, value, True, 0.0)

    active = (prior @ (rows > 0)) > 0  # outcomes with positive mass somewhere
    alpha = p_pi.copy()
    if alpha[active].min() <= 0.0:
        # start interior on the active face
        alpha[active] = np.maximum(alpha[active], 1e-12)
    alpha[~active] = 0.0
    alpha /= alpha.sum()

    def subgradient(a):
        return _csiszar_mean_subgradient(spec, rows, a, active)

    def residual_at(a):
        g = subgradient(a)
        return float(a @ g) - float(g[active].min())

    alpha, converged = maximize_on_simplex(
        lambda a: -f_divergence(spec, rows, a),
        lambda a: -subgradient(a),
        residual_at,
        alpha,
        tol=tol,
        refine=lambda a: stationary_point(
            subgradient, a, active, accept=lambda q: residual_at(q) <= tol
        ),
    )
    return FMeanResult(alpha, f_divergence(spec, rows, alpha), converged, residual_at(alpha))


__all__ = [
    "DivergenceSpec",
    "csiszar_spec",
    "posterior_separable_spec",
    "f_divergence",
    "f_mean",
    "FMeanResult",
]
