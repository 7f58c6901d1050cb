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


F_MEAN_STEPS = 100  # Newton steps of the f-mean solve before it stops uncertified
F_MEAN_TOL = 1e-9  # largest stationarity gap of a certified f-mean


def _state_sum(prior: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_s prior_s x[:, s] in state order, for a stack x of shape (rules, n, m)."""
    out = prior[0] * x[:, 0]
    for s in range(1, prior.size):
        out = out + prior[s] * x[:, s]
    return out


def _csiszar_terms(t: Transform, prior, rows, alpha, active):
    """D_f(P || alpha), ``g_w = sum_s prior_s (phi(r) - r phi'(r))`` with ``r = P_sw /
    alpha_w`` and ``g'_w = sum_s prior_s r^2 phi''(r) / alpha_w`` per rule, zero off
    ``active``; ``phi'' = 1 / psi''(phi')``, or a centered difference of ``phi'``
    at the relative step 1e-5 without ``psi''``."""
    a = np.where(active, alpha, 1.0)[:, None, :]
    r = rows / a
    pos = r > 0.0
    rp = np.where(pos, r, 1.0)  # phi' may be infinite at 0
    dphi = np.asarray(t.phi_prime(rp), dtype=float)
    if t.psi_pp is not None:
        curv = rp * rp / np.asarray(t.psi_pp(dphi), dtype=float)
    else:
        curv = rp * (np.asarray(t.phi_prime(1.00001 * rp)) - np.asarray(t.phi_prime(0.99999 * rp))) / 2e-5
    phi = np.asarray(t.phi(r), dtype=float)
    value = np.where(active, alpha * _state_sum(prior, phi), 0.0).sum(axis=1)
    g = np.where(active, _state_sum(prior, phi - np.where(pos, r * dphi, 0.0)), 0.0)
    gp = np.where(active, _state_sum(prior, np.where(pos, curv, 0.0)) / a[:, 0], 0.0)
    return value, g, gp


def csiszar_f_means(spec: DivergenceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The f-means of a stack of experiments ``rows`` (rules, n, m) under a Csiszar spec.

    The derivative ``g_w`` of D_f(P || alpha) in ``alpha_w`` depends on
    ``alpha_w`` alone and increases in it, so the minimizer solves
    ``g_w(alpha_w) = c`` on the active outcomes (those with mass in a state
    of positive prior), ``sum alpha = 1``, with ``alpha_w = 0`` exactly
    elsewhere.  Newton on that system, from the unconditional distribution,
    has a diagonal-plus-border Jacobian, so each step is in closed form:
    ``c = (sum_w g_w / g'_w - (sum alpha - 1)) / sum_w 1 / g'_w`` and
    ``delta alpha_w = (c - g_w) / g'_w``, shortened so that no mass falls
    below half its value.  A rule stops once its step is within 4 ulp of
    every mass, or below 1e-12 and no longer halving, or after
    ``F_MEAN_STEPS`` steps, at the last point evaluated.  Its certificate
    ``alpha . g - min_active g`` bounds D_f(P || alpha) minus the f-mean, by
    convexity.  Returns the references ``alpha`` (rules, m), the values
    and the certificates; a rule's result does not depend on the stack.
    """
    prior = spec.prior
    rows = np.asarray(rows, dtype=float)
    active = _state_sum(prior, rows > 0.0) > 0.0
    alpha = np.where(active, _state_sum(prior, rows), 0.0)
    value, residual, last = (np.full(rows.shape[0], np.inf) for _ in range(3))
    todo = np.arange(rows.shape[0])
    for steps in range(F_MEAN_STEPS + 1):
        a, act = alpha[todo], active[todo]
        value[todo], g, gp = _csiszar_terms(spec.transform, prior, rows[todo], a, act)
        residual[todo] = (a * g).sum(axis=1) - np.where(act, g, np.inf).min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(act, 1.0 / gp, 0.0)
            c = ((g * inv).sum(axis=1) - (a.sum(axis=1) - 1.0)) / inv.sum(axis=1)
            step = np.where(act, (c[:, None] - g) * inv, 0.0)
            shrink = np.where(step < 0.0, -step / np.where(act, a, 1.0), 0.0).max(axis=1)
        size = np.abs(step).max(axis=1)
        go = np.any(np.abs(step) > 4.0 * np.finfo(float).eps * a, axis=1) & np.isfinite(size)
        go &= (size > 1e-12) | (size < 0.5 * last[todo])
        last[todo] = size
        todo, a, step, shrink = todo[go], a[go], step[go], shrink[go]
        if todo.size == 0 or steps == F_MEAN_STEPS:
            break
        alpha[todo] = a + (0.5 / np.maximum(shrink, 0.5))[:, None] * step
    return alpha, value, residual


def f_means(spec: DivergenceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The f-means of a stack of experiments ``rows`` (rules, n, m): the
    references ``alpha`` (rules, m), the values and the stationarity gaps.

    A Csiszar spec is ``csiszar_f_means``.  Under a posterior-separable spec
    the minimizer is the unconditional distribution, with gap 0.
    """
    rows = np.asarray(rows, dtype=float)
    if spec.kind == "csiszar":
        return csiszar_f_means(spec, rows)
    alpha = _state_sum(spec.prior, rows)
    value = np.array([f_divergence(spec, r, a) for r, a in zip(rows, alpha)])
    return alpha, value, np.zeros(rows.shape[0])


def f_mean(spec: DivergenceSpec, rows: np.ndarray, tol: float = F_MEAN_TOL) -> FMeanResult:
    """Minimize D_f(P || .) over reference distributions: ``f_means`` of a
    stack of one rule; ``converged=False`` marks a reference whose
    stationarity gap exceeds ``tol``.
    """
    alpha, value, residual = f_means(spec, np.asarray(rows, dtype=float)[None])
    return FMeanResult(alpha[0], float(value[0]), bool(residual[0] <= tol), float(residual[0]))


__all__ = [
    "DivergenceSpec",
    "csiszar_spec",
    "posterior_separable_spec",
    "f_divergence",
    "f_mean",
    "f_means",
    "csiszar_f_means",
    "FMeanResult",
]
