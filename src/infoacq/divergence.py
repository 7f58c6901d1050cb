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

from ._rootfind import newton
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
    iterations: int
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


def _fmean_polish(spec, rows, alpha, active):
    """Interior stationarity refinement on the active outcomes.

    The reference-minimization objective has infinite slope toward zero mass
    on any outcome that carries experiment mass, so the minimizer is interior
    on the active face and satisfies 'subgradient constant across outcomes'.
    The system in ``(log alpha, c)`` is solved by ``_rootfind.newton`` with
    forward differences.
    """
    act = np.flatnonzero(active)
    u0 = np.log(np.maximum(alpha[act], 1e-300))
    g0 = _csiszar_mean_subgradient(spec, rows, alpha, active)
    z0 = np.concatenate([u0, [float(alpha[act] @ g0[act])]])

    def F(z):
        a = np.zeros_like(alpha)
        a[act] = np.exp(np.minimum(z[:-1], 50.0))
        g = _csiszar_mean_subgradient(spec, rows, a, active)
        return np.concatenate([g[act] - z[-1], [a[act].sum() - 1.0]])

    z, Fz = newton(F, z0)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(Fz))):
        return None
    out = np.zeros_like(alpha)
    out[act] = np.exp(np.minimum(z[:-1], 50.0))
    total = out.sum()
    if not (0.5 < total < 2.0):
        return None
    return out / total


def f_mean(
    spec: DivergenceSpec,
    rows: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> FMeanResult:
    """Minimize D_f(P || .) over reference distributions.

    For posterior-separable specs the minimizer is the unconditional
    distribution; the same holds in closed form for the shannon transform.
    Otherwise the reference is found by entropic mirror descent with exact
    subgradients (initialized at the unconditional distribution, refined by
    an interior stationarity solve), stopping when the simplex stationarity
    gap falls below ``tol``.  On hitting the iteration cap the best iterate
    is returned with ``converged=False``.
    """
    rows = np.asarray(rows, dtype=float)
    prior = spec.prior
    p_pi = prior @ rows
    if spec.kind == "posterior_separable" or spec.transform.family == "shannon":
        value = f_divergence(spec, rows, p_pi)
        return FMeanResult(p_pi, value, True, 0, 0.0)

    active = (prior @ (rows > 0)) > 0  # outcomes with positive mass somewhere
    alpha = p_pi.copy()
    if alpha[active].min() <= 0.0:
        # start interior on the active face
        alpha[active] = np.maximum(alpha[active], 1e-12)
    alpha[~active] = 0.0
    alpha /= alpha.sum()

    def residual_at(a):
        g = _csiszar_mean_subgradient(spec, rows, a, active)
        return float(a @ g) - float(g[active].min())

    best = FMeanResult(alpha.copy(), f_divergence(spec, rows, alpha), False, 0, math.inf)
    eta = 1.0
    value = best.value
    polish_at = 20
    for it in range(1, max_iter + 1):
        g = _csiszar_mean_subgradient(spec, rows, alpha, active)
        gbar = float(alpha @ g)
        residual = gbar - float(g[active].min())
        if residual < best.residual:
            best = FMeanResult(alpha.copy(), value, False, it, residual)
        if residual <= tol:
            return FMeanResult(alpha.copy(), value, True, it, residual)
        if it >= polish_at:
            polish_at = 2 * polish_at
            refined = _fmean_polish(spec, rows, alpha, active)
            if refined is not None:
                r_res = residual_at(refined)
                if r_res <= tol:
                    return FMeanResult(
                        refined, f_divergence(spec, rows, refined), True, it, r_res
                    )
        # exponentiated descent step with backtracking on the true objective
        accepted = False
        for _ in range(60):
            expo = np.zeros_like(alpha)
            expo[active] = -eta * (g[active] - g[active].min())
            cand = alpha * np.exp(expo)
            s = cand.sum()
            if s > 0 and np.all(np.isfinite(cand)):
                cand /= s
                cand_value = f_divergence(spec, rows, cand)
                if cand_value <= value + 1e-15:
                    alpha, value = cand, cand_value
                    eta *= 1.2
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            break
    refined = _fmean_polish(spec, rows, best.alpha, active)
    if refined is not None:
        r_res = residual_at(refined)
        if r_res <= tol:
            return FMeanResult(refined, f_divergence(spec, rows, refined), True, max_iter, r_res)
    return best


__all__ = [
    "DivergenceSpec",
    "csiszar_spec",
    "posterior_separable_spec",
    "f_divergence",
    "f_mean",
    "FMeanResult",
]
