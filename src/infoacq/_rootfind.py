"""Root finding: bracketed scalar roots (bisection first, then safeguarded
secant steps) and a damped Newton method for smooth vector systems."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Root of a continuous ``f`` on ``[lo, hi]`` with a sign change across it.

    A secant step from the bracket endpoints is accepted only while it lands
    strictly inside the current bracket; otherwise the step falls back to the
    midpoint, so progress never degrades below bisection.
    """
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise BracketError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: f(lo)={fa:.6g}, f(hi)={fb:.6g}"
        )
    for _ in range(max_iter):
        width = abs(b - a)
        if width <= xtol * max(1.0, abs(a), abs(b)):
            break
        guard = 0.01 * width
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        else:
            x = 0.5 * (a + b)
        inner_lo, inner_hi = min(a, b) + guard, max(a, b) - guard
        if not (inner_lo <= x <= inner_hi):
            x = 0.5 * (a + b)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if np.sign(fx) == np.sign(fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return 0.5 * (a + b)


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    factor: float = 2.0,
    max_expand: int = 60,
) -> tuple[float, float]:
    """Grow ``[lo, hi]`` geometrically around its centre until ``f`` changes sign."""
    lo, hi = float(lo), float(hi)
    flo, fhi = float(f(lo)), float(f(hi))
    for _ in range(max_expand):
        if np.sign(flo) != np.sign(fhi) or flo == 0.0 or fhi == 0.0:
            return lo, hi
        mid = 0.5 * (lo + hi)
        half = max(0.5 * (hi - lo), 1e-6) * factor
        lo, hi = mid - half, mid + half
        flo, fhi = float(f(lo)), float(f(hi))
    raise BracketError(f"could not bracket a sign change near [{lo:.6g}, {hi:.6g}]")


def fd_jacobian(F: Callable[[np.ndarray], np.ndarray], z: np.ndarray, Fz: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of F at z, given ``Fz = F(z)``."""
    J = np.empty((Fz.size, z.size))
    for i in range(z.size):
        h = 1.49e-8 * max(1.0, abs(z[i]))  # square root of the float epsilon
        e = z.copy()
        e[i] += h
        J[:, i] = (F(e) - Fz) / h
    return J


def newton(
    F: Callable[[np.ndarray], np.ndarray],
    z0,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    max_halvings: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton solve of ``F(z) = 0``; ``(z, F(z))`` at the last accepted iterate.

    Steps are least-squares solutions of ``J step = -F``, so a singular or
    rank-deficient Jacobian still gives the minimum-norm step.  Each step is
    halved up to ``max_halvings`` times until it meets the Armijo condition
    on ``|F|^2 / 2``; the solve stops when none does, when a step is not a
    descent direction, after 50 steps, or, without taking it, once a step
    falls below ``1e-13 (1 + |z|_inf)``, where F may be noisier than at the
    current iterate.  ``jac`` maps z to the Jacobian; without it forward
    differences are used.  A start where F is not finite is returned as it
    is.
    """
    z = np.array(z0, dtype=float)
    Fz = np.asarray(F(z), dtype=float)
    if not np.all(np.isfinite(Fz)):
        return z, Fz
    for _ in range(50):
        J = jac(z) if jac is not None else fd_jacobian(F, z, Fz)
        try:
            step = np.linalg.lstsq(J, -Fz, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(z))):
            break
        merit, slope = 0.5 * (Fz @ Fz), Fz @ (J @ step)
        if not slope < 0.0:
            break
        s = 1.0
        for _ in range(max_halvings):
            F_new = np.asarray(F(z + s * step), dtype=float)
            if 0.5 * (F_new @ F_new) <= merit + 1e-4 * s * slope:
                break
            s *= 0.5
        else:
            break
        z, Fz = z + s * step, F_new
    return z, Fz


def descend(
    f: Callable[[np.ndarray], float],
    F: Callable[[np.ndarray], np.ndarray],
    z0,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    tol: float,
) -> np.ndarray:
    """Minimize a smooth convex ``f`` whose negative gradient is ``F``.

    Returns the first iterate with ``max |F| <= tol``, else the last one of
    at most 500 steps.  Each step is a regularized Newton step, solving ``(mu I - J) d = F`` with
    ``mu = |F|`` and ``J`` the Jacobian of F (forward differences without
    ``jac``), so ``-J`` is the Hessian of f.  Where f is nearly linear, as
    where softmax-type conjugates saturate and Newton's least-squares steps
    stall, the step is a gradient step of length about one; a full step
    that meets the Armijo condition on f is doubled while f keeps falling,
    and one that does not is halved until it does.  The descent stops once
    f no longer falls, which near a root happens at the rounding of f, well
    before F is small: ``newton`` finishes from there.
    """
    z = np.array(z0, dtype=float)
    Fz, fz = np.asarray(F(z), dtype=float), float(f(z))
    for _ in range(500):
        if not (np.all(np.isfinite(Fz)) and math.isfinite(fz)) or np.max(np.abs(Fz)) <= tol:
            break
        J = jac(z) if jac is not None else fd_jacobian(F, z, Fz)
        try:
            d = np.linalg.solve(np.linalg.norm(Fz) * np.eye(z.size) - J, Fz)
        except np.linalg.LinAlgError:
            break
        slope = -(Fz @ d)
        if not slope < 0.0:
            break
        s, f_new = 1.0, float(f(z + d))
        if f_new < fz and f_new <= fz + 1e-4 * slope:
            for _ in range(60):
                f_far = float(f(z + 2.0 * s * d))
                if not f_far < f_new:
                    break
                s, f_new = 2.0 * s, f_far
        else:
            for _ in range(30):
                s *= 0.5
                f_new = float(f(z + s * d))
                if f_new < fz and f_new <= fz + 1e-4 * s * slope:
                    break
            else:
                break
        z = z + s * d
        Fz, fz = np.asarray(F(z), dtype=float), f_new
    return z
