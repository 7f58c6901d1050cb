"""Root finding: Brent's method on arrays of brackets, one root a column
(inverse-quadratic and secant steps with a bisection fallback), a damped
Newton method for smooth vector systems, and the Newton solve of the
stationarity conditions on a simplex face behind the numeric conjugate."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


_EPS = float(np.finfo(float).eps)


class BracketError(RuntimeError):
    """The supplied interval does not bracket a sign change."""


def bracketed_roots(g, lo, hi, *, xtol: float = 1e-13, max_iter: int = 200) -> np.ndarray:
    """Roots of a continuous ``g`` on the brackets ``[lo, hi]``, one a column.

    The columns are the entries of ``lo`` and ``hi`` broadcast together;
    ``g`` maps an array of that shape to each column's function value.  Each
    column runs Brent's method (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 4) and stops on its own: a step is an
    inverse-quadratic or secant step through the last three iterates, taken
    while it lands well inside the bracket and is under half the step before
    last, and a bisection step otherwise.  An end where g is exactly zero is
    returned as it is; otherwise the result is the end of the final bracket
    with the smaller ``|g|``, a bracket at most ``xtol max(1, |x|)`` wide
    (``4 eps |x|`` where wider) unless ``max_iter`` steps ran out.  Raises
    ``BracketError`` naming the first column where g has one sign at both ends.
    """
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    fa, fb = np.asarray(g(lo), dtype=float), np.asarray(g(hi), dtype=float)
    bad = ((fa > 0.0) & (fb > 0.0)) | ((fa < 0.0) & (fb < 0.0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BracketError(
            f"no sign change in column {i} on [{lo.flat[i]:.6g}, {hi.flat[i]:.6g}]: "
            f"f(lo)={fa.flat[i]:.6g}, f(hi)={fb.flat[i]:.6g}"
        )
    # b is the best iterate and c the bracket end across the sign change from
    # it; a is the previous b, d the last step and e the one before it
    a, b = lo, np.where(fa == 0.0, lo, hi)
    active = (fa != 0.0) & (fb != 0.0)
    c, fc, d, e = a, fa, b - a, b - a
    for _ in range(max_iter):
        if not active.any():
            break
        with np.errstate(all="ignore"):
            # only b is kept in a stopped column, so only the swap and the
            # step look at ``active``
            flip = (fb > 0.0) == (fc > 0.0)
            ba = b - a
            c, fc = np.where(flip, a, c), np.where(flip, fa, fc)
            d, e = np.where(flip, ba, d), np.where(flip, ba, e)
            swap = active & (np.abs(fc) < np.abs(fb))
            a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
            fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
            abs_b = np.abs(b)
            tol = np.maximum(0.5 * xtol * np.maximum(1.0, abs_b), 2.0 * _EPS * abs_b)
            half = 0.5 * (c - b)
            active &= ~(np.abs(half) <= tol)
            # secant where a == c, else inverse quadratic through (a, fa),
            # (b, fb), (c, fc)
            s, q, r = fb / fa, fa / fc, fb / fc
            secant, two_half, r1 = a == c, 2.0 * half, r - 1.0
            p = np.where(secant, two_half * s, s * (two_half * q * (q - r) - (b - a) * r1))
            q = np.where(secant, 1.0 - s, (q - 1.0) * r1 * (s - 1.0))
            q = np.where(p > 0.0, -q, q)
            p = np.abs(p)
            interp = (np.abs(e) >= tol) & (np.abs(fa) > np.abs(fb))
            take = interp & (2.0 * p < np.minimum(3.0 * half * q - np.abs(tol * q), np.abs(e * q)))
            e, d = np.where(take, d, half), np.where(take, p / q, half)
            a, fa = b, fb
            b = np.where(active, b + np.where(np.abs(d) > tol, d, np.copysign(tol, half)), b)
        fb = np.asarray(g(b), dtype=float)
        active &= fb != 0.0
    return b


def bracketed_root(f, lo: float, hi: float, *, xtol: float = 1e-13, max_iter: int = 200) -> float:
    """Root of a continuous scalar ``f`` on ``[lo, hi]``: one column of ``bracketed_roots``."""
    g = lambda x: [f(float(x[0]))]
    return float(bracketed_roots(g, [lo], [hi], xtol=xtol, max_iter=max_iter)[0])


def expand_bracket(g, lo, hi, *, factor: float = 2.0, max_expand: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Grow each bracket ``[lo, hi]`` geometrically around its centre until
    ``g`` changes sign across it; columns and ``g`` as in ``bracketed_roots``."""
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    flo, fhi = np.asarray(g(lo), dtype=float), np.asarray(g(hi), dtype=float)
    for _ in range(max_expand):
        grow = (np.sign(flo) == np.sign(fhi)) & (flo != 0.0) & (fhi != 0.0)
        if not grow.any():
            return lo, hi
        mid = 0.5 * (lo + hi)
        half = np.maximum(0.5 * (hi - lo), 1e-6) * factor
        lo, hi = np.where(grow, mid - half, lo), np.where(grow, mid + half, hi)
        flo = np.where(grow, np.asarray(g(lo), dtype=float), flo)
        fhi = np.where(grow, np.asarray(g(hi), dtype=float), fhi)
    i = int(np.flatnonzero(grow)[0])
    raise BracketError(
        f"could not bracket a sign change in column {i} near [{lo.flat[i]:.6g}, {hi.flat[i]:.6g}]"
    )


def fd_jacobian(F: Callable[[np.ndarray], np.ndarray], z: np.ndarray, Fz: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of F at z, given ``Fz = F(z)``."""
    J = np.empty((Fz.size, z.size))
    for i in range(z.size):
        h = 1.49e-8 * max(1.0, abs(z[i]))  # square root of the float epsilon
        e = z.copy()
        e[i] += h
        J[:, i] = (F(e) - Fz) / h
    return J


def newton_step(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solution of ``J step = -F`` for a Newton step.

    A square J is solved by LU, and its step kept when it is finite and
    ``|J step + F| <= 1e-10 |F|``.  Otherwise, as for a non-square J or one
    made singular by tied or duplicated actions, the step is the
    minimum-norm least-squares solution.  Raises ``LinAlgError`` when that
    does not converge.
    """
    return _step_and_image(J, F)[0]


def _step_and_image(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(newton_step(J, F), J @ step)``: the LU step's residual check and a
    line search's slope read the one product."""
    if J.shape[0] == J.shape[1]:
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.all(np.isfinite(step)):
                # a huge finite step of a near-singular J can overflow the
                # residual or its norm; the overflow reads inf (or nan) and
                # fails the check like any other inaccurate step, so it is
                # not reported
                with np.errstate(over="ignore", invalid="ignore"):
                    image = J @ step
                    residual = image + F
                    accurate = math.sqrt(residual @ residual) <= 1e-10 * math.sqrt(F @ F)
                if accurate:
                    return step, image
    step = np.linalg.lstsq(J, -F, rcond=None)[0]
    return step, J @ step


# backtracking halvings per Newton step of a stationarity solve; more only
# grind on faces that hold no root, which the caller then rejects
_POLISH_HALVINGS = 10

# residual at which a Newton solve stops before forming a Jacobian: a few
# roundings of an O(1) residual, where no step could lower |F| further
_RESIDUAL_FLOOR = 4.0 * _EPS


def newton(
    F: Callable[[np.ndarray], np.ndarray],
    z0,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    max_halvings: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton solve of ``F(z) = 0``; ``(z, F(z))`` at the last accepted iterate.

    Steps are the ``newton_step`` solutions of ``J step = -F``: LU steps,
    with the minimum-norm least-squares step for a non-square or singular
    Jacobian, or an LU step that fails its residual check.  Each step is
    halved up to ``max_halvings`` times until it meets the Armijo condition
    on ``|F|^2 / 2``.  The solve stops, without forming a Jacobian there,
    at the start or an accepted iterate where ``|F|_inf <= _RESIDUAL_FLOOR``
    (4 eps, absolute); and it stops when no halving meets the condition,
    when a step is not a descent direction, after 50 steps, or, without
    taking it, once a step falls below ``1e-13 (1 + |z|_inf)``, where F may
    be noisier than at the current iterate.  ``jac`` maps z to the
    Jacobian; without it forward differences are used.  ``jac`` is handed
    the very array object that F was last handed, the start or the trial
    point just accepted, so a caller can reuse what F computed there.  A
    start where F is not finite is returned as it is.
    """
    z = np.array(z0, dtype=float)
    Fz = np.asarray(F(z), dtype=float)
    if not np.isfinite(Fz).all():
        return z, Fz
    for _ in range(50):
        if abs(Fz).max() <= _RESIDUAL_FLOOR:
            break
        J = jac(z) if jac is not None else fd_jacobian(F, z, Fz)
        try:
            step, image = _step_and_image(J, Fz)
        except np.linalg.LinAlgError:
            break
        if abs(step).max() <= 1e-13 * (1.0 + abs(z).max()):
            break
        merit, slope = 0.5 * (Fz @ Fz), Fz @ image
        if not slope < 0.0:
            break
        s = 1.0
        for _ in range(max_halvings):
            trial = z + s * step
            F_new = np.asarray(F(trial), dtype=float)
            if 0.5 * (F_new @ F_new) <= merit + 1e-4 * s * slope:
                break
            s *= 0.5
        else:
            break
        z, Fz = trial, F_new
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
    where softmax-type conjugates saturate and Newton's own steps stall,
    the step is a gradient step of length about one; a full step that
    meets the Armijo condition on f is doubled while f keeps falling, and
    one that does not is halved until it does.  The descent stops once
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
            d = np.linalg.solve(math.sqrt(Fz @ Fz) * np.eye(z.size) - J, Fz)
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


def stationary_point(grad, p0, face=None, jac=None, accept=None) -> np.ndarray | None:
    """Point of the simplex face where ``grad`` is constant, by Newton from p0.

    Solves ``grad(q)_f = c``, ``sum q = 1`` for ``(log q_f, c)`` with
    ``q`` zero off the face ``f`` (a mask; None is the whole simplex), so
    the log parametrization keeps q positive on it.  ``grad`` is the
    gradient of the objective (or its negative: the sign does not matter)
    and ``jac`` the Jacobian of ``grad``; without it forward differences
    are used.  A Newton step is halved at most ``_POLISH_HALVINGS`` times,
    so faces that hold no root are given up early.  A coordinate whose
    stationary mass underflows keeps its residual however far Newton sends
    it, which fails every line search; when the solve ends short of a
    root, the coordinates that the next Newton step sends below 1e-300 are
    dropped and the rest solved again.  The reduced solution is returned
    when it passes ``accept`` (the caller's certificate; None accepts any
    solution), and else the point this face's solve reached.  Returns the
    normalized solution, or None when the solve ends at a non-finite or
    unnormalizable point; callers certify it by their stationarity gap.
    """
    n = p0.size
    idx = np.arange(n) if face is None else np.flatnonzero(face)
    if idx.size == 0:
        return None
    z0 = np.concatenate([np.log(np.maximum(p0[idx], 1e-300)), [float(p0 @ grad(p0))]])

    def assemble(z):
        q = np.zeros(n)
        q[idx] = np.exp(np.minimum(z[:-1], 50.0))
        return q

    def F(z):
        q = assemble(z)
        return np.concatenate([grad(q)[idx] - z[-1], [q.sum() - 1.0]])

    def J(z):
        q = assemble(z)
        q_f = q[idx]
        k = idx.size
        out = np.zeros((k + 1, k + 1))
        out[:k, :k] = jac(q)[np.ix_(idx, idx)] * q_f[None, :]
        out[:k, k] = -1.0
        out[k, :k] = q_f
        return out

    z, Fz = newton(F, z0, J if jac is not None else None, max_halvings=_POLISH_HALVINGS)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(Fz))):
        return None
    if idx.size > 1 and np.max(np.abs(Fz)) > 1e-9 * (1.0 + abs(z[-1])):
        J_z = J(z) if jac is not None else fd_jacobian(F, z, Fz)
        low = z[:-1] + newton_step(J_z, Fz)[:-1] < math.log(1e-300)
        if low.any() and not low.all():
            keep = np.zeros(n, dtype=bool)
            keep[idx[~low]] = True
            reduced = stationary_point(grad, p0, keep, jac, accept)
            if reduced is not None and (accept is None or accept(reduced)):
                return reduced
    q = assemble(z)
    total = q.sum()
    if not (0.5 < total < 2.0):
        return None
    return q / total
