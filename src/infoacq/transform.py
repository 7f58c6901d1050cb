"""Univariate convex transforms and their conjugates.

A ``Transform`` bundles a convex ``phi`` on [0, inf) with its conjugate
``psi`` and the derivatives of ``psi``.  ``phi`` is normalized so that
``phi(1) = 0`` and ``phi >= 0``; dually ``psi(0) = 0`` and ``psi'(0) = 1``.
``psi'`` is the statewise response map: it sends a net payoff to a likelihood
ratio, and its inverse is ``phi'``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rootfind import BracketError, bracketed_roots, expand_bracket
from .core import ValidationError, finite_positive


@dataclass(frozen=True)
class Transform:
    family: str
    params: dict
    phi: Callable
    phi_prime: Callable
    psi: Callable
    psi_prime: Callable
    psi_pp: Callable | None = None
    psi_ppp: Callable | None = None
    # open interval of values attainable by psi'; bounds may be 0 or inf
    psi_prime_range: tuple[float, float] = (0.0, math.inf)
    # psi'' discontinuity points, where curvature indices are unreliable
    kinks: tuple[float, ...] = ()

    @property
    def kappa(self) -> float:
        """Cost scale of a Shannon or chi2 transform: its ``kappa`` times the
        factor that ``scale_transform`` records apart under ``"scale"``."""
        return self.params["kappa"] * self.params.get("scale", 1.0)

    def near_kink(self, x: float, tol: float = 1e-6) -> bool:
        return any(abs(x - k) < tol for k in self.kinks)


def shannon(kappa: float = 1.0) -> Transform:
    """phi(t) = kappa (t log t - t + 1); psi(t) = kappa (e^{t/kappa} - 1)."""
    k = finite_positive(kappa, "kappa")

    def phi(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0, k * (t * np.log(np.where(t > 0, t, 1.0)) - t + 1), k)
        return out if out.ndim else float(out)

    def phi_prime(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = k * np.log(t)
        return out if out.ndim else float(out)

    return Transform(
        family="shannon",
        params={"kappa": k},
        phi=phi,
        phi_prime=phi_prime,
        psi=lambda t: k * np.expm1(np.asarray(t, dtype=float) / k),
        psi_prime=lambda t: np.exp(np.asarray(t, dtype=float) / k),
        psi_pp=lambda t: np.exp(np.asarray(t, dtype=float) / k) / k,
        psi_ppp=lambda t: np.exp(np.asarray(t, dtype=float) / k) / k**2,
        psi_prime_range=(0.0, math.inf),
    )


def chi2(kappa: float = 1.0) -> Transform:
    """phi(t) = kappa (t-1)^2 / 2; psi(t) = max(t^2/(2 kappa) + t, -kappa/2).

    psi'' at the kink t = -kappa is set to 1/(2 kappa) by convention;
    curvature indices are unreliable within ~1e-6 of the kink.
    """
    k = finite_positive(kappa, "kappa")

    def psi(t):
        # the parabola is tangent to the flat level at the kink and lies above
        # it elsewhere, so the conjugate must switch branches explicitly
        t = np.asarray(t, dtype=float)
        out = np.where(t >= -k, t * t / (2 * k) + t, -k / 2)
        return out if out.ndim else float(out)

    def psi_prime(t):
        t = np.asarray(t, dtype=float)
        out = np.maximum(t / k + 1.0, 0.0)
        return out if out.ndim else float(out)

    def psi_pp(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > -k, 1.0 / k, np.where(t == -k, 1.0 / (2 * k), 0.0))
        return out if out.ndim else float(out)

    def psi_ppp(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        return out if out.ndim else 0.0

    return Transform(
        family="chi2",
        params={"kappa": k},
        phi=lambda t: k * (np.asarray(t, dtype=float) - 1.0) ** 2 / 2,
        phi_prime=lambda t: k * (np.asarray(t, dtype=float) - 1.0),
        psi=psi,
        psi_prime=psi_prime,
        psi_pp=psi_pp,
        psi_ppp=psi_ppp,
        psi_prime_range=(0.0, math.inf),
        kinks=(-k,),
    )


def _piecewise(x, lo, hi, left, mid, right):
    """``left`` below ``lo``, ``right`` above ``hi`` and ``mid`` between, elementwise."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    below, above = arr < lo, arr > hi
    inside = ~(below | above)
    out[below], out[inside], out[above] = left(arr[below]), mid(arr[inside]), right(arr[above])
    return out if np.asarray(x).ndim else float(out[0])


def _increasing_cubic_inverse(c, width, y):
    """x in [0, width] with c0 x^3 + c1 x^2 + c2 x = y for each column of an
    increasing cubic.  Newton steps, replaced by the midpoint of the sign
    bracket whenever they leave it, stop for each column once its residual
    is within the rounding error of its terms."""
    lo, hi = np.zeros_like(y), width.copy()
    x = np.clip(y / ((c[0] * width + c[1]) * width + c[2]), 0.0, width)  # secant start
    for _ in range(100):
        f = ((c[0] * x + c[1]) * x + c[2]) * x - y
        # NaN queries count as done and stay NaN
        done = ~(np.abs(f) > 8e-16 * (np.abs(c * x ** [[3], [2], [1]]).sum(axis=0) + np.abs(y)))
        if done.all():
            break
        lo, hi = np.where(f < 0, x, lo), np.where(f > 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / ((3.0 * c[0] * x + 2.0 * c[1]) * x + c[2])
        x = np.where(done, x, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
    return x


def tabulated(psi_prime_table) -> Transform:
    """Transform from a strictly increasing table of (t, psi'(t)) pairs.

    The table is interpolated with a shape-preserving monotone cubic
    (Fritsch & Carlson 1980), extrapolated log-linearly on the right and
    linearly toward zero on the left.  Every map is exact for that
    interpolant: ``psi`` is its closed-form integral (the cubic's
    antiderivative, the ramp clipped at ``t_zero``, the exponential tail)
    anchored at ``psi(0) = 0``, ``psi''`` its derivative, ``phi'`` its
    piecewise inverse, and ``phi(s) = s t - psi(t)`` at ``t = phi'(s)``.
    """
    from scipy.interpolate import PchipInterpolator

    pts = np.asarray(psi_prime_table, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValidationError("expected at least three (t, value) rows")
    ts, vs = pts[:, 0], pts[:, 1]
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("table abscissae must be strictly increasing")
    if np.any(vs <= 0) or np.any(np.diff(vs) <= 0):
        raise ValidationError("psi' values must be positive and strictly increasing")
    interp = PchipInterpolator(ts, vs, extrapolate=False)
    d = interp.derivative()
    area = interp.antiderivative()  # integral of psi' from t0
    t0, tN = float(ts[0]), float(ts[-1])
    v0, vN = float(vs[0]), float(vs[-1])
    slope_left = max(float(d(t0)), (vs[1] - vs[0]) / (ts[1] - ts[0]) * 1e-3)
    rate_right = max(float(d(tN)) / vN, (np.log(vs[-1]) - np.log(vs[-2])) / (ts[-1] - ts[-2]) * 1e-3)
    t_zero = t0 - v0 / slope_left
    area_table = float(area(tN))
    tail = lambda u: vN * np.exp(rate_right * (u - tN))

    def psi_prime(t):
        ramp = lambda u: np.maximum(v0 + slope_left * (u - t0), 0.0)
        return _piecewise(t, t0, tN, ramp, interp, tail)

    def integral(t):  # of psi' from t0
        def ramp(u):
            u = np.maximum(u, t_zero) - t0
            return u * (v0 + 0.5 * slope_left * u)

        right = lambda u: area_table + vN * np.expm1(rate_right * (u - tN)) / rate_right
        return _piecewise(t, t0, tN, ramp, area, right)

    one = float(psi_prime(0.0))
    if abs(one - 1.0) > 1e-8:
        raise ValidationError(f"psi'(0) = {one:.6g}, table violates the normalization psi'(0) = 1")
    at_zero = integral(0.0)
    psi = lambda t: integral(t) - at_zero

    def psi_pp(t):
        # the ramp's kink at t_zero takes the mean of its one-sided slopes
        ramp = lambda u: slope_left * ((u > t_zero) + 0.5 * (u == t_zero))
        return _piecewise(t, t0, tN, ramp, d, lambda u: rate_right * tail(u))

    def phi_prime(s):
        def table(r):
            k = np.clip(np.searchsorted(vs, r, side="right") - 1, 0, len(vs) - 2)
            return ts[k] + _increasing_cubic_inverse(interp.c[:3, k], ts[k + 1] - ts[k], r - vs[k])

        ramp = lambda r: t0 + (np.maximum(r, 0.0) - v0) / slope_left
        return _piecewise(s, v0, vN, ramp, table, lambda r: tN + np.log(r / vN) / rate_right)

    def phi(s):
        u = phi_prime(s)
        out = np.asarray(s, dtype=float) * u - psi(u)
        return out if np.ndim(out) else float(out)

    return Transform(
        family="tabulated",
        params={"n_points": len(ts), "t_zero": t_zero},
        phi=phi,
        phi_prime=phi_prime,
        psi=psi,
        psi_prime=psi_prime,
        psi_pp=psi_pp,
        psi_ppp=None,
        psi_prime_range=(0.0, math.inf),
        kinks=(t_zero,),
    )


def scale_transform(t: Transform, kappa: float) -> Transform:
    """Transform of the cost scaled by kappa: phi_k = kappa phi, psi_k = kappa psi(t/kappa)."""
    k = finite_positive(kappa, "kappa")
    if k == 1.0:
        return t
    lo, hi = t.psi_prime_range
    return Transform(
        family=t.family,
        params={**t.params, "scale": k * t.params.get("scale", 1.0)},
        phi=lambda s: k * t.phi(s),
        phi_prime=lambda s: k * t.phi_prime(s),
        psi=lambda x: k * t.psi(np.asarray(x, dtype=float) / k),
        psi_prime=lambda x: t.psi_prime(np.asarray(x, dtype=float) / k),
        psi_pp=(lambda x: t.psi_pp(np.asarray(x, dtype=float) / k) / k) if t.psi_pp else None,
        psi_ppp=(lambda x: t.psi_ppp(np.asarray(x, dtype=float) / k) / k**2) if t.psi_ppp else None,
        psi_prime_range=(lo, hi),
        kinks=tuple(k * x for x in t.kinks),
    )


def _golden_max(g, lo, hi, iters=120):
    """Golden-section maximization of a unimodal g on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


def conjugate_check(t: Transform, grid) -> float:
    """Max over the grid of |psi(x) - sup_{s>=0}(x s - phi(s))|.

    The inner supremum is computed by golden-section search over phi's
    domain; raises if phi returns NaN inside its declared domain.
    """
    worst = 0.0
    for x in np.atleast_1d(np.asarray(grid, dtype=float)):
        s_hint = float(t.psi_prime(x))
        hi = max(4.0 * s_hint, 2.0)

        def g(s):
            val = float(t.phi(s))
            if math.isnan(val):
                raise ValueError(f"phi returned NaN at s={s:.6g}")
            return x * s - val

        # widen until the bracket provably contains the maximizer
        while g(hi) > g(0.9 * hi) and hi < 1e12:
            hi *= 4.0
        _, best = _golden_max(g, 0.0, hi)
        best = max(best, g(0.0))
        worst = max(worst, abs(float(t.psi(x)) - best))
    return worst


def shift_transform(t: Transform, k: float) -> Transform:
    """Reparametrized transform whose conjugate is psi_k(x) = (psi(x+t_k) - psi(t_k))/k.

    ``t_k`` solves psi'(t_k) = k, so psi_k(0) = 0 and psi_k'(0) = 1 hold by
    construction and the curvature index of psi_k is that of psi shifted by
    t_k.  ``k`` must lie in the interior of the image of psi'.
    """
    lo, hi = t.psi_prime_range
    if not (lo < k < hi):
        raise ValidationError(f"k={k:.6g} outside the image ({lo:.3g}, {hi:.3g}) of psi'")
    f = lambda x: t.psi_prime(x) - k
    t_k = float(bracketed_roots(f, *expand_bracket(f, -1.0, 1.0)))
    psi_tk = float(t.psi(t_k))
    phi_k_at = float(t.phi_prime(k))

    return Transform(
        family=f"shifted_{t.family}",
        params={**t.params, "k": float(k), "t_k": t_k},
        phi=lambda s: (t.phi(k * np.asarray(s, dtype=float)) - t.phi(k)) / k
        - (np.asarray(s, dtype=float) - 1.0) * phi_k_at,
        phi_prime=lambda s: t.phi_prime(k * np.asarray(s, dtype=float)) - phi_k_at,
        psi=lambda x: (t.psi(np.asarray(x, dtype=float) + t_k) - psi_tk) / k,
        psi_prime=lambda x: t.psi_prime(np.asarray(x, dtype=float) + t_k) / k,
        psi_pp=(lambda x: t.psi_pp(np.asarray(x, dtype=float) + t_k) / k) if t.psi_pp else None,
        psi_ppp=(lambda x: t.psi_ppp(np.asarray(x, dtype=float) + t_k) / k) if t.psi_ppp else None,
        psi_prime_range=(lo / k, hi / k if hi != math.inf else math.inf),
        kinks=tuple(x - t_k for x in t.kinks),
    )


def risk_indices(t: Transform, x: float) -> tuple[float, float]:
    """Curvature index psi''/psi' and prudence index psi'''/psi'' at x.

    Falls back to centered finite differences with step 1e-5 * max(1, |x|)
    when analytic derivatives are unavailable.  Values within ~1e-6 of a
    psi'' kink are unreliable; see ``Transform.near_kink``.
    """
    x = float(x)
    p1 = float(t.psi_prime(x))
    if p1 <= 0.0:
        raise ValueError("psi'(x) must be positive for the curvature index")
    h = 1e-5 * max(1.0, abs(x))
    if t.psi_pp is not None:
        p2 = float(t.psi_pp(x))
    else:
        p2 = (float(t.psi_prime(x + h)) - float(t.psi_prime(x - h))) / (2 * h)
    if p2 == 0.0:
        raise ValueError("flat second derivative: prudence index undefined")
    if t.psi_ppp is not None:
        p3 = float(t.psi_ppp(x))
    else:
        p3 = (
            float(t.psi_prime(x + h)) - 2.0 * p1 + float(t.psi_prime(x - h))
        ) / (h * h)
    return p2 / p1, p3 / p2


def psi_inverse(t: Transform, y):
    """Inverse of the increasing map psi, at a number or at each entry of an array.

    chi2 and Shannon transforms, scaled ones included, take their closed
    forms at their ``kappa``: ``2y / (1 + sqrt(1 + 2y/kappa))``, which does
    not cancel near y = 0, and ``kappa log1p(y/kappa)``; a y outside the
    range of psi, ``[-kappa/2, inf)`` and ``(-kappa, inf)``, raises
    ``BracketError``.  For any other family each bracket [-1, 1] doubles
    about its centre until ``psi - y`` changes sign across it; Brent's method
    (``bracketed_roots``) then finds x within ``1e-13 max(1, |x|)``.
    """
    y = np.asarray(y, dtype=float)
    if t.family in ("chi2", "shannon"):
        k = t.kappa
        chi = t.family == "chi2"
        outside = ~(y >= -k / 2) if chi else ~(y > -k)
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise BracketError(f"y={y.flat[i]:.6g} in column {i} lies outside the range of psi")
        x = 2.0 * y / (1.0 + np.sqrt(1.0 + 2.0 * y / k)) if chi else k * np.log1p(y / k)
    else:
        f = lambda x: t.psi(x) - y
        x = bracketed_roots(f, *expand_bracket(f, np.full(y.shape, -1.0), 1.0))
    return x if x.ndim else float(x)


__all__ = [
    "Transform",
    "shannon",
    "chi2",
    "tabulated",
    "scale_transform",
    "shift_transform",
    "conjugate_check",
    "risk_indices",
    "psi_inverse",
    "BracketError",
]
