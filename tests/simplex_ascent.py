"""An exponentiated-gradient ascent on the simplex, refined by a Newton solve
of the stationarity conditions.

The library solved several concave maximizations this way before each moved
to a Newton route of its own (the f-mean, the per-state perturbed choice,
the numeric conjugate).  The tests keep this one copy as an independent
reference for those routes.
"""

import math

import numpy as np

# exponentiated-gradient steps of a simplex maximization before it gives up
SIMPLEX_STEPS = 1000


def maximize_on_simplex(objective, gradient, gap, p0, *, tol: float, refine):
    """Maximize a concave ``objective`` over the simplex face where ``p0 > 0``.

    Returns ``(p, certified)``: a point with ``gap(p) <= tol``, the caller's
    stationarity certificate, or else the iterate with the smallest gap and
    False.  ``refine(p)`` returns a candidate point (a Newton solve of the
    stationarity conditions, say) or None, and a candidate counts only when
    it certifies.  It is tried before the first step, after steps 1, 2, 4,
    8, ..., on the first iterate that certifies (whose candidate is returned
    instead when it certifies too) and once more from the best iterate when
    the ascent ends.  Each step is exponentiated gradient ascent
    ``p <- p exp(eta (g - max g))`` renormalized, with ``g`` the gradient
    and mass floored at 1e-300 on the face; eta is halved until the
    objective does not fall and grows by 1.25 after every accepted step.
    The ascent ends after ``SIMPLEX_STEPS`` steps, when 60 halvings find no
    step, or when an accepted step leaves p bit-identical.
    """
    p = np.array(p0, dtype=float)
    face = p > 0.0
    value, eta = float(objective(p)), 1.0
    best, best_gap = p, math.inf
    for step in range(SIMPLEX_STEPS + 1):
        gap_p = float(gap(p))
        if gap_p <= tol or step & (step - 1) == 0:  # 0 and the powers of two
            q = refine(p)
            if q is not None and gap(q) <= tol:
                return q, True
            if gap_p <= tol:
                return p, True
        if gap_p < best_gap:
            best, best_gap = p, gap_p
        if step == SIMPLEX_STEPS:
            break
        g = np.asarray(gradient(p), dtype=float)[face]
        for _ in range(60):
            cand = np.zeros_like(p)
            cand[face] = p[face] * np.exp(eta * (g - g.max()))
            s = cand.sum()
            if s > 0 and np.all(np.isfinite(cand)):
                cand[face] = np.maximum(cand[face] / s, 1e-300)
                cand /= cand.sum()
                cand_value = float(objective(cand))
                if cand_value >= value - 1e-15:
                    break
            eta *= 0.5
        else:
            break
        if np.array_equal(cand, p):
            break
        p, value = cand, cand_value
        eta *= 1.25
    q = refine(best)
    if q is not None and gap(q) <= tol:
        return q, True
    return best, False
