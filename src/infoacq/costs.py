"""Information-cost families: payoff-space conjugates, gradients, primal costs.

Every model exposes ``f_star`` and ``grad_f_star`` on payoff-space vectors
(the arguments are of the form ``a * prior - lambda``), plus the primal cost
of a stochastic choice rule.  Entropies expose their own conjugate ``h_star``
on posterior-space vectors; the posterior-separable model bridges the two via
``f_star(x) = h_star(x / prior)``.  Uniform scaling by kappa is implemented
once, in :func:`scale`, and never re-implemented by a family.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import divergence
from ._rootfind import newton
from .core import ChoiceRule, ValidationError, clean_weights
from .transform import Transform, scale_transform, shannon, chi2

COST_FAMILIES = (
    "mutual_information",
    "csiszar",
    "chi2",
    "posterior_separable",
    "perceptual_csiszar",
    "nested_shannon",
    "neighborhood_hw",
)


# ---------------------------------------------------------------------------
# encoders


@dataclass(frozen=True)
class Encoder:
    """A kernel from states to attributes, bound to a prior.

    ``rows[s, i]`` is the probability that state ``s`` presents attribute
    ``i``; ``nu`` is the attribute marginal and ``mu[i]`` the conditional
    state distribution given attribute ``i``.
    """

    attributes: tuple[str, ...]
    rows: np.ndarray
    prior: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    full_column_rank: bool

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


def build_encoder(rows, prior, attributes=None) -> Encoder:
    prior = clean_weights(prior, "prior")
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != prior.size:
        raise ValidationError("encoder rows must be (n_states, n_attributes)")
    n_attr = rows.shape[1]
    if attributes is None:
        attributes = tuple(f"i{j}" for j in range(n_attr))
    else:
        attributes = tuple(str(a) for a in attributes)
        if len(attributes) != n_attr:
            raise ValidationError("attribute labels do not match encoder columns")
    rows = np.vstack([clean_weights(rows[s], f"encoder row {s}") for s in range(rows.shape[0])])
    nu = prior @ rows
    if nu.min() <= 0.0:
        raise ValidationError("every attribute needs a state presenting it with positive probability")
    mu = (rows * prior[:, None]).T / nu[:, None]
    rank = np.linalg.matrix_rank(rows, tol=1e-9)
    rows.flags.writeable = False
    nu.flags.writeable = False
    mu.flags.writeable = False
    return Encoder(attributes, rows, prior, nu, mu, bool(rank == n_attr))


# ---------------------------------------------------------------------------
# entropies over posteriors


# numeric-conjugate results kept per entropy; least recently used go first
MEMO_CAPACITY = 1024


class _ConjugateMemo(Mapping):
    """LRU map from rounded queries to ``(H*(x), argmax)``, safe across threads.

    Keys are the bytes of the query rounded at 1e-12, so the stored queries
    can be read back for the nearest-neighbour warm start.
    """

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __getitem__(self, key):
        with self._lock:
            return self._data[key]

    def __iter__(self):
        with self._lock:
            return iter(list(self._data))

    def __len__(self):
        return len(self._data)

    def get(self, key, default=None):
        with self._lock:
            out = self._data.get(key)
            if out is None:
                return default
            self._data.move_to_end(key)
            return out

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > MEMO_CAPACITY:
                self._data.popitem(last=False)

    def nearest_argmax(self, x: np.ndarray):
        """Argmax stored for the query closest to x in sup norm modulo constants."""
        with self._lock:
            if not self._data:
                return None
            keys = list(self._data)
            Y = np.frombuffer(b"".join(keys), dtype=float).reshape(len(keys), -1)
            D = x[None, :] - Y
            best = keys[int(np.argmin(D.max(axis=1) - D.min(axis=1)))]
            return self._data[best][1]


@dataclass
class Entropy:
    """A convex entropy over posteriors with H(prior) = 0.

    Either closed-form conjugate evaluators are supplied, or the conjugate is
    computed numerically by :func:`numeric_conjugate`, whose results are
    kept per instance in an LRU memo of ``MEMO_CAPACITY`` entries keyed on
    the query rounded at 1e-12.  Closed forms may also come row-batched:
    ``conj_rows_fn``, ``conj_grad_rows_fn`` and ``conj_hess_rows_fn`` map an
    ``(m, n)`` matrix of posterior-space vectors to ``(m,)`` values,
    ``(m, n)`` gradients and ``(m, n, n)`` Hessians.  ``hess_fn`` is the
    Hessian of H itself; it gives the numeric conjugate exact Newton steps,
    and an entropy with it but no closed-form conjugate gets
    ``conj_hess_rows_fn`` from the implicit function theorem.
    """

    family: str
    prior: np.ndarray
    value_fn: Callable[[np.ndarray], float]
    conj_fn: Callable[[np.ndarray], float] | None = None
    conj_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    # optional boundary-aware stationarity gap for the numeric conjugate;
    # needed when the entropy is linear along some directions
    gap_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    # optional structure-aware support guesses for the conjugate refinement
    faces_fn: Callable[[np.ndarray, np.ndarray], list] | None = None
    conj_rows_fn: Callable[[np.ndarray], np.ndarray] | None = None
    conj_grad_rows_fn: Callable[[np.ndarray], np.ndarray] | None = None
    conj_hess_rows_fn: Callable[[np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    numeric_tol: float = 1e-9
    numeric_cap: int = 100000
    _memo: _ConjugateMemo = field(default_factory=_ConjugateMemo, repr=False)

    def __post_init__(self):
        if self.conj_fn is None and self.hess_fn is not None and self.conj_hess_rows_fn is None:
            self.conj_hess_rows_fn = lambda Y: _implicit_conj_hess_rows(self, Y)

    def value(self, p) -> float:
        return float(self.value_fn(np.asarray(p, dtype=float)))

    def h_star(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.conj_fn is not None:
            return float(self.conj_fn(x))
        return numeric_conjugate(self, x)[0]

    def grad_h_star(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.conj_grad_fn is not None:
            return np.asarray(self.conj_grad_fn(x), dtype=float)
        return numeric_conjugate(self, x)[1]


def _implicit_conj_hess_rows(h: Entropy, Y) -> np.ndarray:
    """Conjugate Hessians of the rows of Y by the implicit function theorem.

    At the argmax p the stationarity system ``y_f - dH(p)_f = c 1``,
    ``1.p_f = 1`` holds on the face ``f = {p > 1e-10}``; differentiating it
    gives dp_f/dy_f as the top-left block of ``[[d2H(p)_ff, 1], [1^T, 0]]^-1``.
    Coordinates off the face stay at zero.
    """
    Y = np.asarray(Y, dtype=float)
    m, n = Y.shape
    out = np.zeros((m, n, n))
    for r in range(m):
        p = numeric_conjugate(h, Y[r])[1]
        f = np.flatnonzero(p > 1e-10)
        k = f.size
        B = np.zeros((k + 1, k + 1))
        B[:k, :k] = np.asarray(h.hess_fn(np.maximum(p, 1e-300)), dtype=float)[np.ix_(f, f)]
        B[:k, k] = 1.0
        B[k, :k] = 1.0
        # pinv: the bordered matrix is singular where H is linear on the face
        out[r][np.ix_(f, f)] = np.linalg.pinv(B)[:k, :k]
    return out


# backtracking halvings per Newton step of the stationarity refinement; more
# only grind on faces that hold no root, which the caller then rejects
_POLISH_HALVINGS = 10


def _stationarity_polish(h: Entropy, x: np.ndarray, p0: np.ndarray, face=None):
    """Stationarity refinement: x - dH(p) constant on the optimal face.

    Solves ``x_f - dH(p)_f = c``, ``sum p = 1`` for ``(log p_f, c)`` by the
    damped Newton of ``_rootfind.newton``; the log parametrization keeps p
    positive.  When ``face`` marks a strict subset of coordinates, the rest
    are pinned at zero (a boundary argmax is possible only where the entropy
    keeps a finite slope).  With a ``hess_fn`` the Newton steps use the
    exact Jacobian, else forward differences.  A step is halved at most
    ``_POLISH_HALVINGS`` times: faces that hold no root are given up early.
    Returns the refined point, or None when the solve ends at a non-finite
    or unnormalizable point; callers certify it by the stationarity gap.
    """
    n = x.size
    if face is None:
        face = np.ones(n, dtype=bool)
    idx = np.flatnonzero(face)
    if idx.size == 0:
        return None
    u0 = np.log(np.maximum(p0[idx], 1e-300))
    g0 = x - np.asarray(h.grad_fn(np.maximum(p0, 1e-300)), dtype=float)
    z0 = np.concatenate([u0, [float(p0 @ g0)]])

    def assemble(z):
        q = np.zeros(n)
        q[idx] = np.exp(np.minimum(z[:-1], 50.0))
        return q

    def F(z):
        q = assemble(z)
        grad = np.asarray(h.grad_fn(np.maximum(q, 1e-300)), dtype=float)
        return np.concatenate([x[idx] - grad[idx] - z[-1], [q.sum() - 1.0]])

    def J(z):
        q = assemble(z)
        q_f = q[idx]
        hess = np.asarray(h.hess_fn(np.maximum(q, 1e-300)), dtype=float)[np.ix_(idx, idx)]
        k = idx.size
        out = np.zeros((k + 1, k + 1))
        out[:k, :k] = -hess * q_f[None, :]
        out[:k, k] = -1.0
        out[k, :k] = q_f
        return out

    z, Fz = newton(F, z0, J if h.hess_fn is not None else None, max_halvings=_POLISH_HALVINGS)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(Fz))):
        return None
    q = assemble(z)
    total = q.sum()
    if not (0.5 < total < 2.0):
        return None
    return q / total


def numeric_conjugate(h: Entropy, x, tol=None, max_iter=None):
    """(H*(x), argmax p) for the supremum of p.x - H(p) over the simplex.

    Certified by the simplex stationarity gap max(g) - p.g of the gradient
    g = x - dH(p) falling below tolerance; the argmax equals the conjugate
    gradient.  Results are memoized in ``h._memo`` (LRU, ``MEMO_CAPACITY``
    entries).  On a miss whose prior is not already certified, a Newton
    solve of the stationarity system (``_stationarity_polish``, on the
    in-library ``_rootfind.newton``, so no SciPy is loaded) starts from the
    memoized argmax of the nearest stored query (sup norm modulo constants),
    trying the faces of ``faces_fn`` too.  Only when that fails does
    entropic mirror ascent with backtracking steps run from the prior, with
    periodic Newton attempts.  Every certified point is finished by the same
    Newton refinement on its support, or on the whole simplex when that
    fails, so the argmax is accurate to rounding whichever path reached it.
    A refinement counts only when its stationarity gap is within tolerance.
    Raises on non-convergence within the iteration cap.
    """
    x = np.asarray(x, dtype=float)
    tol = h.numeric_tol if tol is None else tol
    cap = h.numeric_cap if max_iter is None else max_iter
    key = np.round(x, 12).tobytes()
    hit = h._memo.get(key)
    if hit is not None:
        return hit
    if h.grad_fn is None:
        raise ValidationError(f"entropy {h.family!r} has no gradient for numeric conjugation")

    def gap_at(p):
        if h.gap_fn is not None:
            return float(h.gap_fn(x, p))
        g = x - np.asarray(h.grad_fn(np.maximum(p, 1e-300)), dtype=float)
        return float(g.max() - p @ g)

    def try_polish(p):
        faces = [None, p > 1e-10]
        if h.faces_fn is not None:
            faces.extend(h.faces_fn(x, p))
        seen = set()
        for face in faces:
            key_f = None if face is None else face.tobytes()
            if key_f in seen or (face is not None and not face.any()):
                continue
            seen.add(key_f)
            if face is not None and face.all() and None in seen:
                continue
            refined = _stationarity_polish(h, x, p, face)
            if refined is not None and gap_at(refined) <= tol:
                return refined
        return None

    def finish(p, refine=True):
        if refine:
            # the full face keeps mass that the support threshold would zero
            support = p > 1e-10
            for face in (support,) if support.all() else (support, None):
                refined = _stationarity_polish(h, x, p, face)
                if refined is not None and gap_at(refined) <= tol:
                    p = refined
                    break
        out = (float(p @ x) - h.value(p), p)
        h._memo.put(key, out)
        return out

    p = h.prior.copy()
    if gap_at(p) <= tol:
        return finish(p)
    start = h._memo.nearest_argmax(x)
    if start is not None:
        refined = try_polish(start)
        if refined is not None:
            return finish(refined, refine=False)
    obj = float(p @ x) - h.value(p)
    eta = 1.0
    polish_at = 50
    for it in range(1, cap + 1):
        g = x - np.asarray(h.grad_fn(p), dtype=float)
        if gap_at(p) <= tol:
            return finish(p)
        if it >= polish_at:
            polish_at = 2 * polish_at
            refined = try_polish(p)
            if refined is not None:
                return finish(refined, refine=False)
        stepped = False
        for _ in range(60):
            cand = p * np.exp(eta * (g - g.max()))
            s = cand.sum()
            if s > 0 and np.all(np.isfinite(cand)):
                cand = np.maximum(cand / s, 1e-300)
                cand /= cand.sum()
                cand_obj = float(cand @ x) - h.value(cand)
                if cand_obj >= obj - 1e-15:
                    p, obj = cand, cand_obj
                    eta *= 1.25
                    stepped = True
                    break
            eta *= 0.5
        if not stepped:
            break
    refined = try_polish(p)
    if refined is not None:
        return finish(refined, refine=False)
    raise RuntimeError(
        f"numeric conjugate did not reach gap {tol:.1e} within {cap} iterations"
    )


def _logsumexp(v):
    m = np.max(v)
    if not np.isfinite(m):
        return m
    return m + math.log(np.exp(v - m).sum())


def shannon_kl_entropy(prior, kappa: float = 1.0) -> Entropy:
    """H(p) = kappa * KL(p || prior)."""
    prior = clean_weights(prior, "prior")
    k = float(kappa)
    logpi = np.log(prior)

    def value(p):
        pos = p > 0
        return k * float(p[pos] @ (np.log(p[pos]) - logpi[pos]))

    def grad(p):
        p = np.maximum(p, 1e-300)
        return k * (np.log(p) - logpi + 1.0)

    def conj(x):
        return k * _logsumexp(logpi + x / k)

    def conj_grad(x):
        z = logpi + x / k
        z -= z.max()
        w = np.exp(z)
        return w / w.sum()

    def conj_rows(Y):
        z = logpi[None, :] + Y / k
        zmax = z.max(axis=1)
        return k * (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)))

    def conj_grad_rows(Y):
        z = logpi[None, :] + Y / k
        z -= z.max(axis=1, keepdims=True)
        w = np.exp(z)
        return w / w.sum(axis=1, keepdims=True)

    def conj_hess_rows(Y):
        q = conj_grad_rows(Y)
        H = -q[:, :, None] * q[:, None, :]
        diag = np.arange(q.shape[1])
        H[:, diag, diag] += q
        return H / k

    return Entropy(
        "shannon_kl",
        prior,
        value,
        conj,
        conj_grad,
        grad,
        conj_rows_fn=conj_rows,
        conj_grad_rows_fn=conj_grad_rows,
        conj_hess_rows_fn=conj_hess_rows,
    )


def nested_shannon_entropy(encoder: Encoder, zeta: float, etas) -> Entropy:
    """Two-stage entropy over attribute nests; conjugate in closed form.

    ``zeta`` prices learning across attributes, ``etas`` (scalar or one per
    attribute) prices learning within.  The conjugate is the generalized
    nested-logit surplus; its gradient ``g = sum_i r_i q_i`` splits into a
    nest distribution r and within-nest conditionals q_i, and its Hessian is
    ``sum_i (r_i / eta_i)(diag q_i - q_i q_i^T) + (sum_i r_i q_i q_i^T - g g^T) / zeta``.
    The conjugate and its gradient serve both one vector and a matrix of
    rows; the Hessian comes row-batched.
    """
    if zeta <= 0:
        raise ValidationError("zeta must be positive")
    nu, mu, prior = encoder.nu, encoder.mu, encoder.prior
    n_attr = encoder.n_attributes
    etas = np.asarray(etas, dtype=float) * np.ones(n_attr)
    if np.any(etas <= 0):
        raise ValidationError("etas must be positive")
    zeta = float(zeta)
    lognu = np.log(nu)
    with np.errstate(divide="ignore"):
        logmu = np.log(mu)

    # the maps take one posterior-space vector (n,) or a matrix of rows
    # (m, n); nests run along the second-to-last axis of z and q
    def _inner(Y):
        """Within-nest log conditionals log q (..., A, n) and outer logits (..., A)."""
        # m_i = log sum_s mu[i,s] exp(y_s / eta_i), stabilized per nest
        z = logmu + np.asarray(Y, dtype=float)[..., None, :] / etas[:, None]
        zmax = z.max(axis=-1, keepdims=True)
        m = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
        return z - m, lognu + (etas / zeta) * m[..., 0]

    def _split(Y):
        """Nest weights r (..., A), within-nest conditionals q (..., A, n) and
        the gradient g = sum_i r_i q_i (..., n)."""
        log_q, outer = _inner(Y)
        r = np.exp(outer - outer.max(axis=-1, keepdims=True))
        r /= r.sum(axis=-1, keepdims=True)
        q = np.exp(log_q)
        return r, q, (r[..., None, :] @ q)[..., 0, :]

    def conj(Y):
        outer = _inner(Y)[1]
        omax = outer.max(axis=-1, keepdims=True)
        return zeta * (omax + np.log(np.exp(outer - omax).sum(axis=-1, keepdims=True)))[..., 0]

    def conj_grad(Y):
        return _split(Y)[2]

    def conj_hess_rows(Y):
        r, q, g = _split(Y)
        H = (q.transpose(0, 2, 1) * (r * (1.0 / zeta - 1.0 / etas))[:, None, :]) @ q
        H -= g[:, :, None] * g[:, None, :] / zeta
        diag = np.arange(g.shape[1])
        H[:, diag, diag] += ((r / etas)[:, None, :] @ q)[:, 0, :]
        return H

    def value(p):
        return _entropy_value_from_conjugate(conj, conj_grad, p, scale=float(max(zeta, etas.max())))

    return Entropy(
        "nested_shannon",
        prior,
        value,
        conj,
        conj_grad,
        None,
        conj_rows_fn=conj,
        conj_grad_rows_fn=conj_grad,
        conj_hess_rows_fn=conj_hess_rows,
    )


def _entropy_value_from_conjugate(conj, conj_grad, p, scale: float = 1.0) -> float:
    """H(p) = sup_x p.x - H*(x), solved as a smooth concave maximization.

    Translation invariance of H* pins x only up to constants; the search is
    box-limited, which truncates the supremum for boundary posteriors by a
    negligible amount.
    """
    from scipy.optimize import minimize

    p = np.asarray(p, dtype=float)
    n = p.size
    bound = 400.0 * max(1.0, scale)

    def negdual(x):
        return -(float(p @ x) - float(conj(x))), -(p - np.asarray(conj_grad(x)))

    res = minimize(
        negdual,
        np.zeros(n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(-bound, bound)] * n,
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
    )
    return max(0.0, -float(res.fun))


def neighborhood_hw_entropy(prior, neighborhoods) -> Entropy:
    """Weighted sum of within-neighborhood divergences from the conditional prior.

    ``neighborhoods`` is an iterable of ``(state_indices, weight)`` pairs;
    the conjugate has no closed form and is computed numerically, with the
    closed-form Hessian of H driving its Newton steps and the implicit
    conjugate Hessian.
    """
    prior = clean_weights(prior, "prior")
    blocks = []
    for idx, kap in neighborhoods:
        idx = tuple(int(i) for i in idx)
        if len(idx) == 0:
            raise ValidationError("empty neighborhood")
        if kap <= 0:
            raise ValidationError("neighborhood weights must be positive")
        pi_b = prior[list(idx)]
        blocks.append((np.array(idx), float(kap), pi_b / pi_b.sum()))

    def value(p):
        total = 0.0
        for idx, kap, pi_b in blocks:
            mass = float(p[idx].sum())
            if mass <= 0.0:
                continue
            cond = p[idx] / mass
            pos = cond > 0
            total += kap * mass * float(cond[pos] @ np.log(cond[pos] / pi_b[pos]))
        return total

    def grad(p):
        g = np.zeros_like(p)
        for idx, kap, pi_b in blocks:
            mass = float(p[idx].sum())
            cond = np.maximum(p[idx] / max(mass, 1e-300), 1e-300)
            g[idx] += kap * np.log(cond / pi_b)
        return g

    def hess(p):
        # each block adds kap (diag(1 / p_b) - 1 1^T / m_b), m_b its mass
        H = np.zeros((p.size, p.size))
        for idx, kap, _ in blocks:
            p_b = np.maximum(p[idx], 1e-300)
            H[np.ix_(idx, idx)] += kap * (np.diag(1.0 / p_b) - 1.0 / p_b.sum())
        return H

    def gap(x, p):
        """Stationarity gap that prices entry into empty neighborhoods.

        Mass moved into an empty neighborhood is best arranged along the
        within-block logit conditional, so the entry slope is the block's
        surplus rather than the clamped-gradient value; for states covered
        only by empty blocks the clamped gradient would overstate the slope
        and never certify a vertex optimum.
        """
        g = x - np.asarray(grad(np.maximum(p, 1e-300)), dtype=float)
        any_supported = np.zeros(p.size, dtype=bool)
        covered = np.zeros(p.size, dtype=bool)
        entries = []
        for idx, kap, pi_b in blocks:
            covered[idx] = True
            if float(p[idx].sum()) > 1e-12:
                any_supported[idx] = True
            else:
                z = x[idx] / kap
                zmax = z.max()
                entries.append(kap * (zmax + math.log(float(pi_b @ np.exp(z - zmax)))))
        include = (p > 1e-12) | any_supported | ~covered
        candidates = list(g[include]) + entries
        base = float(p[include] @ g[include])
        return max(candidates) - base

    def faces(x, p):
        """Support guesses built from the block structure and entry values."""
        n = p.size
        covered = np.zeros(n, dtype=bool)
        cands = []
        for idx, kap, pi_b in blocks:
            covered[idx] = True
            mask = np.zeros(n, dtype=bool)
            mask[idx] = True
            z = x[idx] / kap
            zmax = z.max()
            cands.append((kap * (zmax + math.log(float(pi_b @ np.exp(z - zmax)))), mask))
        for s in np.flatnonzero(~covered):
            mask = np.zeros(n, dtype=bool)
            mask[s] = True
            cands.append((float(x[s]), mask))
        if not cands:
            return []
        top = max(v for v, _ in cands)
        winners = np.zeros(n, dtype=bool)
        for v, mask in cands:
            if v >= top - 1e-9:
                winners |= mask
        return [winners, winners | (p > 1e-10), winners | (p > 1e-4)]

    return Entropy("neighborhood_hw", prior, value, None, None, grad, gap, faces, hess_fn=hess)


def numeric_entropy(prior, value_fn, grad_fn) -> Entropy:
    """User-supplied entropy; conjugate handled numerically."""
    return Entropy("numeric", clean_weights(prior, "prior"), value_fn, None, None, grad_fn)


# ---------------------------------------------------------------------------
# cost models


class CostModel:
    """Base interface: payoff-space conjugate, gradient, and primal cost."""

    family: str = "abstract"
    prior: np.ndarray
    translation_invariant: bool = False

    def f_star(self, x) -> float:
        raise NotImplementedError

    def grad_f_star(self, x) -> np.ndarray:
        raise NotImplementedError

    def primal_cost(self, rule: ChoiceRule) -> float:
        raise NotImplementedError

    # row-batched variants; families override when vectorization helps
    def f_star_rows(self, X) -> np.ndarray:
        return np.array([self.f_star(x) for x in np.asarray(X, dtype=float)])

    def grad_rows(self, X) -> np.ndarray:
        return np.array([self.grad_f_star(x) for x in np.asarray(X, dtype=float)])

    def hess_rows(self, X) -> np.ndarray | None:
        """Conjugate Hessians of the rows of X, or None without a closed form.

        A family returns either an ``(m, n)`` array, read as the diagonals of
        diagonal Hessians, or a full ``(m, n, n)`` stack.  With None the
        Newton polish falls back to finite-difference Jacobians.
        """
        return None


def conjugate_value(model: CostModel, x) -> float:
    """f*(x) on a payoff-space vector; raises on overflow, naming the state."""
    with np.errstate(over="ignore"):
        val = model.f_star(np.asarray(x, dtype=float))
    if not np.isfinite(val):
        g = np.asarray(x, dtype=float) / model.prior
        worst = int(np.argmax(np.abs(g)))
        raise OverflowError(f"conjugate overflow at state index {worst}")
    return float(val)


def conjugate_gradient(model: CostModel, x) -> np.ndarray:
    with np.errstate(over="ignore"):
        g = model.grad_f_star(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(g)):
        worst = int(np.argmax(~np.isfinite(g)))
        raise OverflowError(f"conjugate gradient overflow at state index {worst}")
    return g


def primal_cost(model: CostModel, rule: ChoiceRule) -> float:
    return model.primal_cost(rule)


class CsiszarCost(CostModel):
    """Statewise-separable cost driven by a univariate transform."""

    def __init__(self, prior, transform: Transform, family: str = "csiszar"):
        self.prior = clean_weights(prior, "prior")
        self.transform = transform
        self.family = family

    def f_star(self, x):
        return float(self.prior @ self.transform.psi(np.asarray(x, dtype=float) / self.prior))

    def grad_f_star(self, x):
        return np.asarray(
            self.transform.psi_prime(np.asarray(x, dtype=float) / self.prior), dtype=float
        )

    def f_star_rows(self, X):
        ratios = np.asarray(X, dtype=float) / self.prior[None, :]
        return np.asarray(self.transform.psi(ratios)) @ self.prior

    def grad_rows(self, X):
        ratios = np.asarray(X, dtype=float) / self.prior[None, :]
        return np.asarray(self.transform.psi_prime(ratios), dtype=float)

    def hess_rows(self, X):
        if self.transform.psi_pp is None:
            return None
        ratios = np.asarray(X, dtype=float) / self.prior[None, :]
        return np.asarray(self.transform.psi_pp(ratios), dtype=float) / self.prior[None, :]

    def divergence_spec(self):
        return divergence.csiszar_spec(self.prior, self.transform)

    def primal_cost(self, rule: ChoiceRule) -> float:
        return divergence.f_mean(self.divergence_spec(), rule.rows).value


def mutual_information_cost(prior, kappa: float = 1.0) -> CsiszarCost:
    return CsiszarCost(prior, shannon(kappa), family="mutual_information")


def chi2_cost(prior, kappa: float = 1.0) -> CsiszarCost:
    return CsiszarCost(prior, chi2(kappa), family="chi2")


def csiszar_cost(prior, transform: Transform) -> CsiszarCost:
    return CsiszarCost(prior, transform)


class PosteriorSeparableCost(CostModel):
    """Expected entropy of revealed posteriors; conjugate is translation invariant."""

    translation_invariant = True

    def __init__(self, prior, entropy: Entropy, family: str = "posterior_separable"):
        self.prior = clean_weights(prior, "prior")
        if entropy.prior.shape != self.prior.shape or np.max(np.abs(entropy.prior - self.prior)) > 1e-12:
            raise ValidationError("entropy and cost model must share the prior")
        self.entropy = entropy
        self.family = family

    def f_star(self, x):
        return self.entropy.h_star(np.asarray(x, dtype=float) / self.prior)

    def grad_f_star(self, x):
        return self.entropy.grad_h_star(np.asarray(x, dtype=float) / self.prior) / self.prior

    def f_star_rows(self, X):
        if self.entropy.conj_rows_fn is None:
            return super().f_star_rows(X)
        return self.entropy.conj_rows_fn(np.asarray(X, dtype=float) / self.prior[None, :])

    def grad_rows(self, X):
        if self.entropy.conj_grad_rows_fn is None:
            return super().grad_rows(X)
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        return self.entropy.conj_grad_rows_fn(Y) / self.prior[None, :]

    def hess_rows(self, X):
        if self.entropy.conj_hess_rows_fn is None:
            return None
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        inv = 1.0 / self.prior
        return self.entropy.conj_hess_rows_fn(Y) * inv[None, :, None] * inv[None, None, :]

    def primal_cost(self, rule: ChoiceRule) -> float:
        rows = rule.rows
        p_pi = self.prior @ rows
        total = 0.0
        for w in range(rows.shape[1]):
            if p_pi[w] <= 0.0:
                continue
            post = self.prior * rows[:, w] / p_pi[w]
            total += p_pi[w] * self.entropy.value(post)
        return total


def posterior_separable_cost(prior, entropy: Entropy) -> PosteriorSeparableCost:
    return PosteriorSeparableCost(prior, entropy)


def nested_shannon_cost(prior, encoder: Encoder, zeta: float, etas) -> PosteriorSeparableCost:
    return PosteriorSeparableCost(
        prior, nested_shannon_entropy(encoder, zeta, etas), family="nested_shannon"
    )


def neighborhood_hw_cost(prior, neighborhoods) -> PosteriorSeparableCost:
    return PosteriorSeparableCost(
        prior, neighborhood_hw_entropy(prior, neighborhoods), family="neighborhood_hw"
    )


class PerceptualCsiszarCost(CostModel):
    """Attribute-mediated cost: experiments are priced through an encoder.

    The conjugate formula requires the encoder matrix to have full column
    rank; without it the dual surface is refused and solving must go through
    the reduced attribute problem.
    """

    def __init__(self, prior, transform: Transform, encoder: Encoder):
        self.prior = clean_weights(prior, "prior")
        self.transform = transform
        self.encoder = encoder
        self.family = "perceptual_csiszar"
        if encoder.prior.shape != self.prior.shape or np.max(np.abs(encoder.prior - self.prior)) > 1e-12:
            raise ValidationError("encoder and cost model must share the prior")

    def _check_dual(self):
        if not self.encoder.full_column_rank:
            raise ValidationError(
                "perceptual conjugate requires a full-column-rank encoder; "
                "solve through the reduced attribute problem instead"
            )

    def attribute_scores(self, x) -> np.ndarray:
        """E_i[x / prior]: conditional expectations of the prior-adjusted vector."""
        return self.encoder.mu @ (np.asarray(x, dtype=float) / self.prior)

    def f_star(self, x):
        self._check_dual()
        z = self.attribute_scores(x)
        return float(self.encoder.nu @ self.transform.psi(z))

    def grad_f_star(self, x):
        self._check_dual()
        z = self.attribute_scores(x)
        return self.encoder.rows @ np.asarray(self.transform.psi_prime(z), dtype=float)

    def replicate(self, rows: np.ndarray, tol: float = 1e-8):
        """Channel Q over attributes with K . Q = rows, or None when infeasible.

        Feasibility is judged by the total L1 residual of the replication
        constraint; rows that lie outside the encoder's reach are infinitely
        costly for this family.
        """
        K = self.encoder.rows
        n_out = rows.shape[1]
        if self.encoder.full_column_rank:
            Q = np.linalg.pinv(K) @ rows
        else:
            from scipy.optimize import nnls

            Q = np.empty((self.encoder.n_attributes, n_out))
            for w in range(n_out):
                Q[:, w] = nnls(K, rows[:, w])[0]
        if Q.min() < -tol:
            return None
        Q = np.maximum(Q, 0.0)
        if float(np.abs(K @ Q - rows).sum()) > tol:
            return None
        sums = Q.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > tol:
            return None
        return Q / sums[:, None]

    def primal_cost(self, rule: ChoiceRule) -> float:
        Q = self.replicate(rule.rows)
        if Q is None:
            return math.inf
        spec = divergence.csiszar_spec(self.encoder.nu, self.transform)
        return divergence.f_mean(spec, Q).value


def perceptual_csiszar_cost(prior, transform: Transform, encoder: Encoder) -> PerceptualCsiszarCost:
    return PerceptualCsiszarCost(prior, transform, encoder)


def scale(model: CostModel, kappa: float) -> CostModel:
    """The cost kappa * I_f; conjugate kappa f*(x / kappa), implemented per family."""
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    if kappa == 1.0:
        return model
    if isinstance(model, CsiszarCost):
        return CsiszarCost(model.prior, scale_transform(model.transform, kappa), model.family)
    if isinstance(model, PerceptualCsiszarCost):
        return PerceptualCsiszarCost(
            model.prior, scale_transform(model.transform, kappa), model.encoder
        )
    if isinstance(model, PosteriorSeparableCost):
        return PosteriorSeparableCost(
            model.prior, scale_entropy(model.entropy, kappa), model.family
        )
    raise ValidationError(f"cannot scale cost family {model.family!r}")


def scale_entropy(h: Entropy, kappa: float) -> Entropy:
    k = float(kappa)
    rows, grad_rows, hess_rows = h.conj_rows_fn, h.conj_grad_rows_fn, h.conj_hess_rows_fn
    return Entropy(
        family=h.family,
        prior=h.prior,
        value_fn=lambda p: k * h.value(p),
        conj_fn=(lambda x: k * h.h_star(np.asarray(x, dtype=float) / k)),
        conj_grad_fn=(lambda x: h.grad_h_star(np.asarray(x, dtype=float) / k)),
        grad_fn=(lambda p: k * np.asarray(h.grad_fn(p), dtype=float)) if h.grad_fn else None,
        conj_rows_fn=(lambda Y: k * rows(Y / k)) if rows else None,
        conj_grad_rows_fn=(lambda Y: grad_rows(Y / k)) if grad_rows else None,
        conj_hess_rows_fn=(lambda Y: hess_rows(Y / k) / k) if hess_rows else None,
        numeric_tol=h.numeric_tol,
        numeric_cap=h.numeric_cap,
    )


__all__ = [
    "COST_FAMILIES",
    "Encoder",
    "build_encoder",
    "Entropy",
    "numeric_conjugate",
    "shannon_kl_entropy",
    "nested_shannon_entropy",
    "neighborhood_hw_entropy",
    "numeric_entropy",
    "CostModel",
    "CsiszarCost",
    "PosteriorSeparableCost",
    "PerceptualCsiszarCost",
    "mutual_information_cost",
    "chi2_cost",
    "csiszar_cost",
    "posterior_separable_cost",
    "nested_shannon_cost",
    "neighborhood_hw_cost",
    "perceptual_csiszar_cost",
    "conjugate_value",
    "conjugate_gradient",
    "primal_cost",
    "scale",
    "scale_entropy",
]
