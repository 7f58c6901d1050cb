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
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import divergence
from ._rootfind import SIMPLEX_STEPS, descend, maximize_on_simplex, newton, stationary_point
from .core import ChoiceRule, SolverError, ValidationError, clean_weights, finite_positive
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


# numeric-conjugate results kept per entropy, least recently used going
# first, and the stationarity gap that certifies one
MEMO_CAPACITY = 1024
NUMERIC_TOL = 1e-9


class _ConjugateMemo:
    """LRU map from rounded queries to ``(H*(x), argmax)``, safe across threads.

    Keys are the bytes of the query rounded at 1e-12, so the stored queries
    can be read back for the nearest-neighbour warm start.
    """

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        with self._lock:
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

    The conjugate maps are row-batched: ``conj_fn``, ``conj_grad_fn`` and
    ``conj_hess_fn`` take an ``(m, n)`` matrix of posterior-space vectors to
    ``(m,)`` values, ``(m, n)`` gradients and ``(m, n, n)`` Hessians.
    Without ``conj_fn`` and ``conj_grad_fn`` the conjugate is computed row by
    row by :func:`numeric_conjugate` to a stationarity gap of
    ``NUMERIC_TOL`` within a fixed step cap, raising ``SolverError`` past
    it; its results are kept per instance in an LRU memo of
    ``MEMO_CAPACITY`` entries keyed on the query rounded at 1e-12.  A later
    solve on the same instance reuses them and warm-starts from them, which
    may move the last bits of its result, so byte-identical output assumes
    a fresh model.
    ``gap_fn`` replaces the plain stationarity gap where H is linear along
    some directions, and ``faces_fn`` proposes support faces for the Newton
    refinement.  ``hess_fn`` is the Hessian of H itself; it gives the
    numeric conjugate exact Newton steps, and an entropy with it but no
    closed-form conjugate gets ``conj_hess_fn`` from the implicit function
    theorem.
    """

    family: str
    prior: np.ndarray
    value_fn: Callable[[np.ndarray], float]
    conj_fn: Callable[[np.ndarray], np.ndarray] | None = None
    conj_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    gap_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    faces_fn: Callable[[np.ndarray, np.ndarray], list] | None = None
    conj_hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    _memo: _ConjugateMemo = field(default_factory=_ConjugateMemo, repr=False)

    def __post_init__(self):
        if self.conj_fn is None and self.hess_fn is not None and self.conj_hess_fn is None:
            self.conj_hess_fn = lambda Y: _implicit_conj_hess(self, Y)

    def value(self, p) -> float:
        return float(self.value_fn(np.asarray(p, dtype=float)))

    def conj_rows(self, Y) -> np.ndarray:
        """H* of each row of Y: the closed form, else the numeric conjugate."""
        Y = np.asarray(Y, dtype=float)
        if self.conj_fn is not None:
            return self.conj_fn(Y)
        return np.array([numeric_conjugate(self, y)[0] for y in Y])

    def conj_grad_rows(self, Y) -> np.ndarray:
        """Gradient of H* at each row of Y, the argmax posterior of that row."""
        Y = np.asarray(Y, dtype=float)
        if self.conj_grad_fn is not None:
            return self.conj_grad_fn(Y)
        return np.array([numeric_conjugate(self, y)[1] for y in Y])

    def h_star(self, x) -> float:
        return float(self.conj_rows(np.asarray(x, dtype=float)[None, :])[0])

    def grad_h_star(self, x) -> np.ndarray:
        return self.conj_grad_rows(np.asarray(x, dtype=float)[None, :])[0]


def _implicit_conj_hess(h: Entropy, Y) -> np.ndarray:
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


def numeric_conjugate(h: Entropy, x):
    """(H*(x), argmax p) for the supremum of p.x - H(p) over the simplex.

    Certified by the simplex stationarity gap max(g) - p.g of the gradient
    g = x - dH(p), or by ``h.gap_fn``, falling below ``NUMERIC_TOL``; the
    argmax equals the conjugate gradient.  Results are memoized in
    ``h._memo`` (LRU, ``MEMO_CAPACITY`` entries).  The refinement is a
    Newton solve of the stationarity system, ``x - dH(p)`` constant on a
    face (``_rootfind.stationary_point``, exact Jacobians from ``hess_fn``),
    tried on the whole simplex, on the support and on the faces of
    ``faces_fn``.  On a miss whose prior is not already certified it starts
    from the memoized argmax of the nearest stored query (sup norm modulo
    constants).  When that fails, ``_rootfind.maximize_on_simplex`` ascends
    from the prior with the same refinement, which also finishes a point
    certified by the gap alone, so the argmax is accurate to rounding
    whichever path reached it.  Raises ``SolverError`` when the ascent's
    step cap passes without a certificate.
    """
    x = np.asarray(x, dtype=float)
    key = np.round(x, 12).tobytes()
    hit = h._memo.get(key)
    if hit is not None:
        return hit
    if h.grad_fn is None:
        raise ValidationError(f"entropy {h.family!r} has no gradient for numeric conjugation")

    def grad(p):
        return x - np.asarray(h.grad_fn(np.maximum(p, 1e-300)), dtype=float)

    def jac(p):
        return -np.asarray(h.hess_fn(np.maximum(p, 1e-300)), dtype=float)

    def gap_at(p):
        if h.gap_fn is not None:
            return float(h.gap_fn(x, p))
        g = grad(p)
        return float(g.max() - p @ g)

    def certifies(q):
        return gap_at(q) <= NUMERIC_TOL

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
            refined = stationary_point(
                grad, p, face, jac if h.hess_fn is not None else None, accept=certifies
            )
            if refined is not None and certifies(refined):
                return refined
        return None

    p = None
    start = h._memo.nearest_argmax(x)
    if start is not None and gap_at(h.prior) > NUMERIC_TOL:
        p = try_polish(start)
    if p is None:
        p, certified = maximize_on_simplex(
            lambda q: float(q @ x) - h.value(q), grad, gap_at, h.prior, tol=NUMERIC_TOL, refine=try_polish
        )
        if not certified:
            raise SolverError(
                f"numeric conjugate did not reach gap {NUMERIC_TOL:.1e} within {SIMPLEX_STEPS} steps"
            )
    out = (float(p @ x) - h.value(p), p)
    h._memo.put(key, out)
    return out


def shannon_kl_entropy(prior, kappa: float = 1.0) -> Entropy:
    """H(p) = kappa * KL(p || prior)."""
    prior = clean_weights(prior, "prior")
    k = finite_positive(kappa, "kappa")
    logpi = np.log(prior)

    def value(p):
        pos = p > 0
        return k * float(p[pos] @ (np.log(p[pos]) - logpi[pos]))

    def grad(p):
        p = np.maximum(p, 1e-300)
        return k * (np.log(p) - logpi + 1.0)

    def conj(Y):
        z = logpi[None, :] + Y / k
        zmax = z.max(axis=1)
        return k * (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)))

    def conj_grad(Y):
        z = logpi[None, :] + Y / k
        z -= z.max(axis=1, keepdims=True)
        w = np.exp(z)
        return w / w.sum(axis=1, keepdims=True)

    def conj_hess(Y):
        q = conj_grad(Y)
        H = -q[:, :, None] * q[:, None, :]
        diag = np.arange(q.shape[1])
        H[:, diag, diag] += q
        return H / k

    return Entropy("shannon_kl", prior, value, conj, conj_grad, grad, conj_hess_fn=conj_hess)


def nested_shannon_entropy(encoder: Encoder, zeta: float, etas) -> Entropy:
    """Two-stage entropy over attribute nests; conjugate in closed form.

    ``zeta`` prices learning across attributes, ``etas`` (scalar or one per
    attribute) prices learning within.  The conjugate is the generalized
    nested-logit surplus of :func:`_nested_logit`; the entropy value is its
    dual, :func:`_nested_shannon_dual`.
    """
    zeta = finite_positive(zeta, "zeta")
    etas = np.asarray(etas, dtype=float) * np.ones(encoder.n_attributes)
    if not np.all(np.isfinite(etas) & (etas > 0)):
        raise ValidationError("etas must be finite and positive")
    lognu = np.log(encoder.nu)
    with np.errstate(divide="ignore"):
        logmu = np.log(encoder.mu)
    conj, conj_grad, conj_hess = _nested_logit(lognu, logmu, etas, zeta)

    def value(p):
        return _nested_shannon_dual(lognu, logmu, etas, zeta, p)[0]

    return Entropy("nested_shannon", encoder.prior, value, conj, conj_grad, conj_hess_fn=conj_hess)


def _nested_logit(lognu, logmu, etas, zeta):
    """``(conj, conj_grad, conj_hess)`` of the nested-logit surplus.

    ``H*(y) = zeta log sum_i nu_i exp((eta_i / zeta) log sum_s mu_is exp(y_s / eta_i))``
    over nests i (rows of ``logmu``) and states s (its columns).  Its
    gradient ``g = sum_i r_i q_i`` splits into a nest distribution r and
    within-nest conditionals q_i, and its Hessian is
    ``sum_i (r_i / eta_i)(diag q_i - q_i q_i^T) + (sum_i r_i q_i q_i^T - g g^T) / zeta``.
    The conjugate and its gradient serve both one vector and a matrix of
    rows; the Hessian comes row-batched.
    """

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

    def conj_hess(Y):
        r, q, g = _split(Y)
        H = (q.transpose(0, 2, 1) * (r * (1.0 / zeta - 1.0 / etas))[:, None, :]) @ q
        H -= g[:, :, None] * g[:, None, :] / zeta
        diag = np.arange(g.shape[1])
        H[:, diag, diag] += ((r / etas)[:, None, :] @ q)[:, 0, :]
        return H

    return conj, conj_grad, conj_hess


def _nested_shannon_dual(lognu, logmu, etas, zeta, p):
    """``(H(p), x)``: the nested-Shannon entropy of a posterior and its dual point.

    The supremum of ``p.x - H*(x)`` sends x to -inf off the support of p.
    There those states carry no mass, and neither do the nests that present
    no state of the support.  So x is -inf off the support, and on it x is
    the dual point of the surplus of the remaining nests and states, from
    :func:`_entropy_value_from_conjugate`.
    """
    p = np.asarray(p, dtype=float)
    face = p > 0.0
    nests = np.isfinite(logmu[:, face]).any(axis=1)
    forms = _nested_logit(lognu[nests], logmu[np.ix_(nests, face)], etas[nests], zeta)
    value, x_face = _entropy_value_from_conjugate(*forms, p[face])
    x = np.full(p.size, -np.inf)
    x[face] = x_face
    return value, x


def _entropy_value_from_conjugate(conj, conj_grad, conj_hess, p):
    """``(H(p), x)`` for ``H(p) = sup_x p.x - H*(x)`` at a positive posterior p.

    The maximizer solves ``grad H*(x) = p``.  H* is translation invariant,
    so x is pinned to 0 at the largest coordinate of p and the other
    coordinates are solved by ``_rootfind.newton`` with the closed-form
    Hessian as Jacobian, from the dual point of a Shannon entropy with the
    curvature of H* at the origin.  When Newton misses the gradient
    residual ``1e-12``, ``_rootfind.descend`` minimizes the convex
    ``H*(x) - p.x`` from the same start and Newton finishes.
    """
    k = p.size
    pin = int(np.argmax(p))
    free = np.arange(k) != pin
    x0 = np.zeros(k)
    if k == 1:
        return max(0.0, -float(conj(x0))), x0

    def lift(z):
        x = np.zeros(k)
        x[free] = z
        return x

    def F(z):
        return (p - conj_grad(lift(z)))[free]

    def J(z):
        return -conj_hess(lift(z)[None, :])[0][np.ix_(free, free)]

    def objective(z):
        x = lift(z)
        return float(conj(x)) - float(p @ x)

    # Shannon start: for H* = kappa log sum_s pi_s exp(x_s / kappa) the dual
    # point is kappa log(p / pi), and kappa = (k - 1) / tr(diag(1 / pi) Hess)
    q0 = conj_grad(x0)
    kappa = (k - 1) / float(np.sum(np.diagonal(conj_hess(x0[None, :])[0]) / q0))
    z0 = kappa * (np.log(p) - np.log(q0))
    z0 = (z0 - z0[pin])[free]
    z, Fz = newton(F, z0, J)
    if not np.max(np.abs(Fz)) <= 1e-12:
        z, Fz = newton(F, descend(objective, F, z0, J, tol=1e-12), J)
    x = lift(z)
    return max(0.0, float(p @ x) - float(conj(x))), x


def _neighborhood_blocks(n: int, neighborhoods) -> list[tuple[tuple[int, ...], float]]:
    """Validated ``(sorted states, weight)`` blocks of a cover, repeats merged.

    Each neighborhood is a pair of distinct integer states in ``[0, n)`` and
    a finite positive weight.  Neighborhoods over the same states add their
    weights and keep the place of the first.  Raises ``ValidationError`` on
    anything else and on a cover that leaves a state out.
    """
    merged: dict[tuple[int, ...], float] = {}
    for item in neighborhoods:
        try:
            idx, kap = item
            idx = tuple(idx)
        except (TypeError, ValueError):
            raise ValidationError(f"a neighborhood is a (states, weight) pair, got {item!r}") from None
        if not idx:
            raise ValidationError("empty neighborhood")
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in idx):
            raise ValidationError(f"neighborhood {idx!r}: states must be integer indices")
        if min(idx) < 0 or max(idx) >= n:
            raise ValidationError(f"neighborhood {idx!r}: states must lie in [0, {n})")
        if len(set(idx)) != len(idx):
            raise ValidationError(f"neighborhood {idx!r} repeats a state")
        key = tuple(sorted(int(i) for i in idx))
        merged[key] = merged.get(key, 0.0) + finite_positive(kap, "neighborhood weights")
    covered = np.zeros(n, dtype=bool)
    for idx in merged:
        covered[list(idx)] = True
    if not covered.all():
        # H is linear along an uncovered state, which puts a kink in the
        # conjugate that neither the certificate nor the Newton polish handles
        raise ValidationError(
            f"neighborhoods leave state(s) {np.flatnonzero(~covered).tolist()} uncovered"
        )
    return list(merged.items())


def _two_level_nests(prior, blocks):
    """``(lognu, logmu, etas, zeta)`` of the nested-Shannon twin of a
    two-level cover, or None for any other cover.

    A two-level cover has one block of every state, weight kappa_r, and
    disjoint inner blocks b of weights kappa_b.  By the chain rule of KL its
    entropy is nested Shannon with ``zeta = kappa_r``, one nest per inner
    block (``eta_b = kappa_r + kappa_b``, ``nu_b = pi(b)``, ``mu_b`` the
    prior on b) and a one-state nest for each state no inner block holds.
    """
    n = prior.size
    roots = [kap for idx, kap in blocks if len(idx) == n]
    inner = [(list(idx), kap) for idx, kap in blocks if len(idx) < n]
    held = np.zeros(n, dtype=int)
    for idx, _ in inner:
        held[idx] += 1
    if len(roots) != 1 or held.max(initial=0) > 1:
        return None
    zeta = roots[0]
    nests = [(idx, zeta + kap) for idx, kap in inner] + [([s], zeta) for s in np.flatnonzero(held == 0)]
    mu = np.zeros((len(nests), n))
    for i, (idx, _) in enumerate(nests):
        mu[i, idx] = prior[idx]
    nu = mu.sum(axis=1)
    with np.errstate(divide="ignore"):
        logmu = np.log(mu / nu[:, None])
    return np.log(nu), logmu, np.array([eta for _, eta in nests]), zeta


def neighborhood_hw_entropy(prior, neighborhoods) -> Entropy:
    """Weighted sum of within-neighborhood divergences from the conditional prior.

    ``neighborhoods`` is an iterable of ``(state_indices, weight)`` pairs
    that together cover every state, validated by
    :func:`_neighborhood_blocks`.  A two-level cover, one neighborhood of
    every state and disjoint ones inside it, is a nested-Shannon entropy
    (:func:`_two_level_nests`), so its conjugate, gradient and Hessian are
    the nested-logit closed forms of :func:`_nested_logit`.  Any other
    cover is conjugated numerically, with the closed-form Hessian of H
    driving the Newton steps and the implicit conjugate Hessian.  Either
    way ``value_fn``, ``grad_fn`` and ``hess_fn`` are the neighborhood sums,
    computed through the block-membership matrix.
    """
    prior = clean_weights(prior, "prior")
    n = prior.size
    blocks = _neighborhood_blocks(n, neighborhoods)
    member = np.zeros((len(blocks), n), dtype=bool)
    for b, (idx, _) in enumerate(blocks):
        member[b, list(idx)] = True
    M = member.astype(float)
    kap = np.array([k for _, k in blocks])
    kap_states = kap @ M
    # log of each block's conditional prior, 0 off the block
    logpi_b = np.where(member, np.log(prior)[None, :] - np.log(M @ prior)[:, None], 0.0)
    diag = np.arange(n)

    def value(p):
        mass = M @ p
        keep = member & (p > 0)[None, :] & (mass > 0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * (np.log(p)[None, :] - np.log(mass)[:, None] - logpi_b)
        return float(kap @ np.where(keep, terms, 0.0).sum(axis=1))

    def grad(p):
        mass = np.maximum(M @ p, 1e-300)
        with np.errstate(over="ignore"):  # off-block ratios are discarded
            cond = np.maximum(p[None, :] / mass[:, None], 1e-300)
        return kap @ np.where(member, np.log(cond) - logpi_b, 0.0)

    def hess(p):
        # each block adds kap (diag(1 / p_b) - 1 1^T / m_b), m_b its mass
        p = np.maximum(p, 1e-300)
        H = -(M.T * (kap / (M @ p))) @ M
        H[diag, diag] += kap_states / p
        return H

    def surplus(x):
        """Each block's value of entry, ``kap log sum_b pi_b exp(x / kap)``."""
        z = np.where(member, x[None, :] / kap[:, None] + logpi_b, -np.inf)
        zmax = z.max(axis=1)
        return kap * (zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)))

    def gap(x, p):
        """Stationarity gap that prices entry into empty neighborhoods.

        Mass moved into an empty neighborhood is best arranged along the
        within-block logit conditional, so the entry slope is the block's
        surplus rather than the clamped-gradient value; for states covered
        only by empty blocks the clamped gradient would overstate the slope
        and never certify a vertex optimum.
        """
        g = x - grad(np.maximum(p, 1e-300))
        full = M @ p > 1e-12
        # states in a neighborhood with mass; every state with mass is one
        supported = member[full].any(axis=0)
        candidates = np.concatenate([g[supported], surplus(x)[~full]])
        return float(candidates.max() - p[supported] @ g[supported])

    def faces(x, p):
        """Support guesses built from the block structure and entry values."""
        s = surplus(x)
        winners = member[s >= s.max() - 1e-9].any(axis=0)
        return [winners, winners | (p > 1e-10), winners | (p > 1e-4)]

    nests = _two_level_nests(prior, blocks)
    conj, conj_grad, conj_hess = (None, None, None) if nests is None else _nested_logit(*nests)
    return Entropy(
        "neighborhood_hw",
        prior,
        value,
        conj_fn=conj,
        conj_grad_fn=conj_grad,
        grad_fn=grad,
        gap_fn=gap,
        faces_fn=faces,
        conj_hess_fn=conj_hess,
        hess_fn=hess,
    )


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
    # (shape, bytes of X, f* rows, gradient rows) of the last evaluate_rows
    # call; replaced whole in one assignment, so threads sharing the model
    # never read a half-written entry
    _last_rows: tuple | None = None

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

    @property
    def has_hessian(self) -> bool:
        """Whether ``hess_rows`` returns closed-form Hessians rather than None."""
        return False

    def evaluate_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(f_star_rows(X), grad_rows(X))``, kept for the last X.

        A call whose X equals the last one bit for bit returns the kept pair
        without evaluating the conjugate again, so every result is the one
        a fresh evaluation gives.
        """
        X = np.asarray(X, dtype=float)
        key = X.tobytes()
        last = self._last_rows
        if last is not None and last[0] == X.shape and last[1] == key:
            return last[2], last[3]
        v = np.asarray(self.f_star_rows(X), dtype=float)
        G = np.asarray(self.grad_rows(X), dtype=float)
        v.flags.writeable = False
        G.flags.writeable = False
        self._last_rows = (X.shape, key, v, G)
        return v, G


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


def _certified_f_mean(spec, rows) -> float:
    """Value of the f-mean of ``rows``; ``SolverError`` without a certificate."""
    result = divergence.f_mean(spec, rows)
    if not result.converged:
        raise SolverError(
            f"f-mean did not reach its stationarity gap within {SIMPLEX_STEPS} steps "
            f"(gap {result.residual:.1e})"
        )
    return result.value


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

    @property
    def has_hessian(self) -> bool:
        return self.transform.psi_pp is not None

    def hess_rows(self, X):
        if self.transform.psi_pp is None:
            return None
        ratios = np.asarray(X, dtype=float) / self.prior[None, :]
        return np.asarray(self.transform.psi_pp(ratios), dtype=float) / self.prior[None, :]

    def divergence_spec(self):
        return divergence.csiszar_spec(self.prior, self.transform)

    def primal_cost(self, rule: ChoiceRule) -> float:
        return _certified_f_mean(self.divergence_spec(), rule.rows)


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
        return self.entropy.conj_rows(np.asarray(X, dtype=float) / self.prior[None, :])

    def grad_rows(self, X):
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        return self.entropy.conj_grad_rows(Y) / self.prior[None, :]

    @property
    def has_hessian(self) -> bool:
        return self.entropy.conj_hess_fn is not None

    def hess_rows(self, X):
        if self.entropy.conj_hess_fn is None:
            return None
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        inv = 1.0 / self.prior
        return self.entropy.conj_hess_fn(Y) * inv[None, :, None] * inv[None, None, :]

    def divergence_spec(self):
        return divergence.DivergenceSpec(prior=self.prior, entropy_value=self.entropy.value)

    def primal_cost(self, rule: ChoiceRule) -> float:
        return _certified_f_mean(self.divergence_spec(), rule.rows)


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
        return _certified_f_mean(spec, Q)


def perceptual_csiszar_cost(prior, transform: Transform, encoder: Encoder) -> PerceptualCsiszarCost:
    return PerceptualCsiszarCost(prior, transform, encoder)


def scale(model: CostModel, kappa: float) -> CostModel:
    """The cost kappa * I_f; conjugate kappa f*(x / kappa), implemented per family."""
    if finite_positive(kappa, "kappa") == 1.0:
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
    k = finite_positive(kappa, "kappa")
    hess = h.conj_hess_fn
    return Entropy(
        family=h.family,
        prior=h.prior,
        value_fn=lambda p: k * h.value(p),
        conj_fn=lambda Y: k * h.conj_rows(Y / k),
        conj_grad_fn=lambda Y: h.conj_grad_rows(Y / k),
        grad_fn=(lambda p: k * np.asarray(h.grad_fn(p), dtype=float)) if h.grad_fn else None,
        conj_hess_fn=(lambda Y: hess(Y / k) / k) if hess else None,
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
