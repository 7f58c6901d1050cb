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
from functools import cache, partial
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

    The conjugate maps are row-batched.  ``conj_fn`` is one pass over an
    ``(m, n)`` matrix Y of posterior-space vectors: it returns the ``(m,)``
    values, the ``(m, n)`` gradients and a map ``w -> sum_a w_a Hess H*(Y_a)``
    that forms the ``(n, n)`` weighted sum of the row Hessians from what the
    pass computed (None without a closed form).  ``conj_hess_fn(Y, w)`` is
    that weighted sum at any Y, so no family builds one matrix per row.
    Without ``conj_fn`` the conjugate is computed row by
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
    conj_fn: Callable[[np.ndarray], tuple] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    gap_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    faces_fn: Callable[[np.ndarray, np.ndarray], list] | None = None
    conj_hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    _memo: _ConjugateMemo = field(default_factory=_ConjugateMemo, repr=False)

    def __post_init__(self):
        if self.conj_fn is None and self.hess_fn is not None and self.conj_hess_fn is None:
            self.conj_hess_fn = lambda Y, w: _implicit_conj_hess(self, Y, w)

    def value(self, p) -> float:
        return float(self.value_fn(np.asarray(p, dtype=float)))

    def conj_pass(self, Y) -> tuple:
        """``(values, gradients, hessian)`` of H* at the rows of Y in one pass:
        the closed form, else the numeric conjugate row by row, whose
        gradient is the argmax posterior of that row.  ``hessian(w)`` is the
        weighted sum of the row Hessians, or None without a closed form."""
        Y = np.asarray(Y, dtype=float)
        if self.conj_fn is not None:
            values, grads, hessian = self.conj_fn(Y)
        else:
            points = [numeric_conjugate(self, y) for y in Y]
            values = np.array([value for value, _ in points])
            grads = np.array([argmax for _, argmax in points])
            hessian = None if self.conj_hess_fn is None else partial(self.conj_hess_fn, Y)
        return values, grads, hessian

    def h_star(self, x) -> float:
        return float(self.conj_pass(np.asarray(x, dtype=float)[None, :])[0][0])

    def grad_h_star(self, x) -> np.ndarray:
        return self.conj_pass(np.asarray(x, dtype=float)[None, :])[1][0]


def _implicit_conj_hess(h: Entropy, Y, w) -> np.ndarray:
    """``sum_r w_r`` times the conjugate Hessian at row r of Y, by the implicit
    function theorem.

    At the argmax p the stationarity system ``y_f - dH(p)_f = c 1``,
    ``1.p_f = 1`` holds on the face ``f = {p > 1e-10}``; differentiating it
    gives dp_f/dy_f as the top-left block of ``[[d2H(p)_ff, 1], [1^T, 0]]^-1``.
    Coordinates off the face stay at zero, and rows of weight zero are
    skipped.
    """
    Y = np.asarray(Y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = Y.shape[1]
    out = np.zeros((n, n))
    for r in np.flatnonzero(w != 0.0):
        p = numeric_conjugate(h, Y[r])[1]
        f = np.flatnonzero(p > 1e-10)
        k = f.size
        B = np.zeros((k + 1, k + 1))
        B[:k, :k] = np.asarray(h.hess_fn(np.maximum(p, 1e-300)), dtype=float)[np.ix_(f, f)]
        B[:k, k] = 1.0
        B[k, :k] = 1.0
        # pinv: the bordered matrix is singular where H is linear on the face
        out[np.ix_(f, f)] += w[r] * np.linalg.pinv(B)[:k, :k]
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
    from the prior with the same refinement, which also tries to finish a
    point certified by the gap alone.  Whichever path reached it, the
    argmax returned has a gap of at most ``NUMERIC_TOL``; that bounds its
    error, which can exceed rounding (a gap of 1.8e-11 has been seen with
    the argmax 3.8e-12 from the closed form).  Raises ``SolverError`` when
    the ascent's step cap passes without a certificate.
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
        # one softmax q gives the logsumexp, the gradient and the Hessians
        z = logpi[None, :] + Y / k
        zmax = z.max(axis=1, keepdims=True)
        q = np.exp(z - zmax)
        total = q.sum(axis=1, keepdims=True)
        q /= total
        return k * (zmax + np.log(total))[:, 0], q, partial(softmax_hess, q)

    def softmax_hess(q, w):
        # sum_a w_a (diag q_a - q_a q_a^T) / k: one GEMM
        w = np.asarray(w, dtype=float)
        return (np.diag(w @ q) - (q * w[:, None]).T @ q) / k

    def conj_hess(Y, w):
        return conj(Y)[2](w)

    return Entropy("shannon_kl", prior, value, conj, grad, conj_hess_fn=conj_hess)


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
    conj, conj_hess = _nested_logit(lognu, logmu, etas, zeta)

    def value(p):
        return _nested_shannon_dual(lognu, logmu, etas, zeta, p)[0]

    return Entropy("nested_shannon", encoder.prior, value, conj, conj_hess_fn=conj_hess)


def _nested_logit(lognu, logmu, etas, zeta):
    """``(conj, conj_hess)`` of the nested-logit surplus, in the ``Entropy`` form.

    ``H*(y) = zeta log sum_i nu_i exp((eta_i / zeta) log sum_s mu_is exp(y_s / eta_i))``
    over nests i (rows of ``logmu``) and states s (its columns).  Its
    gradient ``g = sum_i r_i q_i`` splits into a nest distribution r and
    within-nest conditionals q_i, and its Hessian is
    ``sum_i (r_i / eta_i)(diag q_i - q_i q_i^T) + (sum_i r_i q_i q_i^T - g g^T) / zeta``.
    ``conj`` serves both one vector and a matrix of rows, and returns the
    values, the gradients and the Hessian map of the split it computed.
    ``conj_hess(Y, w)`` is the w-weighted sum of the Hessians at the rows of
    Y, a diagonal plus two GEMMs: one over every (row, nest) pair and one
    over the gradients.
    """

    # the maps take one posterior-space vector (n,) or a matrix of rows
    # (m, n); nests run along the second-to-last axis of z and q
    # per-call constants: the etas as a column, and the outer exponents
    eta_col, outer_scale = etas[:, None], etas / zeta

    def conj(Y):
        # m_i = log sum_s mu[i,s] exp(y_s / eta_i), stabilized per nest
        z = logmu + np.asarray(Y, dtype=float)[..., None, :] / eta_col
        zmax = z.max(axis=-1, keepdims=True)
        m = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
        outer = lognu + outer_scale * m[..., 0]
        omax = outer.max(axis=-1, keepdims=True)
        # nest weights r (..., A), within-nest conditionals q (..., A, n) and
        # the gradient g = sum_i r_i q_i (..., n)
        r = np.exp(outer - omax)
        total = r.sum(axis=-1, keepdims=True)
        r /= total
        q = np.exp(z - m)
        g = (r[..., None, :] @ q)[..., 0, :]
        return zeta * (omax + np.log(total))[..., 0], g, partial(split_hess, r, q, g)

    def split_hess(r, q, g, w):
        n, w = g.shape[1], np.asarray(w, dtype=float)
        wr = w[:, None] * r
        q_flat = q.reshape(-1, n)
        H = np.diag((wr / etas).reshape(-1) @ q_flat)
        H += (q_flat * (wr * (1.0 / zeta - 1.0 / etas)).reshape(-1, 1)).T @ q_flat
        H -= (g * w[:, None]).T @ g / zeta
        return H

    def conj_hess(Y, w):
        return conj(Y)[2](w)

    return conj, conj_hess


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


def _entropy_value_from_conjugate(conj, conj_hess, p):
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
        return max(0.0, -float(conj(x0)[0])), x0

    def lift(z):
        x = np.zeros(k)
        x[free] = z
        return x

    def F(z):
        return (p - conj(lift(z))[1])[free]

    def J(z):
        return -conj_hess(lift(z)[None, :], np.ones(1))[np.ix_(free, free)]

    def objective(z):
        x = lift(z)
        return float(conj(x)[0]) - float(p @ x)

    # Shannon start: for H* = kappa log sum_s pi_s exp(x_s / kappa) the dual
    # point is kappa log(p / pi), and kappa = (k - 1) / tr(diag(1 / pi) Hess)
    q0 = conj(x0)[1]
    kappa = (k - 1) / float(np.sum(np.diagonal(conj_hess(x0[None, :], np.ones(1))) / q0))
    z0 = kappa * (np.log(p) - np.log(q0))
    z0 = (z0 - z0[pin])[free]
    z, Fz = newton(F, z0, J)
    if not np.max(np.abs(Fz)) <= 1e-12:
        z, Fz = newton(F, descend(objective, F, z0, J, tol=1e-12), J)
    x = lift(z)
    return max(0.0, float(p @ x) - float(conj(x)[0])), x


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
        # plain ints, the common case, skip the ABC check; a bool is not one
        if not all(type(i) is int for i in idx) and not all(
            isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in idx
        ):
            raise ValidationError(f"neighborhood {idx!r}: states must be integer indices")
        if min(idx) < 0 or max(idx) >= n:
            raise ValidationError(f"neighborhood {idx!r}: states must lie in [0, {n})")
        if len(set(idx)) != len(idx):
            raise ValidationError(f"neighborhood {idx!r} repeats a state")
        key = tuple(sorted(map(int, idx)))
        merged[key] = merged.get(key, 0.0) + finite_positive(kap, "neighborhood weights")
    covered = set().union(*merged)
    if len(covered) < n:
        # H is linear along an uncovered state, which puts a kink in the
        # conjugate that neither the certificate nor the Newton polish handles
        raise ValidationError(
            f"neighborhoods leave state(s) {sorted(set(range(n)) - covered)} uncovered"
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
    inner = [(idx, kap) for idx, kap in blocks if len(idx) < n]
    held = [s for idx, _ in inner for s in idx]
    if len(roots) != 1 or len(set(held)) < len(held):
        return None
    zeta = roots[0]
    free = set(range(n)).difference(held)
    nests = [(idx, zeta + kap) for idx, kap in inner] + [((s,), zeta) for s in sorted(free)]
    # the (nest, state) pairs of the cover, where mu is the prior and logmu
    # is finite; logmu is -inf everywhere else
    rows = np.array([i for i, (idx, _) in enumerate(nests) for _ in idx])
    cols = np.array([s for idx, _ in nests for s in idx])
    held_prior = prior[cols]
    mu = np.zeros((len(nests), n))
    mu[rows, cols] = held_prior
    nu = mu.sum(axis=1)
    logmu = np.full(mu.shape, -np.inf)
    logmu[rows, cols] = np.log(held_prior / nu[rows])
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
    way ``value_fn``, ``grad_fn``, ``hess_fn``, ``gap_fn`` and ``faces_fn``
    are the neighborhood sums, computed through the block-membership
    matrix.  Its tables are built the first time one of them is called:
    only the multiplier box, the oracle and the numeric conjugate call
    them, and a two-level cover's solve never does.
    """
    prior = clean_weights(prior, "prior")
    n = prior.size
    blocks = _neighborhood_blocks(n, neighborhoods)

    @cache
    def tables():
        """``(member, M, kap, kap_states, logpi_b)``: block membership as
        booleans and floats, the block weights, each state's total weight,
        and the log of each block's conditional prior, 0 off the block."""
        member = np.zeros((len(blocks), n), dtype=bool)
        for b, (idx, _) in enumerate(blocks):
            member[b, list(idx)] = True
        M = member.astype(float)
        kap = np.array([k for _, k in blocks])
        logpi_b = np.where(member, np.log(prior)[None, :] - np.log(M @ prior)[:, None], 0.0)
        return member, M, kap, kap @ M, logpi_b

    def value(p):
        member, M, kap, _, logpi_b = tables()
        mass = M @ p
        keep = member & (p > 0)[None, :] & (mass > 0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * (np.log(p)[None, :] - np.log(mass)[:, None] - logpi_b)
        return float(kap @ np.where(keep, terms, 0.0).sum(axis=1))

    def grad(p):
        member, M, kap, _, logpi_b = tables()
        mass = np.maximum(M @ p, 1e-300)
        with np.errstate(over="ignore"):  # off-block ratios are discarded
            cond = np.maximum(p[None, :] / mass[:, None], 1e-300)
        return kap @ np.where(member, np.log(cond) - logpi_b, 0.0)

    def hess(p):
        # each block adds kap (diag(1 / p_b) - 1 1^T / m_b), m_b its mass
        _, M, kap, kap_states, _ = tables()
        p = np.maximum(p, 1e-300)
        H = -(M.T * (kap / (M @ p))) @ M
        H.flat[:: n + 1] += kap_states / p
        return H

    def surplus(x):
        """Each block's value of entry, ``kap log sum_b pi_b exp(x / kap)``."""
        member, _, kap, _, logpi_b = tables()
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
        member, M = tables()[:2]
        g = x - grad(np.maximum(p, 1e-300))
        full = M @ p > 1e-12
        # states in a neighborhood with mass; every state with mass is one
        supported = member[full].any(axis=0)
        candidates = np.concatenate([g[supported], surplus(x)[~full]])
        return float(candidates.max() - p[supported] @ g[supported])

    def faces(x, p):
        """Support guesses built from the block structure and entry values."""
        s = surplus(x)
        winners = tables()[0][s >= s.max() - 1e-9].any(axis=0)
        return [winners, winners | (p > 1e-10), winners | (p > 1e-4)]

    nests = _two_level_nests(prior, blocks)
    conj, conj_hess = (None, None) if nests is None else _nested_logit(*nests)
    return Entropy(
        "neighborhood_hw",
        prior,
        value,
        conj_fn=conj,
        grad_fn=grad,
        gap_fn=gap,
        faces_fn=faces,
        conj_hess_fn=conj_hess,
        hess_fn=hess,
    )


def numeric_entropy(prior, value_fn, grad_fn) -> Entropy:
    """User-supplied entropy; conjugate handled numerically."""
    return Entropy("numeric", clean_weights(prior, "prior"), value_fn, None, grad_fn)


# ---------------------------------------------------------------------------
# cost models


class CostModel:
    """Base interface: payoff-space conjugate, gradient, and primal cost."""

    family: str = "abstract"
    prior: np.ndarray
    translation_invariant: bool = False
    # (shape, bytes of X, f* rows, gradient rows, Hessian map) of the last
    # evaluate_rows call; replaced whole in one assignment, so threads sharing
    # the model never read a half-written entry
    _last_rows: tuple | None = None

    def f_star(self, x) -> float:
        raise NotImplementedError

    def grad_f_star(self, x) -> np.ndarray:
        raise NotImplementedError

    def divergence_spec(self) -> divergence.DivergenceSpec:
        raise NotImplementedError

    def primal_costs(self, rows) -> np.ndarray:
        """The information cost of each rule of a stack of rows (rules, n, m): its
        f-mean ``min_alpha D_f(P || alpha)`` under ``divergence_spec``, in one
        ``divergence.f_means`` solve.  Raises ``SolverError`` when a solve misses
        its stationarity certificate."""
        _, value, residual = divergence.f_means(self.divergence_spec(), rows)
        if not np.all(residual <= divergence.F_MEAN_TOL):
            raise SolverError(
                f"f-mean did not reach its stationarity gap within {divergence.F_MEAN_STEPS} Newton steps "
                f"(gap {np.max(residual):.1e})"
            )
        return value

    def primal_cost(self, rule: ChoiceRule) -> float:
        """``primal_costs`` of a stack of one rule."""
        return float(self.primal_costs(rule.rows[None])[0])

    # row-batched variants; families override when vectorization helps
    def f_star_rows(self, X) -> np.ndarray:
        return np.array([self.f_star(x) for x in np.asarray(X, dtype=float)])

    def grad_rows(self, X) -> np.ndarray:
        return np.array([self.grad_f_star(x) for x in np.asarray(X, dtype=float)])

    def conj_pass(self, X) -> tuple:
        """``(f_star_rows(X), grad_rows(X), hessian)`` in one pass over X, where
        ``hessian(w)`` forms ``weighted_hessian(X, w)`` from what the pass
        computed, or is None without a closed form.  Families override it to
        share that work; the results are those of the separate calls, bit
        for bit."""
        return self.f_star_rows(X), self.grad_rows(X), None

    def _hessian_at(self, X, w) -> np.ndarray | None:
        """``weighted_hessian`` computed afresh at X; None without a closed form."""
        return None

    def weighted_hessian(self, X, w) -> np.ndarray | None:
        """``sum_a w_a`` times the conjugate Hessian at row a of X, an ``(n, n)``
        matrix, or None without a closed form.

        At the X of the last ``evaluate_rows`` call it is formed from the
        intermediates that pass kept, such as a softmax; anywhere else it is
        computed afresh, with the same result.  With None the Newton solves
        fall back to finite-difference Jacobians.
        """
        X = np.asarray(X, dtype=float)
        last = self._last_rows
        if last is not None and last[4] is not None and last[0] == X.shape and last[1] == X.tobytes():
            return last[4](w)
        return self._hessian_at(X, w)

    @property
    def has_hessian(self) -> bool:
        """Whether ``weighted_hessian`` returns closed-form Hessians rather than None."""
        return False

    def evaluate_rows(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(f_star_rows(X), grad_rows(X))`` from one ``conj_pass``,
        kept for the last X together with the pass's Hessian map.

        A call whose X equals the last one bit for bit returns the kept pair
        without evaluating the conjugate again, so every result is the one
        a fresh evaluation gives.
        """
        X = np.asarray(X, dtype=float)
        key = X.tobytes()
        last = self._last_rows
        if last is not None and last[0] == X.shape and last[1] == key:
            return last[2], last[3]
        v, G, hessian = self.conj_pass(X)
        v, G = np.asarray(v, dtype=float), np.asarray(G, dtype=float)
        v.flags.writeable = False
        G.flags.writeable = False
        self._last_rows = (X.shape, key, v, G, hessian)
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


# The Hessian maps that evaluate_rows keeps in ``_last_rows`` are partials of
# these module functions, not of bound methods: a map that held its model
# would make a reference cycle, and every model would then wait for the
# cyclic collector to be freed.
def _diagonal_hessian(psi_pp, prior, ratios, w):
    """Weighted Csiszar Hessian: each row's is diagonal, ``psi''(x / pi) / pi``."""
    return np.diag(w @ (np.asarray(psi_pp(ratios), dtype=float) / prior[None, :]))


def _payoff_hessian(prior, hessian, w):
    """The entropy's weighted Hessian ``hessian(w)``, scaled by 1/pi on both sides."""
    inv = 1.0 / prior
    return hessian(w) * inv[:, None] * inv[None, :]


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

    def conj_pass(self, X):
        ratios = np.asarray(X, dtype=float) / self.prior[None, :]
        psi_pp = self.transform.psi_pp
        hessian = None if psi_pp is None else partial(_diagonal_hessian, psi_pp, self.prior, ratios)
        return (
            np.asarray(self.transform.psi(ratios)) @ self.prior,
            np.asarray(self.transform.psi_prime(ratios), dtype=float),
            hessian,
        )

    @property
    def has_hessian(self) -> bool:
        return self.transform.psi_pp is not None

    def _hessian_at(self, X, w):
        if self.transform.psi_pp is None:
            return None
        return _diagonal_hessian(self.transform.psi_pp, self.prior, np.asarray(X, dtype=float) / self.prior[None, :], w)

    def divergence_spec(self):
        return divergence.csiszar_spec(self.prior, self.transform)


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

    @classmethod
    def _on_entropy_prior(cls, entropy: Entropy, family: str) -> "PosteriorSeparableCost":
        """The model whose prior is the entropy's own array, which the
        entropy's factory cleaned, so it is neither cleaned nor compared
        again."""
        model = cls.__new__(cls)
        model.prior, model.entropy, model.family = entropy.prior, entropy, family
        return model

    def f_star(self, x):
        return self.entropy.h_star(np.asarray(x, dtype=float) / self.prior)

    def grad_f_star(self, x):
        return self.entropy.grad_h_star(np.asarray(x, dtype=float) / self.prior) / self.prior

    def f_star_rows(self, X):
        return self.entropy.conj_pass(np.asarray(X, dtype=float) / self.prior[None, :])[0]

    def grad_rows(self, X):
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        return self.entropy.conj_pass(Y)[1] / self.prior[None, :]

    def conj_pass(self, X):
        # f*(x) = H*(x / pi): the gradients are the entropy's over pi
        values, grads, hessian = self.entropy.conj_pass(np.asarray(X, dtype=float) / self.prior[None, :])
        return values, grads / self.prior[None, :], None if hessian is None else partial(_payoff_hessian, self.prior, hessian)

    @property
    def has_hessian(self) -> bool:
        return self.entropy.conj_hess_fn is not None

    def _hessian_at(self, X, w):
        if self.entropy.conj_hess_fn is None:
            return None
        Y = np.asarray(X, dtype=float) / self.prior[None, :]
        return _payoff_hessian(self.prior, partial(self.entropy.conj_hess_fn, Y), w)

    def divergence_spec(self):
        return divergence.DivergenceSpec(prior=self.prior, entropy_value=self.entropy.value)


def posterior_separable_cost(prior, entropy: Entropy) -> PosteriorSeparableCost:
    return PosteriorSeparableCost(prior, entropy)


def nested_shannon_cost(prior, encoder: Encoder, zeta: float, etas) -> PosteriorSeparableCost:
    return PosteriorSeparableCost(
        prior, nested_shannon_entropy(encoder, zeta, etas), family="nested_shannon"
    )


def neighborhood_hw_cost(prior, neighborhoods) -> PosteriorSeparableCost:
    # the entropy cleans the prior, and the model takes that array as it is
    entropy = neighborhood_hw_entropy(prior, neighborhoods)
    return PosteriorSeparableCost._on_entropy_prior(entropy, "neighborhood_hw")


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

    def divergence_spec(self):
        return divergence.csiszar_spec(self.encoder.nu, self.transform)

    def replicate(self, rows: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
        """Channels Q over attributes with K . Q = rows, one per rule of a stack
        (rules, n, m), and a mask of the rules that have one.

        Feasibility is judged by the total L1 residual of the replication
        constraint; rules that lie outside the encoder's reach are infinitely
        costly for this family.
        """
        K = self.encoder.rows
        if self.encoder.full_column_rank:
            Q = np.linalg.pinv(K) @ rows
        else:
            from scipy.optimize import nnls

            Q = np.array([[nnls(K, col)[0] for col in rule.T] for rule in rows]).transpose(0, 2, 1)
        ok = Q.min(axis=(1, 2)) >= -tol
        Q = np.maximum(Q, 0.0)
        ok &= np.abs(K @ Q - rows).sum(axis=(1, 2)) <= tol
        sums = Q.sum(axis=2)
        ok &= np.abs(sums - 1.0).max(axis=1) <= tol
        return Q / np.where(ok[:, None], sums, 1.0)[..., None], ok

    def primal_costs(self, rows) -> np.ndarray:
        """The base cost of each rule's attribute channel, ``inf`` where the
        encoder cannot replicate the rule."""
        Q, ok = self.replicate(np.asarray(rows, dtype=float))
        out = np.full(len(Q), math.inf)
        if ok.any():
            out[ok] = super().primal_costs(Q[ok])
        return out


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

    def conj(Y):
        values, grads, hessian = h.conj_pass(Y / k)
        return k * values, grads, (lambda w: hessian(w) / k) if hessian else None

    return Entropy(
        family=h.family,
        prior=h.prior,
        value_fn=lambda p: k * h.value(p),
        conj_fn=conj,
        grad_fn=(lambda p: k * np.asarray(h.grad_fn(p), dtype=float)) if h.grad_fn else None,
        conj_hess_fn=(lambda Y, w: hess(Y / k, w) / k) if hess else None,
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
