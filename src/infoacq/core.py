"""Finite decision problems, probability kernels, and state-symmetry detection.

All types are immutable values after validation and safe to share read-only
across parallel workers.  Labels exist for I/O and reporting; numerical code
works with the dense index order fixed at validation time.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIMPLEX_SUM_TOL = 1e-12
SIMPLEX_NEG_CLIP = -1e-14
PAYOFF_EQ_TOL = 1e-9
SUPPORT_TOL = 1e-9


class ValidationError(ValueError):
    """An input object violates a structural invariant."""


class SolverError(RuntimeError):
    """A solve or an inner maximization failed to reach its certificate."""


def clean_weights(weights, what: str = "distribution") -> np.ndarray:
    """Validate a probability vector: entries >= -1e-14, sum within 1e-12 of 1.

    Small negatives are clipped to zero and the vector is renormalized, so the
    returned array sums to one exactly (up to final rounding).
    """
    arr = np.array(weights, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{what}: expected a non-empty vector of weights")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what}: non-finite weight")
    low = arr.min()
    if low < SIMPLEX_NEG_CLIP:
        raise ValidationError(f"{what}: negative weight {low:.3g}")
    if low < 0.0:
        arr[arr < 0.0] = 0.0
    total = arr.sum()
    if abs(total - 1.0) > SIMPLEX_SUM_TOL:
        raise ValidationError(f"{what}: weights sum to {total:.17g}, not 1")
    return arr / total


def _clean_rows(arr: np.ndarray, what: str, labels) -> np.ndarray:
    """``clean_weights`` of every row of a 2-D array, row ``i`` named
    ``labels[i]`` in errors.

    The rows are checked together and, when all pass, cleaned with the same
    arithmetic as one ``clean_weights`` call per row, so the result is the
    same to the bit.  When any row fails, or there are none, the rows go
    through ``clean_weights`` one at a time, so the error names the first
    bad row.
    """
    if arr.size and np.isfinite(arr).all() and arr.min() >= SIMPLEX_NEG_CLIP:
        # C order, so each row sums in the order of a one-row sum
        arr = np.ascontiguousarray(np.where(arr < 0.0, 0.0, arr))
        totals = arr.sum(axis=1)
        if np.all(np.abs(totals - 1.0) <= SIMPLEX_SUM_TOL):
            return arr / totals[:, None]
    return np.vstack([clean_weights(arr[i], f"{what} row {labels[i]!r}") for i in range(len(labels))])


def finite_positive(value, what: str) -> float:
    """``value`` as a float; a ValidationError unless it is a finite positive number."""
    # a plain float, the common case, skips the ABC check
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and math.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be finite and positive, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Simplex:
    """A probability vector over a finite, ordered label set."""

    labels: tuple[str, ...]
    weights: np.ndarray

    @classmethod
    def build(cls, labels, weights, what: str = "simplex") -> "Simplex":
        labels = tuple(str(x) for x in labels)
        arr = clean_weights(weights, what)
        if len(labels) != arr.size:
            raise ValidationError(
                f"{what}: {len(labels)} labels but {arr.size} weights"
            )
        arr.flags.writeable = False
        return cls(labels, arr)

    def prob(self, label: str) -> float:
        return float(self.weights[self.labels.index(label)])


@dataclass(frozen=True)
class DecisionProblem:
    """A full-support prior over states plus actions given by payoff vectors.

    ``payoffs`` has shape ``(n_actions, n_states)``: ``payoffs[a, s]`` is the
    utility of action ``a`` in state ``s``, in payoff units.
    """

    states: tuple[str, ...]
    prior: np.ndarray
    action_names: tuple[str, ...]
    payoffs: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def payoff_prior(self) -> np.ndarray:
        """Read-only ``payoffs * prior``, the payoff-space arguments at a zero
        multiplier; formed on first read and kept."""
        out = self.payoffs * self.prior[None, :]
        out.flags.writeable = False
        return out

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    def payoff_bound(self) -> float:
        return float(np.abs(self.payoffs).max())

    def action_payoffs(self, name: str) -> np.ndarray:
        return self.payoffs[self.action_names.index(name)]


def validate_problem(states, prior, actions) -> DecisionProblem:
    """Build a checked ``DecisionProblem``.

    ``actions`` is an iterable of ``(name, payoff_vector)`` pairs.  Errors:
    empty state or action set, prior without full support, or a payoff vector
    whose length does not match the number of states.
    """
    states = tuple(str(s) for s in states)
    if not states:
        raise ValidationError("empty state set")
    if len(set(states)) != len(states):
        raise ValidationError("duplicate state labels")
    pri = clean_weights(prior, "prior")
    if pri.size != len(states):
        raise ValidationError(
            f"prior has {pri.size} entries for {len(states)} states"
        )
    if pri.min() <= 0.0:
        raise ValidationError("prior: full support violated (zero-probability state)")
    actions = list(actions)
    if not actions:
        raise ValidationError("empty action set")
    names = []
    rows = []
    for name, vec in actions:
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (len(states),):
            raise ValidationError(
                f"action {name!r}: shape mismatch, {arr.size} payoffs for "
                f"{len(states)} states"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"action {name!r}: non-finite payoff")
        names.append(str(name))
        rows.append(arr)
    if len(set(names)) != len(names):
        raise ValidationError("duplicate action names")
    payoffs = np.array(rows, dtype=float)
    pri.flags.writeable = False
    payoffs.flags.writeable = False
    return DecisionProblem(states, pri, tuple(names), payoffs)


@dataclass(frozen=True)
class Kernel:
    """A Markov kernel: one probability row over targets per source label."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    rows: np.ndarray

    @classmethod
    def build(cls, source, target, rows, what: str = "kernel") -> "Kernel":
        source = tuple(str(s) for s in source)
        target = tuple(str(t) for t in target)
        arr = np.array(rows, dtype=float)
        if arr.shape != (len(source), len(target)):
            raise ValidationError(
                f"{what}: rows have shape {arr.shape}, expected "
                f"({len(source)}, {len(target)})"
            )
        cleaned = _clean_rows(arr, what, source)
        cleaned.flags.writeable = False
        return cls(source, target, cleaned)


def apply_garbling(k: Kernel, p: Kernel) -> Kernel:
    """Compose experiment ``p`` with noise kernel ``k``: row_s = sum_w p[s,w] k[w,:]."""
    if k.source != p.target:
        raise ValidationError(
            "label mismatch: garbling source labels must equal experiment targets"
        )
    return Kernel.build(p.source, k.target, p.rows @ k.rows, "garbled kernel")


@dataclass(frozen=True)
class ChoiceRule:
    """A Markov kernel from states to actions, tied to its decision problem."""

    problem: DecisionProblem
    rows: np.ndarray

    @classmethod
    def build(cls, problem: DecisionProblem, rows, what: str = "choice rule") -> "ChoiceRule":
        arr = np.array(rows, dtype=float)
        if arr.shape != (problem.n_states, problem.n_actions):
            raise ValidationError(
                f"{what}: rows have shape {arr.shape}, expected "
                f"({problem.n_states}, {problem.n_actions})"
            )
        cleaned = _clean_rows(arr, what, problem.states)
        cleaned.flags.writeable = False
        return cls(problem, cleaned)

    @classmethod
    def _from_normalized(cls, problem: DecisionProblem, rows: np.ndarray) -> "ChoiceRule":
        """The rule ``build`` makes of rows of the right shape that are finite,
        non-negative and normalized up to rounding, without checking them
        again: the rows are divided by their sums, summed in C order, with
        the arithmetic of ``_clean_rows``, so the result is the same to the bit."""
        arr = np.ascontiguousarray(rows)
        cleaned = arr / arr.sum(axis=1)[:, None]
        cleaned.flags.writeable = False
        return cls(problem, cleaned)

    @property
    def unconditional(self) -> np.ndarray:
        """P_pi(a) = sum_s prior(s) * rows[s, a]."""
        return self.problem.prior @ self.rows

    def expected_payoff(self) -> float:
        per_state = np.einsum("sa,as->s", self.rows, self.problem.payoffs)
        return float(self.problem.prior @ per_state)

    def posterior(self, action_index: int) -> np.ndarray:
        """Revealed posterior over states after choosing the given action."""
        mass = self.unconditional[action_index]
        if mass <= 0.0:
            raise ValidationError("posterior undefined for a never-chosen action")
        return self.problem.prior * self.rows[:, action_index] / mass

    def support(self, tol: float = SUPPORT_TOL) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.unconditional > tol))


def unconditional_distribution(rule, prior) -> Simplex:
    """Mix the rows of a rule (or kernel) through a prior over its sources."""
    if isinstance(rule, ChoiceRule):
        rows = rule.rows
        targets = rule.problem.action_names
    elif isinstance(rule, Kernel):
        rows = rule.rows
        targets = rule.target
    else:
        raise ValidationError("expected a ChoiceRule or Kernel")
    pri = prior.weights if isinstance(prior, Simplex) else clean_weights(prior, "prior")
    if pri.size != rows.shape[0]:
        raise ValidationError("index mismatch: prior and rule use different state sets")
    return Simplex.build(targets, pri @ rows, "unconditional distribution")


def _match_actions(permuted: np.ndarray, payoffs: np.ndarray, tol: float):
    """Bijection sigma with payoffs[sigma[a]] == permuted[a] within tol, or None."""
    from scipy.optimize import linear_sum_assignment

    m = payoffs.shape[0]
    dist = np.abs(permuted[:, None, :] - payoffs[None, :, :]).max(axis=2)
    row, col = linear_sum_assignment(dist)
    if dist[row, col].max() > tol:
        return None
    sigma = np.empty(m, dtype=int)
    sigma[row] = col
    return tuple(int(x) for x in sigma)


def detect_symmetries(
    problem: DecisionProblem,
    payoff_tol: float = PAYOFF_EQ_TOL,
    max_states: int = 8,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All state permutations fixing the prior and mapping the action set to itself.

    Returns ``(g, sigma)`` pairs: ``g`` maps state index i to g[i], and
    ``sigma[a]`` is the action whose payoff vector equals action ``a``
    permuted through ``g``.  The identity pair is always present.  For state
    spaces larger than ``max_states`` the exhaustive search is skipped and
    only the identity is returned (a valid, if conservative, answer).
    """
    n = problem.n_states
    identity = (tuple(range(n)), tuple(range(problem.n_actions)))
    if n > max_states:
        return [identity]
    out = []
    prior = problem.prior
    for g in itertools.permutations(range(n)):
        gl = list(g)
        if not np.allclose(prior[gl], prior, rtol=0.0, atol=1e-12):
            continue
        sigma = _match_actions(problem.payoffs[:, gl], problem.payoffs, payoff_tol)
        if sigma is not None:
            out.append((g, sigma))
    assert identity in out
    return out


def normalize_binary(problem: DecisionProblem) -> DecisionProblem:
    """Rewrite a two-action problem so the second action pays zero everywhere.

    The first action's payoffs become the difference of the original two;
    optimal rules of the two problems correspond one-to-one.
    """
    if problem.n_actions != 2:
        raise ValidationError("not a binary problem")
    risky = problem.payoffs[0] - problem.payoffs[1]
    safe = np.zeros(problem.n_states)
    return validate_problem(
        problem.states,
        problem.prior,
        [(problem.action_names[0], risky), (problem.action_names[1], safe)],
    )
