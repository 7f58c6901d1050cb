"""Builders for the stock decision problems used across applications and tests."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import DecisionProblem, Kernel, ValidationError, validate_problem
from .costs import Encoder, build_encoder


def guess_the_state(n: int, w: float, m: int = 1, prior=None) -> DecisionProblem:
    """n equally likely states; action i pays w on a block of m states around i.

    With m = 1 each action is a bet on one state; with m = n - 1 a bet
    against one state; in between, the winning blocks wrap around a circle.
    """
    if not (1 <= m < n):
        raise ValidationError("need 1 <= m < n")
    states = [f"s{i}" for i in range(n)]
    prior = np.full(n, 1.0 / n) if prior is None else prior
    actions = []
    for i in range(n):
        pay = np.zeros(n)
        for j in range(m):
            pay[(i + j) % n] = w
        actions.append((f"bet{i}", pay))
    return validate_problem(states, prior, actions)


def guess_with_outside_option(n: int, w: float, c: float) -> DecisionProblem:
    """Guess-the-state plus a safe action paying c in every state."""
    base = guess_the_state(n, w)
    actions = list(zip(base.action_names, base.payoffs)) + [("safe", np.full(n, float(c)))]
    return validate_problem(base.states, base.prior, actions)


def irreducible_problem(d, max_states: int = 120) -> DecisionProblem:
    """States are the distinct permutations of the payoff vector d (uniform prior).

    Action i pays coordinate i of the state; every state offers the same
    multiset of payoffs, so the problem is fully exchangeable.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    perms = sorted(set(itertools.permutations(range(n))), key=lambda g: [d[i] for i in g])
    seen = {}
    for g in perms:
        key = tuple(round(float(d[i]), 12) for i in g)
        if key not in seen:
            seen[key] = key
    states = list(seen)
    if len(states) > max_states:
        raise ValidationError(f"{len(states)} permutation states exceeds the cap {max_states}")
    payoff_rows = np.array(states)  # (n_states, n) with entry [s, i] = payoff of action i
    actions = [(f"a{i}", payoff_rows[:, i]) for i in range(n)]
    labels = ["(" + ",".join(f"{x:g}" for x in s) + ")" for s in states]
    prior = np.full(len(states), 1.0 / len(states))
    return validate_problem(labels, prior, actions)


def exchangeable_problem(values, n_actions: int) -> DecisionProblem:
    """Product state space over the given coordinate values, uniform prior."""
    grid = list(itertools.product([float(v) for v in values], repeat=n_actions))
    labels = ["(" + ",".join(f"{x:g}" for x in s) + ")" for s in grid]
    payoff_rows = np.array(grid)
    actions = [(f"a{i}", payoff_rows[:, i]) for i in range(n_actions)]
    prior = np.full(len(grid), 1.0 / len(grid))
    return validate_problem(labels, prior, actions)


def epsilon_split_vector(d, i: int, j: int, eps: float) -> np.ndarray:
    d = np.asarray(d, dtype=float).copy()
    if abs(d[i] - d[j]) > 1e-12:
        raise ValidationError("split dimensions must carry equal payoffs")
    d[i] += eps
    d[j] -= eps
    return d


def one_dim_binary(thetas, risky_payoffs, prior=None) -> DecisionProblem:
    """Ordered one-dimensional states; a risky action against a zero-payoff safe one."""
    thetas = np.asarray(thetas, dtype=float)
    if np.any(np.diff(thetas) <= 0):
        raise ValidationError("states must be strictly increasing")
    r = np.asarray(risky_payoffs, dtype=float)
    if np.any(np.diff(r) < 0):
        raise ValidationError("risky payoffs must be nondecreasing in the state")
    n = thetas.size
    labels = [f"{t:g}" for t in thetas]
    prior = np.full(n, 1.0 / n) if prior is None else prior
    return validate_problem(labels, prior, [("risky", r), ("safe", np.zeros(n))])


def distance_encoder(thetas, gamma, prior=None) -> Encoder:
    """Row-normalized similarity kernel K[s, i] = gamma(|theta_s - theta_i|) / norm."""
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    prior = np.full(n, 1.0 / n) if prior is None else np.asarray(prior, dtype=float)
    raw = np.array([[float(gamma(abs(s - t))) for t in thetas] for s in thetas])
    rows = raw / raw.sum(axis=1, keepdims=True)
    return build_encoder(rows, prior, [f"{t:g}" for t in thetas])


def mixture_encoder(xi, chi, weights, prior=None) -> Encoder:
    """K[s] = weight_s * xi + (1 - weight_s) * chi for two fixed attribute modes."""
    xi = np.asarray(xi, dtype=float)
    chi = np.asarray(chi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    prior = np.full(n, 1.0 / n) if prior is None else np.asarray(prior, dtype=float)
    rows = weights[:, None] * xi[None, :] + (1.0 - weights[:, None]) * chi[None, :]
    return build_encoder(rows, prior, [f"i{j}" for j in range(xi.size)])


MULTITASK_STATES = ("ul", "ur", "dl", "dr")
MULTITASK_EVENTS = {
    "U": ("ul", "ur"),
    "D": ("dl", "dr"),
    "L": ("ul", "dl"),
    "R": ("ur", "dr"),
}


@functools.cache
def multitask_problems() -> tuple[DecisionProblem, DecisionProblem, DecisionProblem]:
    """Three binary bets on a uniform four-state grid: rows, columns, diagonals.

    Built once: every call returns the same three problems, which are frozen
    and hold read-only arrays."""
    states = MULTITASK_STATES
    prior = np.full(4, 0.25)

    def indicator(event):
        return np.array([1.0 if s in event else 0.0 for s in states])

    p1 = validate_problem(
        states, prior, [("up", indicator(MULTITASK_EVENTS["U"])), ("down", indicator(MULTITASK_EVENTS["D"]))]
    )
    p2 = validate_problem(
        states, prior, [("left", indicator(MULTITASK_EVENTS["L"])), ("right", indicator(MULTITASK_EVENTS["R"]))]
    )
    p3 = validate_problem(
        states,
        prior,
        [("diag", indicator(("ul", "dr"))), ("off", indicator(("ur", "dl")))],
    )
    return p1, p2, p3


def multitask_encoder() -> Encoder:
    """Attribute space {U, D, L, R} with conditionals uniform on each event."""
    states = MULTITASK_STATES
    prior = np.full(4, 0.25)
    rows = np.zeros((4, 4))
    attrs = tuple(MULTITASK_EVENTS)
    for j, attr in enumerate(attrs):
        for s_name in MULTITASK_EVENTS[attr]:
            rows[states.index(s_name), j] = 0.5
    return build_encoder(rows, prior, attrs)


def random_problem(rng, n_states: int, n_actions: int, prior_floor: float = 0.05) -> DecisionProblem:
    """Payoffs uniform on [-1, 1]; prior drawn from the simplex interior.

    The prior is uniform on the part of the simplex where every coordinate
    reaches ``prior_floor``, which requires ``prior_floor * n_states < 1``.
    Uniform draws are rejected until one lands there, unless a draw lands
    there with probability ``(1 - n_states prior_floor) ** (n_states - 1)``
    below 1e-4; then the prior is ``prior_floor`` plus
    ``1 - n_states prior_floor`` times a uniform draw, which has the same law.
    """
    if prior_floor * n_states >= 1.0:
        raise ValidationError(
            f"prior_floor {prior_floor:g} is infeasible for {n_states} states: "
            "the floor times the state count must stay below 1"
        )
    spare = 1.0 - n_states * prior_floor
    if spare ** (n_states - 1) < 1e-4:
        prior = prior_floor + spare * rng.dirichlet(np.ones(n_states))
    else:
        while True:
            prior = rng.dirichlet(np.ones(n_states))
            if prior.min() >= prior_floor:
                break
    payoffs = rng.uniform(-1.0, 1.0, size=(n_actions, n_states))
    states = [f"s{i}" for i in range(n_states)]
    actions = [(f"a{j}", payoffs[j]) for j in range(n_actions)]
    return validate_problem(states, prior, actions)


def random_kernel(rng, n_source: int, n_target: int) -> Kernel:
    rows = rng.dirichlet(np.ones(n_target), size=n_source)
    return Kernel.build(
        [f"s{i}" for i in range(n_source)], [f"t{j}" for j in range(n_target)], rows
    )


__all__ = [
    "guess_the_state",
    "guess_with_outside_option",
    "irreducible_problem",
    "exchangeable_problem",
    "epsilon_split_vector",
    "one_dim_binary",
    "distance_encoder",
    "mixture_encoder",
    "multitask_problems",
    "multitask_encoder",
    "random_problem",
    "random_kernel",
    "MULTITASK_STATES",
    "MULTITASK_EVENTS",
]
