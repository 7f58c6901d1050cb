"""File formats: problems, costs, transforms, options, solutions.

All files are JSON.  Numbers are emitted with 17 significant digits so that
every value round-trips exactly and re-serialization is byte-stable.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import DecisionProblem, ValidationError, validate_problem
from .costs import (
    COST_FAMILIES,
    CostModel,
    build_encoder,
    chi2_cost,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    nested_shannon_cost,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    scale,
    shannon_kl_entropy,
)
from .solver import SolveOptions, Solution
from .transform import Transform, chi2, shannon, shift_transform, tabulated


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2).lstrip()}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v).lstrip() for v in seq) + "]"
        items = [f"{pad}  {dumps(v, indent + 2).lstrip()}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    return json.dumps(obj)


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# problems


def problem_from_dict(data: dict) -> DecisionProblem:
    try:
        states = data["states"]
        prior = data["prior"]
        actions = [(a["name"], a["payoffs"]) for a in data["actions"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"problem file: missing field {exc}") from exc
    return validate_problem(states, prior, actions)


def problem_to_dict(problem: DecisionProblem) -> dict:
    return {
        "states": list(problem.states),
        "prior": problem.prior.tolist(),
        "actions": [
            {"name": name, "payoffs": problem.payoffs[i].tolist()}
            for i, name in enumerate(problem.action_names)
        ],
    }


def load_problem(path: str) -> DecisionProblem:
    return problem_from_dict(load_json(path))


def dump_problem(problem: DecisionProblem, path: str) -> None:
    write_text(path, dumps(problem_to_dict(problem)) + "\n")


# ---------------------------------------------------------------------------
# transforms and costs


def _field(data: dict, key: str, where: str):
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{where}: missing field {key!r}") from exc


def _number(value, key: str, where: str) -> float:
    # a JSON number only: bool is an int subclass, but true/false is no number
    # in an input file, and neither is a numeric string such as "2"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValidationError(f"{where}: field {key!r} must be a number, got {value!r}")


def _integer(value, key: str, where: str) -> int:
    x = _number(value, key, where)
    if x.is_integer():
        return int(x)
    raise ValidationError(f"{where}: field {key!r} must be an integer, got {value!r}")


def transform_from_dict(data: dict) -> Transform:
    if not isinstance(data, dict):
        raise ValidationError("transform: expected a JSON object")
    family = data.get("family")
    if family == "shannon":
        return shannon(_number(data.get("kappa", 1.0), "kappa", "shannon transform"))
    if family == "chi2":
        return chi2(_number(data.get("kappa", 1.0), "kappa", "chi2 transform"))
    if family == "tabulated":
        return tabulated(_field(data, "psi_prime", "tabulated transform"))
    raise ValidationError(
        f"unknown transform family {family!r}; valid: shannon, chi2, tabulated"
    )


def _maybe_shift(t: Transform, data: dict, where: str) -> Transform:
    if data.get("shift") is not None:
        return shift_transform(t, _number(data["shift"], "shift", where))
    return t


def cost_from_dict(data: dict, problem: DecisionProblem) -> CostModel:
    if not isinstance(data, dict):
        raise ValidationError("cost file: expected a JSON object")
    family = data.get("family")
    if family not in COST_FAMILIES:
        raise ValidationError(
            f"unknown cost family {family!r}; valid families: " + ", ".join(COST_FAMILIES)
        )
    prior = problem.prior
    where = f"{family} cost"
    kappa = _number(data.get("kappa", 1.0), "kappa", where)
    if family == "mutual_information":
        return mutual_information_cost(prior, kappa)
    if family == "chi2":
        return chi2_cost(prior, kappa)
    if family == "csiszar":
        t = _maybe_shift(transform_from_dict(_field(data, "transform", where)), data, where)
        return scale(csiszar_cost(prior, t), kappa)
    if family == "posterior_separable":
        ent = data.get("entropy", {"family": "shannon_kl"})
        if not isinstance(ent, dict) or ent.get("family") != "shannon_kl":
            raise ValidationError("posterior_separable costs take a shannon_kl entropy here")
        return posterior_separable_cost(
            prior, shannon_kl_entropy(prior, _number(ent.get("kappa", 1.0), "kappa", "entropy") * kappa)
        )
    if family == "perceptual_csiszar":
        t = _maybe_shift(transform_from_dict(_field(data, "transform", where)), data, where)
        enc = encoder_from_dict(_field(data, "encoder", where), problem)
        return scale(perceptual_csiszar_cost(prior, t, enc), kappa)
    if family == "nested_shannon":
        enc = encoder_from_dict(_field(data, "encoder", where), problem)
        zeta = _number(_field(data, "zeta", where), "zeta", where)
        etas = data.get("etas", 1.0)
        return scale(nested_shannon_cost(prior, enc, zeta, etas), kappa)
    if family == "neighborhood_hw":
        index = {s: i for i, s in enumerate(problem.states)}
        hoods = []
        for item in _field(data, "neighborhoods", where):
            names = _field(item, "states", "neighborhood")
            unknown = [s for s in names if s not in index]
            if unknown:
                raise ValidationError(
                    f"neighborhood names unknown state(s) {unknown}; problem states: {list(problem.states)}"
                )
            hoods.append(([index[s] for s in names], _number(item.get("kappa", 1.0), "kappa", "neighborhood")))
        return scale(neighborhood_hw_cost(prior, hoods), kappa)
    raise AssertionError("unreachable")


def encoder_from_dict(data: dict, problem: DecisionProblem):
    return build_encoder(_field(data, "rows", "encoder"), problem.prior, data.get("attributes"))


def load_cost(path: str, problem: DecisionProblem) -> CostModel:
    return cost_from_dict(load_json(path), problem)


# ---------------------------------------------------------------------------
# options and solutions


# JSON types each option key accepts
_OPTION_TYPES = {
    "tol": ("a number", (int, float)),
    "max_iter": ("an integer", int),
    "seed": ("an integer", int),
}


def options_from_dict(data: dict) -> SolveOptions:
    if not isinstance(data, dict):
        raise ValidationError("options file: expected a JSON object")
    unknown = set(data) - set(_OPTION_TYPES)
    if unknown:
        raise ValidationError(f"unknown option keys: {sorted(unknown)}")
    for key, value in data.items():
        what, types = _OPTION_TYPES[key]
        if not isinstance(value, types) or isinstance(value, bool):  # true/false is no number
            raise ValidationError(f"option {key!r} must be {what}, got {value!r}")
    return SolveOptions(**data)


def load_options(path: str | None) -> SolveOptions:
    if path is None:
        return SolveOptions()
    return options_from_dict(load_json(path))


def solution_to_dict(sol: Solution) -> dict:
    problem = sol.problem
    # the certificate is read before the box, the order in which a solve
    # built them when it computed the certificate itself, so a model whose
    # numeric conjugate keeps a memo fills it in the same order
    gap = float(sol.gap)
    consideration = sol.consideration_set()
    posteriors = {}
    for name in consideration:
        idx = problem.action_names.index(name)
        posteriors[name] = sol.rule.posterior(idx).tolist()
    reported = {**sol.diagnostics, "box_contains_multiplier": sol.box_contains_multiplier}
    diagnostics = {}
    for key, val in sorted(reported.items()):
        if isinstance(val, (np.floating, float)):
            diagnostics[key] = float(val)
        elif isinstance(val, (np.bool_, bool)) or val is None:
            diagnostics[key] = None if val is None else bool(val)
        elif isinstance(val, tuple):
            diagnostics[key] = list(val)
        else:
            diagnostics[key] = val
    best = problem.payoffs.argmax(axis=0)
    accuracy = float(
        problem.prior @ np.array([sol.rule.rows[s, best[s]] for s in range(problem.n_states)])
    )
    return {
        "alpha": {name: float(sol.alpha[i]) for i, name in enumerate(problem.action_names)},
        "lambda": {s: float(sol.lam[i]) for i, s in enumerate(problem.states)},
        "lambda_pi": {s: float(sol.lam_pi[i]) for i, s in enumerate(problem.states)},
        "value": float(sol.value),
        "gap": gap,
        "residual_alpha": float(sol.residual_alpha),
        "residual_lambda": float(sol.residual_lambda),
        "rule": sol.rule.rows.tolist(),
        "posteriors": posteriors,
        "consideration_set": list(consideration),
        "accuracy": accuracy,
        "converged": bool(sol.converged),
        "backend": sol.backend,
        "iterations": int(sol.iterations),
        "box_bound": float(sol.box.bound),
        "diagnostics": diagnostics,
    }


__all__ = [
    "format_float",
    "dumps",
    "load_json",
    "write_text",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem",
    "dump_problem",
    "transform_from_dict",
    "cost_from_dict",
    "encoder_from_dict",
    "load_cost",
    "options_from_dict",
    "load_options",
    "solution_to_dict",
]
