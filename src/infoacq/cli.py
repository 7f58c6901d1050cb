"""Command-line front end: solve, verify, oracle, and sweep subcommands."""

from __future__ import annotations

import argparse
import csv
import io as _io
import sys
from dataclasses import replace

import numpy as np

from . import analysis, io
from .catalog import distance_encoder, one_dim_binary
from .core import ValidationError
from .oracle import brute_force_solve, verify_focs
from .solver import duality_certificate, multiplier_bounds, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BEST_EFFORT = 2


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        io.write_text(out, text)


def cmd_solve(args) -> int:
    problem = io.load_problem(args.problem)
    model = io.load_cost(args.cost, problem)
    opts = io.load_options(args.opts)
    if args.seed is not None:
        opts = replace(opts, seed=args.seed)
    sol = solve(problem, model, opts)
    text = io.dumps(io.solution_to_dict(sol)) + "\n"
    _write_out(text, args.out)
    if not sol.converged:
        print("warning: best-effort solution (not converged)", file=sys.stderr)
        return EXIT_BEST_EFFORT
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = io.load_problem(args.problem)
    model = io.load_cost(args.cost, problem)
    data = io.load_json(args.solution)
    if not isinstance(data, dict):
        raise ValidationError("solution file: expected an object with 'alpha' and 'lambda' maps")
    try:
        alpha = np.array([float(data["alpha"][a]) for a in problem.action_names])
        lam = np.array([float(data["lambda"][s]) for s in problem.states])
        tol = float(data.get("tol", 1e-8))
    except KeyError as exc:
        raise ValidationError(f"solution file: missing entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"solution file: 'alpha', 'lambda' and 'tol' must map to numbers ({exc})"
        ) from exc
    box = multiplier_bounds(problem, model)
    report = verify_focs(problem, model, alpha, lam, box)
    gap = duality_certificate(problem, model, alpha, lam)
    lines = {
        "residual_alpha": report.residual_alpha,
        "residual_lambda": report.residual_lambda,
        "gap": gap,
        "in_box": report.in_box,
        "translation_slice_residual": report.translation_slice_residual,
        "pass": bool(report.within(max(tol, 1e-6)) and (report.in_box is not False)),
    }
    _write_out(io.dumps(lines) + "\n", args.out)
    return EXIT_OK if lines["pass"] else EXIT_INPUT


def cmd_oracle(args) -> int:
    problem = io.load_problem(args.problem)
    model = io.load_cost(args.cost, problem)
    result = brute_force_solve(problem, model, args.grid)
    payload = {
        "value": result.value,
        "evaluations": result.evaluations,
        "skipped_infinite": result.skipped_infinite,
        "rule": result.rule.rows.tolist(),
    }
    _write_out(io.dumps(payload) + "\n", args.out)
    return EXIT_OK


def _sweep_rows(spec: dict):
    if not isinstance(spec, dict):
        raise ValidationError("sweep spec: expected a JSON object")
    kind = spec.get("kind")
    where = f"{kind} sweep"

    def field(key):
        return io._field(spec, key, where)

    def number(key):
        return io._number(field(key), key, where)

    def numbers(key, read=io._number):
        values = field(key)
        if not isinstance(values, list):
            raise ValidationError(f"{where}: field {key!r} must be a list of numbers")
        return [read(v, key, where) for v in values]

    if kind == "response":
        t = io._maybe_shift(io.transform_from_dict(field("transform")), spec, where)
        gamma = number("gamma")
        grid = numbers("w_grid")
        curve = analysis.response_curve(t, gamma, grid)
        rows = [
            {"w": w, "gamma": gamma, "rho": rho, "lambda": l}
            for w, rho, l in zip(grid, curve.rho.tolist(), curve.l.tolist())
        ]
        return ["w", "gamma", "rho", "lambda"], rows
    if kind == "thresholds":
        t = io._maybe_shift(io.transform_from_dict(field("transform")), spec, where)
        w = number("w")
        ns = numbers("n_grid", io._integer)
        rows = [
            {
                "n": n,
                "w": w,
                "c_lower": rep.c_lower,
                "c_upper": rep.c_upper,
                "c_hat": rep.c_hat if rep.c_hat is not None else "",
            }
            for n, rep in zip(ns, analysis._thresholds(t, ns, w))
        ]
        return ["n", "w", "c_lower", "c_upper", "c_hat"], rows
    if kind == "psychometric":
        thetas = np.asarray(numbers("thetas"))
        problem = one_dim_binary(thetas, numbers("risky_payoffs"))
        t = io.transform_from_dict(field("transform"))
        sigma = io._number(spec.get("sigma", 1.0), "sigma", where)
        enc = distance_encoder(thetas, lambda d: float(np.exp(-(d * d) / (2 * sigma * sigma))))
        rep = analysis.psychometric_curve(problem, t, enc)
        rows = [
            {"theta": th, "p_risky": p}
            for th, p in zip(rep.thetas, rep.p_risky)
        ]
        return ["theta", "p_risky"], rows
    if kind == "multitask":
        eta = number("eta")
        zetas = numbers("zeta_grid")

        rows = []
        for z in zetas:
            a1, a2, a3 = analysis.multitask_experiment(z, eta).accuracies
            rows.append({"zeta": z, "eta": eta, "accuracy1": a1, "accuracy2": a2, "accuracy3": a3})
        return ["zeta", "eta", "accuracy1", "accuracy2", "accuracy3"], rows
    if kind == "epsilon_split":
        epsilons = {"epsilons": numbers("epsilons")} if "epsilons" in spec else {}
        rep = analysis.epsilon_split_experiment(
            io.transform_from_dict(field("transform")),
            numbers("d"),
            io._integer(field("i"), "i", where),
            io._integer(field("j"), "j", where),
            **epsilons,
        )
        rows = [
            {
                "epsilon": e,
                "log_likelihood_ratio": llr,
                "linear_prediction": pred,
                "ratio": r,
            }
            for e, llr, pred, r in zip(
                rep.epsilons, rep.log_likelihood_ratios, rep.linear_predictions, rep.ratios
            )
        ]
        return ["epsilon", "log_likelihood_ratio", "linear_prediction", "ratio"], rows
    raise ValidationError(f"unknown sweep kind {kind!r}")


def cmd_sweep(args) -> int:
    spec = io.load_json(args.spec)
    header, rows = _sweep_rows(spec)
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: io.format_float(v) if isinstance(v, float) else v for k, v in row.items()})
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoacq",
        description="Solve information-acquisition problems and reproduce their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem/cost pair")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--cost", required=True)
    p_solve.add_argument("--opts")
    p_solve.add_argument("--out")
    p_solve.add_argument("--seed", type=int)

    p_verify = sub.add_parser("verify", help="re-check a solution file")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--cost", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.add_argument("--out")

    p_oracle = sub.add_parser("oracle", help="brute-force lattice search")
    p_oracle.add_argument("--problem", required=True)
    p_oracle.add_argument("--cost", required=True)
    p_oracle.add_argument("--grid", type=float, default=0.01)
    p_oracle.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="tabulate an application curve as CSV")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument(
        "--parallel",
        type=int,
        default=0,
        help="ignored: accepted so that existing scripts keep working; every sweep runs its points serially",
    )
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; the parser is built on the first call of the process.

    The command runs as the module's current ``cmd_<command>`` attribute,
    so a function rebound there after that first call is the one that runs.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
