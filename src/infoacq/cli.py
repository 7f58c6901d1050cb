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
from .transform import shift_transform

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


def _sweep_rows(spec: dict, parallel: int):
    kind = spec.get("kind")
    if kind == "response":
        t = io.transform_from_dict(spec["transform"])
        if spec.get("shift") is not None:
            t = shift_transform(t, float(spec["shift"]))
        gamma = float(spec["gamma"])
        grid = np.asarray(spec["w_grid"], dtype=float)

        def point(w):
            curve = analysis.response_curve(t, gamma, [w])
            return {"w": w, "gamma": gamma, "rho": curve.rho[0], "lambda": curve.l[0]}

        return ["w", "gamma", "rho", "lambda"], _maybe_parallel(point, grid, parallel)
    if kind == "thresholds":
        t = io.transform_from_dict(spec["transform"])
        if spec.get("shift") is not None:
            t = shift_transform(t, float(spec["shift"]))
        w = float(spec["w"])
        ns = [int(x) for x in spec["n_grid"]]

        def point(n):
            rep = analysis.inconclusive_thresholds(t, n, w)
            return {
                "n": n,
                "w": w,
                "c_lower": rep.c_lower,
                "c_upper": rep.c_upper,
                "c_hat": rep.c_hat if rep.c_hat is not None else "",
            }

        return ["n", "w", "c_lower", "c_upper", "c_hat"], _maybe_parallel(point, ns, parallel)
    if kind == "psychometric":
        thetas = np.asarray(spec["thetas"], dtype=float)
        problem = one_dim_binary(thetas, spec["risky_payoffs"])
        t = io.transform_from_dict(spec["transform"])
        sigma = float(spec.get("sigma", 1.0))
        enc = distance_encoder(thetas, lambda d: float(np.exp(-(d * d) / (2 * sigma * sigma))))
        rep = analysis.psychometric_curve(problem, t, enc)
        rows = [
            {"theta": th, "p_risky": p}
            for th, p in zip(rep.thetas, rep.p_risky)
        ]
        return ["theta", "p_risky"], rows
    if kind == "multitask":
        eta = float(spec["eta"])
        zetas = [float(z) for z in spec["zeta_grid"]]

        def point(z):
            rep = analysis.multitask_experiment(z, eta)
            a1, a2, a3 = rep.accuracies
            return {"zeta": z, "eta": eta, "accuracy1": a1, "accuracy2": a2, "accuracy3": a3}

        return (
            ["zeta", "eta", "accuracy1", "accuracy2", "accuracy3"],
            _maybe_parallel(point, zetas, parallel),
        )
    if kind == "epsilon_split":
        t = io.transform_from_dict(spec["transform"])
        rep = analysis.epsilon_split_experiment(
            t,
            spec["d"],
            int(spec["i"]),
            int(spec["j"]),
            spec.get("epsilons", (0.2, 0.1, 0.05, 0.025)),
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


def _maybe_parallel(fn, grid, parallel):
    if parallel and parallel > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(fn, grid))
    return [fn(x) for x in grid]


def cmd_sweep(args) -> int:
    spec = io.load_json(args.spec)
    header, rows = _sweep_rows(spec, args.parallel)
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
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check a solution file")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--cost", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force lattice search")
    p_oracle.add_argument("--problem", required=True)
    p_oracle.add_argument("--cost", required=True)
    p_oracle.add_argument("--grid", type=float, default=0.01)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="tabulate an application curve as CSV")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--parallel", type=int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
