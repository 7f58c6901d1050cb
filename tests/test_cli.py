import json
import math
import os

import numpy as np
import pytest

from infoacq import io
from infoacq.cli import main
from infoacq.core import ValidationError, validate_problem

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


class TestSolveCommand:
    def test_smoke_on_shipped_sample(self, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(
            [
                "solve",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                sample("mi_cost.json"),
                "--opts",
                sample("opts.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert "accuracy" in data
        assert 1 / 3 < data["accuracy"] < 1.0
        assert set(data["alpha"]) == {"bet0", "bet1", "bet2"}

    def test_unknown_cost_family_lists_valid_ones(self, tmp_path, capsys):
        bad = tmp_path / "cost.json"
        bad.write_text('{"family": "mutual_informaton"}')
        code = main(
            [
                "solve",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                str(bad),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "mutual_information" in err
        assert "csiszar" in err

    ENCODER = {"rows": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}

    @pytest.mark.parametrize(
        "cost, name",
        [
            ({"family": "neighborhood_hw", "neighborhoods": [{"states": ["s0", "s9"]}]}, "s9"),
            ({"family": "csiszar"}, "transform"),
            ({"family": "csiszar", "transform": "shannon"}, "transform"),
            ({"family": "posterior_separable", "entropy": "shannon_kl"}, "entropy"),
            ({"family": "perceptual_csiszar", "encoder": ENCODER}, "transform"),
            ({"family": "nested_shannon", "zeta": 0.5}, "encoder"),
            ({"family": "nested_shannon", "encoder": ENCODER}, "zeta"),
            ({"family": "mutual_information", "kappa": -1.0}, "kappa"),
            ({"family": "mutual_information", "kappa": "big"}, "kappa"),
            ([1, 2], "object"),
            ({"family": "csiszar", "transform": {"family": "tabulated", "psi_prime": [[0, 1], [1, 2]]}}, "three"),
        ],
    )
    def test_malformed_cost_is_an_input_error(self, tmp_path, capsys, cost, name):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps(cost))
        code = main(["solve", "--problem", sample("guess3_problem.json"), "--cost", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err

    @pytest.mark.parametrize(
        "opts, name", [({"tol": "small"}, "tol"), ({"max_iter": "many"}, "max_iter"), ([1], "object")]
    )
    def test_malformed_option_is_an_input_error(self, tmp_path, capsys, opts, name):
        path = tmp_path / "opts.json"
        path.write_text(json.dumps(opts))
        argv = ["solve", "--problem", sample("guess3_problem.json"), "--cost", sample("mi_cost.json")]
        code = main(argv + ["--opts", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err

    def test_missing_file_is_an_input_error(self, capsys):
        code = main(
            ["solve", "--problem", "nope.json", "--cost", sample("mi_cost.json")]
        )
        assert code == 1

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                [
                    "solve",
                    "--problem",
                    sample("guess3_problem.json"),
                    "--cost",
                    sample("chi2_cost.json"),
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def _solved(self, tmp_path, cost="mi_cost.json"):
        out = tmp_path / "sol.json"
        main(
            [
                "solve",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                sample(cost),
                "--out",
                str(out),
            ]
        )
        return out

    def test_round_trip_passes(self, tmp_path, capsys):
        out = self._solved(tmp_path)
        report = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                sample("mi_cost.json"),
                "--solution",
                str(out),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["pass"] is True
        assert data["residual_alpha"] <= 1e-6
        # re-verification reproduces the stored residuals exactly
        stored = json.loads(out.read_text())
        assert data["residual_alpha"] == stored["residual_alpha"]
        assert data["residual_lambda"] == stored["residual_lambda"]

    def test_translation_slice_reported_for_entropy_costs(self, tmp_path):
        cost = tmp_path / "ps.json"
        cost.write_text(
            '{"family": "posterior_separable", "entropy": {"family": "shannon_kl", "kappa": 1.0}}'
        )
        sol_file = tmp_path / "sol.json"
        main(
            [
                "solve",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                str(cost),
                "--out",
                str(sol_file),
            ]
        )
        report = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                str(cost),
                "--solution",
                str(sol_file),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["translation_slice_residual"] is not None
        assert data["translation_slice_residual"] <= 1e-9

    def test_tampered_multiplier_flagged(self, tmp_path):
        out = self._solved(tmp_path)
        data = json.loads(out.read_text())
        key = next(iter(data["lambda"]))
        data["lambda"][key] += 0.25
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        code = main(
            [
                "verify",
                "--problem",
                sample("guess3_problem.json"),
                "--cost",
                sample("mi_cost.json"),
                "--solution",
                str(tampered),
            ]
        )
        assert code == 1


    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda data: [data], "object"),
            (lambda data: {**data, "alpha": {a: "heavy" for a in data["alpha"]}}, "alpha"),
            (lambda data: {**data, "alpha": list(data["alpha"].values())}, "alpha"),
        ],
        ids=["list", "text-weight", "weight-list"],
    )
    def test_malformed_solution_is_an_input_error(self, tmp_path, capsys, edit, name):
        out = self._solved(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(out.read_text()))))
        argv = ["verify", "--problem", sample("guess3_problem.json"), "--cost", sample("mi_cost.json")]
        code = main(argv + ["--solution", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solution file: ")
        assert name in err


class TestOracleCommand:
    def test_oracle_agrees_with_solver(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps(
                {
                    "states": ["s0", "s1"],
                    "prior": [0.4, 0.6],
                    "actions": [
                        {"name": "a", "payoffs": [1.0, -0.2]},
                        {"name": "b", "payoffs": [-0.5, 0.8]},
                    ],
                }
            )
        )
        sol_file = tmp_path / "sol.json"
        main(["solve", "--problem", str(problem), "--cost", sample("chi2_cost.json"), "--out", str(sol_file)])
        oracle_file = tmp_path / "oracle.json"
        code = main(
            [
                "oracle",
                "--problem",
                str(problem),
                "--cost",
                sample("chi2_cost.json"),
                "--grid",
                "0.02",
                "--out",
                str(oracle_file),
            ]
        )
        assert code == 0
        bf = json.loads(oracle_file.read_text())
        sol = json.loads(sol_file.read_text())
        assert abs(bf["value"] - sol["value"]) < 1e-3


class TestSweepCommand:
    def test_response_sweep_monotone(self, tmp_path):
        out = tmp_path / "resp.csv"
        code = main(["sweep", "--spec", sample("response_sweep.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "w,gamma,rho,lambda"
        rhos = [float(r.split(",")[2]) for r in lines[1:]]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_multitask_sweep_limit_column(self, tmp_path):
        out = tmp_path / "mt.csv"
        code = main(["sweep", "--spec", sample("multitask_sweep.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert float(last[0]) == 0.001
        assert float(last[4]) == pytest.approx(math.e / (math.e + 1), abs=5e-3)

    def test_threshold_sweep_matches_formula(self, tmp_path):
        out = tmp_path / "th.csv"
        code = main(["sweep", "--spec", sample("thresholds_sweep.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        w = 1.0986122886681098
        for row in lines[1:]:
            cells = row.split(",")
            n = int(cells[0])
            expected = math.log(math.exp(w) / n + (n - 1) / n)
            assert float(cells[4]) == pytest.approx(expected, abs=1e-9)

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "nope"}')
        code = main(["sweep", "--spec", str(spec)])
        assert code == 1

    def test_psychometric_sweep(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "psychometric",
                    "thetas": [-1.0, -0.5, 0.0, 0.5, 1.0],
                    "risky_payoffs": [-0.6, -0.3, 0.0, 0.3, 0.6],
                    "transform": {"family": "shannon", "kappa": 1.0},
                    "sigma": 0.4,
                }
            )
        )
        out = tmp_path / "psy.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,p_risky"
        ps = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))

    def test_split_sweep(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "epsilon_split",
                    "transform": {"family": "chi2", "kappa": 1.0},
                    "d": [1.0, 0.0, 0.0],
                    "i": 1,
                    "j": 2,
                }
            )
        )
        out = tmp_path / "split.csv"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("epsilon,")
        assert len(lines) == 5

    def test_non_converged_solve_exits_best_effort(self, tmp_path, capsys):
        opts = tmp_path / "opts.json"
        opts.write_text('{"backend": "mirror_prox", "max_iter": 5, "polish": false}')
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps(
                {
                    "states": ["s0", "s1", "s2"],
                    "prior": [0.2, 0.35, 0.45],
                    "actions": [
                        {"name": "a", "payoffs": [1.0, -0.2, 0.3]},
                        {"name": "b", "payoffs": [-0.5, 0.8, -0.1]},
                        {"name": "c", "payoffs": [0.2, 0.1, 0.6]},
                    ],
                }
            )
        )
        code = main(
            [
                "solve",
                "--problem",
                str(problem),
                "--cost",
                sample("chi2_cost.json"),
                "--opts",
                str(opts),
                "--out",
                str(tmp_path / "sol.json"),
            ]
        )
        assert code == 2

    def test_overflowing_mirror_prox_solve_exits_with_error_code(self, tmp_path, capsys):
        opts = tmp_path / "opts.json"
        opts.write_text('{"backend": "mirror_prox", "max_iter": 2000}')
        problem = tmp_path / "p.json"
        problem.write_text(
            json.dumps(
                {
                    "states": ["s0", "s1", "s2"],
                    "prior": [0.2, 0.35, 0.45],
                    "actions": [
                        {"name": "a", "payoffs": [800.0, -160.0, 240.0]},
                        {"name": "b", "payoffs": [-400.0, 640.0, -80.0]},
                        {"name": "c", "payoffs": [160.0, 80.0, 480.0]},
                    ],
                }
            )
        )
        argv = ["solve", "--problem", str(problem), "--cost", sample("mi_cost.json")]
        argv += ["--opts", str(opts), "--out", str(tmp_path / "sol.json")]
        with np.errstate(all="ignore"):
            assert main(argv) in (1, 2)

    def test_parallel_matches_serial(self, tmp_path):
        serial = tmp_path / "s.csv"
        parallel = tmp_path / "p.csv"
        main(["sweep", "--spec", sample("response_sweep.json"), "--out", str(serial)])
        main(
            [
                "sweep",
                "--spec",
                sample("response_sweep.json"),
                "--parallel",
                "4",
                "--out",
                str(parallel),
            ]
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parallel_multitask_sweep_matches_serial(self, tmp_path):
        outs = []
        for parallel in ("0", "2"):
            out = tmp_path / f"mt{parallel}.csv"
            argv = ["sweep", "--spec", sample("multitask_sweep.json"), "--parallel", parallel]
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFileFormats:
    def test_problem_round_trip_is_value_exact(self, tmp_path):
        p = validate_problem(
            ["s0", "s1"],
            [0.123456789012345, 0.876543210987655],
            [("a", [1.0 / 3.0, -2.0 / 7.0]), ("b", [0.1, 0.2])],
        )
        path = tmp_path / "p.json"
        io.dump_problem(p, str(path))
        q = io.load_problem(str(path))
        assert q.prior[0] == p.prior[0]
        assert q.payoffs[0, 0] == p.payoffs[0, 0]
        io.dump_problem(q, str(tmp_path / "p2.json"))
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_float_formatting_round_trips(self):
        for x in (0.1, 1 / 3, 1e-17, 123456.789012345678, 4.9e-324):
            assert float(io.format_float(x)) == x

    def test_unknown_option_keys_rejected(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text('{"tol": 1e-8, "bogus": 1}')
        with pytest.raises(Exception, match="bogus"):
            io.load_options(str(path))

    def test_removed_symmetry_option_rejected(self):
        with pytest.raises(ValidationError, match="exploit_symmetry"):
            io.options_from_dict({"exploit_symmetry": True})
