import csv
import dataclasses
import json
import math
import os
import re
import shlex
import shutil

import numpy as np
import pytest

from infoacq import cli, io
from infoacq.cli import main
from infoacq.core import ValidationError, validate_problem
from infoacq.solver import SolveOptions, solve, solve_best_response

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
README_OUTPUTS = os.path.join(os.path.dirname(__file__), "data", "readme")


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
            ({"family": "mutual_information", "kappa": True}, "kappa"),
            ({"family": "mutual_information", "kappa": "2"}, "kappa"),
            ([1, 2], "object"),
            ({"family": "csiszar", "transform": {"family": "tabulated", "psi_prime": [[0, 1], [1, 2]]}}, "three"),
            ({"family": "neighborhood_hw", "neighborhoods": [{"states": ["s0", "s1"]}]}, "uncovered"),
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

    @pytest.mark.parametrize(
        "opts, name",
        [
            ({"box_override": 1.0}, "box_override"),
            ({"backend": "mirror_prox"}, "backend"),
            ({"backend": "closed_form_auto"}, "backend"),
            ({"backend": "best_response"}, "backend"),
            ({"polish": True}, "polish"),
            ({"polish": False}, "polish"),
        ],
    )
    def test_removed_backend_options_are_input_errors(self, tmp_path, capsys, opts, name):
        path = tmp_path / "opts.json"
        path.write_text(json.dumps(opts))
        argv = ["solve", "--problem", sample("guess3_problem.json"), "--cost", sample("chi2_cost.json")]
        assert main(argv + ["--opts", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err

    SHANNON = {"family": "shannon", "kappa": 1.0}
    SPLIT = {"kind": "epsilon_split", "transform": {"family": "chi2"}, "d": [1.0, 0.0, 0.0], "i": 1, "j": 2}

    @pytest.mark.parametrize(
        "command, data, name",
        [
            ("sweep", {"kind": "response", "transform": SHANNON, "w_grid": [1.0]}, "gamma"),
            ("sweep", {"kind": "response", "transform": SHANNON, "shift": "abc", "gamma": 0.5, "w_grid": [1.0]}, "shift"),
            ("sweep", {"kind": "response", "transform": SHANNON, "gamma": 0.5, "w_grid": [True]}, "w_grid"),
            ("sweep", {"kind": "response", "transform": SHANNON, "gamma": "0.5", "w_grid": [1.0]}, "gamma"),
            ("sweep", [{"kind": "response"}], "object"),
            ("sweep", {**SPLIT, "i": "a"}, "'i'"),
            ("sweep", {**SPLIT, "i": 1.5}, "'i'"),
            ("sweep", {**SPLIT, "j": True}, "'j'"),
            ("sweep", {**SPLIT, "j": 5}, "j=5"),
            ("sweep", {**SPLIT, "j": 1}, "distinct"),
            # chi2 prices the lowered split action out of the support from here on
            ("sweep", {**SPLIT, "epsilons": [0.9]}, "epsilon 0.9"),
            ("sweep", {**SPLIT, "epsilons": [0.5, 0.99]}, "epsilon 0.99"),
            ("sweep", {**SPLIT, "epsilons": [1.0]}, "epsilon 1"),
            ("sweep", {"kind": "thresholds", "transform": SHANNON, "w": 1.0, "n_grid": [2.5, 3]}, "n_grid"),
            ("solve", {"family": "nested_shannon", "encoder": {}, "zeta": 0.5}, "rows"),
        ],
    )
    def test_malformed_spec_or_encoder_is_an_input_error(self, tmp_path, capsys, command, data, name):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        if command == "sweep":
            argv = ["sweep", "--spec", str(path)]
        else:
            argv = ["solve", "--problem", sample("guess3_problem.json"), "--cost", str(path)]
        assert main(argv) == 1
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
        opts.write_text('{"max_iter": 2}')
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

    def test_overflow_scale_best_response_solve_converges(self, tmp_path, capsys):
        # payoffs of 800 overflow the mutual-information conjugate at a
        # uniform start; the solve exits 0, and the best response meets tol too
        opts = tmp_path / "opts.json"
        opts.write_text('{"max_iter": 2000}')
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
            assert main(argv) == 0
            p = io.load_problem(str(problem))
            best = solve_best_response(p, io.load_cost(sample("mi_cost.json"), p), SolveOptions(max_iter=2000))
        assert best.backend == "best_response"
        for data in (json.loads((tmp_path / "sol.json").read_text()), io.solution_to_dict(best)):
            assert data["converged"]
            assert max(data["residual_alpha"], data["residual_lambda"]) <= 1e-8
            assert all(math.isfinite(a) for a in data["alpha"].values())

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


class TestDispatch:
    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for kind in ("thresholds", "response"):
            argv = ["sweep", "--spec", sample(f"{kind}_sweep.json"), "--out", str(tmp_path / f"{kind}.csv")]
            assert main(argv) == 0
        assert built == [1]

    def test_a_rebound_command_is_the_one_that_runs(self, tmp_path, monkeypatch):
        # the parser exists before the rebinding, as it does for a tracer
        # that wraps cli.cmd_* after a warm-up call
        assert main(["sweep", "--spec", sample("thresholds_sweep.json"), "--out", str(tmp_path / "a.csv")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args) or 7)
        assert main(["sweep", "--spec", "spec.json", "--parallel", "2"]) == 7
        assert [(args.spec, args.parallel) for args in seen] == [("spec.json", 2)]

    def test_invalid_argv_exits_2_and_the_parser_still_works(self, tmp_path, capsys):
        for argv in (["sweep"], ["bogus"], ["solve", "--problem", "p.json"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage: infoacq" in capsys.readouterr().err
        out = tmp_path / "th.csv"
        assert main(["sweep", "--spec", sample("thresholds_sweep.json"), "--out", str(out)]) == 0
        assert out.read_text().startswith("n,w,c_lower,c_upper,c_hat\n")


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

    @pytest.mark.parametrize("route", [solve, solve_best_response])
    def test_perceptual_box_containment_is_reported_as_null(self, route):
        # the perceptual box bounds the attribute-space multiplier, so
        # containment of the lifted one is unknown on every route
        problem = io.load_problem(sample("guess3_problem.json"))
        cost = {"family": "perceptual_csiszar", "transform": {"family": "chi2"}}
        cost["encoder"] = TestSolveCommand.ENCODER
        sol = route(problem, io.cost_from_dict(cost, problem))
        diagnostics = io.solution_to_dict(sol)["diagnostics"]
        assert "box_contains_multiplier" in diagnostics
        assert diagnostics["box_contains_multiplier"] is None

    def test_removed_symmetry_option_rejected(self):
        with pytest.raises(ValidationError, match="exploit_symmetry"):
            io.options_from_dict({"exploit_symmetry": True})


def _readme_commands():
    """The ``infoacq`` lines of the README "Command line" block, continuations joined."""
    with open(README) as f:
        text = f.read()
    block = re.search(r"## Command line\s+```bash\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("infoacq ")]


class TestReadmeCommands:
    def test_block_is_found(self):
        assert [argv[0] for argv in _readme_commands()] == ["solve", "verify", "oracle", "sweep", "sweep"]

    def test_every_documented_command_reproduces_its_output(self, tmp_path, monkeypatch, capsys):
        # run in order: verify reads the solution that solve wrote.  The
        # expected outputs were written by these commands and the thresholds
        # sample sweep; a command without --out is compared on its stdout
        shutil.copytree(SAMPLES, tmp_path / "samples")
        monkeypatch.chdir(tmp_path)
        thresholds = ["sweep", "--spec", "samples/thresholds_sweep.json", "--out", "thresholds.csv"]
        outputs = {}
        for argv in _readme_commands() + [thresholds]:
            assert main(argv) == 0, argv
            stdout = capsys.readouterr().out
            if "--out" in argv:
                name = argv[argv.index("--out") + 1]
                outputs[name] = (tmp_path / name).read_text()
            else:
                outputs[f"{argv[0]}.json"] = stdout
        assert sorted(outputs) == sorted(os.listdir(README_OUTPUTS))
        for name, text in outputs.items():
            with open(os.path.join(README_OUTPUTS, name)) as f:
                _assert_matches(_parse_output(name, text), _parse_output(name, f.read()), name)

    def test_option_keys_sentence_names_the_option_fields(self):
        with open(README) as f:
            sentence = re.search(r"option files\s+accept (.*?)\.", f.read(), re.S).group(1)
        assert re.findall(r"`(\w+)`", sentence) == [f.name for f in dataclasses.fields(SolveOptions)]


def _parse_output(name, text):
    """A JSON output as parsed; a CSV one as rows of cells read as int, float or string."""
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(c) for c in row] for row in csv.reader(text.splitlines())]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_matches(got, want, where):
    """Keys, strings, booleans and integers equal; floats within 1e-12 max(1, |x|).

    The tolerance absorbs last-bit differences between SIMD builds of NumPy.
    """
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif float in (type(got), type(want)):
        # a float without a fraction prints, and reads back, as an integer
        assert {type(got), type(want)} <= {int, float}, (where, got, want)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)
