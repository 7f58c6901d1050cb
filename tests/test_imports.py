"""Cold-path contract: the package, the CLI, MI, chi2 and posterior-separable
solves (nested Shannon included), the threshold and response sweeps, whose
scalar roots run in the library, and the lattice oracle load no SciPy.

SciPy is imported inside the functions that use it. The check runs in a fresh
interpreter, because the test session itself has long since imported SciPy.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import infoacq
    import infoacq.cli
    from infoacq.cli import main

    out = sys.argv[1]
    for cost in ("mi", "chi2"):
        args = ["--problem", "samples/guess3_problem.json", "--cost", f"samples/{cost}_cost.json"]
        sol = f"{out}/{cost}_sol.json"
        assert main(["solve", *args, "--opts", "samples/opts.json", "--out", sol]) == 0
        assert main(["verify", *args, "--solution", sol, "--out", f"{out}/{cost}_verify.json"]) == 0
    for kind in ("thresholds", "response"):
        spec = f"samples/{kind}_sweep.json"
        assert main(["sweep", "--spec", spec, "--out", f"{out}/{kind}.csv"]) == 0

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    assert not scipy_modules(), scipy_modules()[:5]

    # posterior-separable solves: the inner minimization, the polish and
    # the numeric conjugate all run on the in-library Newton
    from infoacq.analysis import multitask_experiment
    from infoacq.catalog import guess_the_state
    from infoacq.costs import (
        mutual_information_cost,
        neighborhood_hw_cost,
        posterior_separable_cost,
        shannon_kl_entropy,
    )

    p = guess_the_state(3, 2.0)
    ps = infoacq.solve(p, posterior_separable_cost(p.prior, shannon_kl_entropy(p.prior, 1.0)))
    mi = infoacq.solve_best_response(p, mutual_information_cost(p.prior, 1.0))
    assert ps.converged, ps.diagnostics
    assert abs(ps.value - mi.value) < 1e-7, (ps.value, mi.value)

    p = guess_the_state(3, 1.0)
    hw = infoacq.solve(p, neighborhood_hw_cost(p.prior, [((0, 1), 0.8), ((0, 1, 2), 0.4)]))
    assert hw.converged, hw.diagnostics
    hoods = [((0, 1, 2, 3), 0.01), ((0, 1), 0.1), ((2, 3), 0.1)]
    rep = multitask_experiment(None, None, model_builder=lambda p: neighborhood_hw_cost(p.prior, hoods))
    assert all(sol.converged for sol in rep.solutions)
    assert not scipy_modules(), scipy_modules()[:5]

    # nested-Shannon entropy values (the box vertices and the primal cost)
    # come from the in-library Newton; the oracle enumerates in NumPy
    rep = multitask_experiment(0.1, 1.0)
    assert all(sol.converged for sol in rep.solutions)
    args = ["--problem", "samples/guess3_problem.json", "--cost", "samples/mi_cost.json"]
    assert main(["oracle", *args, "--grid", "0.1", "--out", f"{out}/oracle.json"]) == 0
    assert not scipy_modules(), scipy_modules()[:5]

    # the deferred imports still load on first use
    ts = np.linspace(-3.0, 3.0, 61)
    t = infoacq.tabulated(np.column_stack([ts, np.exp(ts)]))
    grid = np.linspace(-2.0, 2.0, 11)
    assert np.max(np.abs(t.psi(grid) - np.expm1(grid))) < 1e-5
    assert "scipy.interpolate" in sys.modules
    print("ok")
    """
)


def test_cold_path_loads_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
