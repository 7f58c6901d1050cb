"""The benchmark tracer binds library names at install: a rename in ``src/``
must fail here, not only in the traced benchmark run."""

import os
import sys

import pytest

from infoacq import _rootfind, costs, solver
from infoacq.catalog import guess_the_state
from infoacq.costs import chi2_cost

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


@pytest.fixture
def tracer_class():
    sys.path.insert(0, BENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(BENCH)
    return Tracer


def test_tracer_installs_and_uninstalls(tracer_class):
    originals = (costs.numeric_conjugate, solver._polish, _rootfind.bracketed_root)
    tracer = tracer_class()
    try:
        tracer.install()
        assert costs.numeric_conjugate is not originals[0]
    finally:
        tracer.uninstall()
    assert (costs.numeric_conjugate, solver._polish, _rootfind.bracketed_root) == originals


def test_best_response_iterations_are_counted_once(tracer_class):
    # _mirror_prox_backend is an alias of the best response, which the
    # tracer must wrap once and restore under both names
    p = guess_the_state(3, 1.0)
    tracer = tracer_class()
    try:
        tracer.install()
        tracer.active = True
        sol = solver.solve(p, chi2_cost(p.prior, 1.0))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["solver.backend.iters"] == sol.iterations
    assert solver._mirror_prox_backend is solver._best_response_backend
