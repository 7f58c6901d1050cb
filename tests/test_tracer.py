"""The benchmark tracer binds library names at install: a rename in ``src/``
must fail here, not only in the traced benchmark run."""

import os
import sys

from infoacq import _rootfind, costs, solver

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, BENCH)
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(BENCH)
    originals = (costs.numeric_conjugate, solver._polish, _rootfind.bracketed_root)
    tracer = Tracer()
    try:
        tracer.install()
        assert costs.numeric_conjugate is not originals[0]
    finally:
        tracer.uninstall()
    assert (costs.numeric_conjugate, solver._polish, _rootfind.bracketed_root) == originals
