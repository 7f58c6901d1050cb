"""Per-layer tracing of infoacq from outside the package.

The tracer replaces, for the length of a traced batch, the module and class
attributes through which each layer is reached at run time, so ``src/`` is
untouched.  A span measures self time: its duration minus the part covered
by spans opened below it on the same thread.  Counters record work units at
the same boundaries.  Wrappers pass straight through while ``active`` is
false, so the benchmark's own output checks are never traced.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

from infoacq import _rootfind, analysis, cli, core, costs, io, oracle, solver

SPANS = (
    "core.detect_symmetries",
    "solver.bounds",
    "solver.backend",
    "solver.mi",
    "solver.inner_minimize",
    "solver.polish",
    "solver.certificate",
    "solver.assemble",
    "costs.numeric_conjugate",
    "oracle.brute_force",
    "oracle.verify_focs",
    "analysis.response_curve",
    "analysis.inconclusive_thresholds",
    "analysis.psychometric_curve",
    "analysis.multitask_experiment",
    "io.load",
    "io.dump",
    "cli.solve",
    "cli.verify",
    "cli.oracle",
    "cli.sweep",
)

COUNTS = (
    "core.detect_symmetries.calls",
    "core.detect_symmetries.perms",
    "solver.polish_once.calls",
    "solver.root.calls",
    "solver.root.nfev",
    "costs.rows.evaluated",
    "costs.f_star.calls",
    "costs.grad_f_star.calls",
    "solver.mi.iters",
    "solver.backend.iters",
    "solver.inner_minimize.calls",
    "costs.numeric_conjugate.calls",
    "costs.numeric_conjugate.misses",
    "costs.numeric_conjugate.memo_entries",
    "oracle.brute_force.evaluations",
    "rootfind.bracketed_root.calls",
)

# inclusive wall time of whole sweep commands, split by --parallel
SWEEP_TIMES = ("cli.sweep.serial_s", "cli.sweep.parallel2_s")


class Tracer:
    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.inclusive_s = defaultdict(float)

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def high_water(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], n)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """Time ``fn`` as span ``name``; ``on_exit(args, kwargs, out, seconds)`` adds counts."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1][0] == name:
                # recursion or a nested entry point of the same layer:
                # the outer span already covers it
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                with self._lock:
                    self.self_s[name] += seconds - frame[1]
            if on_exit is not None:
                on_exit(args, kwargs, out, seconds)
            return out

        return wrapper

    def counter(self, name, fn, amount=None):
        """Count calls of ``fn``, or ``amount(args, kwargs)`` units per call."""

        def wrapper(*args, **kwargs):
            if self.active:
                self.add(name, 1 if amount is None else amount(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every infoacq module global that names ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "infoacq" or mod_name.startswith("infoacq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        t = self
        wrap = self._replace_everywhere

        # core: the symmetry pass and the permutations it walks
        class CountingItertools:
            def __getattr__(self, attr):
                return getattr(itertools, attr)

            @staticmethod
            def permutations(*args, **kwargs):
                for g in itertools.permutations(*args, **kwargs):
                    if t.active:
                        t.add("core.detect_symmetries.perms")
                    yield g

        self._set(core, "itertools", CountingItertools())
        wrap(
            core.detect_symmetries,
            self.span(
                "core.detect_symmetries",
                core.detect_symmetries,
                lambda a, k, out, s: t.add("core.detect_symmetries.calls"),
            ),
        )

        # solver phases
        wrap(solver.multiplier_bounds, self.span("solver.bounds", solver.multiplier_bounds))

        def add_backend_iters(a, k, out, s):
            t.add("solver.backend.iters", int(out[2]))

        for backend in (solver._best_response_backend, solver._mirror_prox_backend):
            wrap(backend, self.span("solver.backend", backend, add_backend_iters))
        wrap(
            solver.solve_mutual_information,
            self.span(
                "solver.mi",
                solver.solve_mutual_information,
                lambda a, k, out, s: t.add("solver.mi.iters", int(out.iterations)),
            ),
        )
        wrap(
            solver._inner_minimize,
            self.span(
                "solver.inner_minimize",
                solver._inner_minimize,
                lambda a, k, out, s: t.add("solver.inner_minimize.calls"),
            ),
        )
        wrap(solver._polish, self.span("solver.polish", solver._polish))
        wrap(solver._polish_once, self.counter("solver.polish_once.calls", solver._polish_once))

        def root(*args, **kwargs):
            res = scipy_root(*args, **kwargs)
            if t.active:
                t.add("solver.root.calls")
                t.add("solver.root.nfev", int(getattr(res, "nfev", 0)))
            return res

        scipy_root = solver.scipy_root
        self._set(solver, "scipy_root", root)
        wrap(solver.duality_certificate, self.span("solver.certificate", solver.duality_certificate))
        wrap(solver._assemble, self.span("solver.assemble", solver._assemble))

        # costs: row evaluations, per-row conjugate calls, the numeric conjugate
        def rows(args, kwargs):
            return len(args[1])

        for cls in (costs.CostModel, costs.CsiszarCost):
            for attr in ("f_star_rows", "grad_rows"):
                self._set(cls, attr, self.counter("costs.rows.evaluated", vars(cls)[attr], rows))
        for cls in (costs.CsiszarCost, costs.PosteriorSeparableCost, costs.PerceptualCsiszarCost):
            self._set(cls, "f_star", self.counter("costs.f_star.calls", vars(cls)["f_star"]))
            self._set(cls, "grad_f_star", self.counter("costs.grad_f_star.calls", vars(cls)["grad_f_star"]))

        numeric_conjugate = costs.numeric_conjugate

        def conjugate(h, x, *args, **kwargs):
            if not t.active:
                return numeric_conjugate(h, x, *args, **kwargs)
            before = len(h._memo)
            try:
                return timed(h, x, *args, **kwargs)
            finally:
                after = len(h._memo)
                t.add("costs.numeric_conjugate.calls")
                t.add("costs.numeric_conjugate.misses", after - before)  # a hit adds no entry
                t.high_water("costs.numeric_conjugate.memo_entries", after)

        timed = self.span("costs.numeric_conjugate", numeric_conjugate)
        wrap(numeric_conjugate, conjugate)

        # oracle
        wrap(
            oracle.brute_force_solve,
            self.span(
                "oracle.brute_force",
                oracle.brute_force_solve,
                lambda a, k, out, s: t.add("oracle.brute_force.evaluations", int(out.evaluations)),
            ),
        )
        wrap(oracle.verify_focs, self.span("oracle.verify_focs", oracle.verify_focs))

        # analysis entry points and the scalar root finder under them
        for fn in ("response_curve", "inconclusive_thresholds", "psychometric_curve", "multitask_experiment"):
            original = getattr(analysis, fn)
            wrap(original, self.span(f"analysis.{fn}", original))
        wrap(
            _rootfind.bracketed_root,
            self.counter("rootfind.bracketed_root.calls", _rootfind.bracketed_root),
        )

        # io and the command line
        for fn in ("load_json", "load_problem", "load_cost", "load_options"):
            original = getattr(io, fn)
            wrap(original, self.span("io.load", original))
        for fn in ("dumps", "write_text", "solution_to_dict"):
            original = getattr(io, fn)
            wrap(original, self.span("io.dump", original))
        for command in ("solve", "verify", "oracle"):
            original = getattr(cli, f"cmd_{command}")
            self._set(cli, f"cmd_{command}", self.span(f"cli.{command}", original))

        def sweep_time(args, kwargs, out, seconds):
            mode = "cli.sweep.parallel2_s" if args[0].parallel == 2 else "cli.sweep.serial_s"
            with t._lock:
                t.inclusive_s[mode] += seconds

        self._set(cli, "cmd_sweep", self.span("cli.sweep", cli.cmd_sweep, sweep_time))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.s"] = (self.self_s.get(name, 0.0), "s")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        for name in SWEEP_TIMES:
            out[name] = (self.inclusive_s.get(name, 0.0), "s")
        return out

    def count_snapshot(self) -> dict:
        return {name: self.counts.get(name, 0) for name in COUNTS}
