"""infoacq benchmark: run one workload for one seed and report its metrics.

    python3 bench/run.py --workload solve-small --seed 1 --seconds 15 --trace 0

Workloads are closed loops: one client issues the workload's ops one after
another, in a single process.  With ``--trace 0`` the run reports the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``, and prints
``op_ms_p50`` and ``failed_frac`` beside them; with ``--trace 1`` it reports
the per-layer split of ``tracer.py`` and the tracing overhead.  Every op's
output is checked; failures also go to ``failed``/``attempted``.
The last line of standard output is one JSON object.  The library is
imported from ``src/`` next to this directory and nowhere else.
"""

import os

# one BLAS thread per process, set before NumPy loads: timings then do not
# depend on the core count, and a --parallel 2 sweep runs two solver
# threads without oversubscribing the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
# an op still running after this long counts as failed; some inputs send the
# numeric conjugate into a search that runs for minutes (see NOTES.md)
OP_TIMEOUT_S = 30
# known-defect probes solve in under 3 s once their defect is fixed
PROBE_TIMEOUT_S = 5


class OpTimeout(BaseException):
    """Raised in the main thread at the op deadline.

    A BaseException, so the library's ``except Exception`` fallbacks cannot
    swallow it and carry on.
    """


def _deadline(signum, frame):
    raise OpTimeout


def _import_library():
    package = SRC / "infoacq"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no infoacq sources at {package}")
    sys.path.insert(0, str(SRC))
    import infoacq

    if Path(infoacq.__file__).resolve().parent != package:
        sys.exit(f"error: imported infoacq from {infoacq.__file__}, not {package}")
    return infoacq


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_batch(ops, tracer=None, timeout=OP_TIMEOUT_S):
    """Run ops in order; returns (seconds per op, [(op name, failure reason)])."""
    times, failures = [], []
    signal.signal(signal.SIGALRM, _deadline)
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            out = op.run()
            reason = None
        except OpTimeout:
            out, reason = None, f"no result within {timeout} s"
        except Exception as exc:  # a raising op is a failed op, not a broken run
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.active = False
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((op.name, reason))
    return times, failures


def measure_setup(workload, seed):
    """Median seconds for a fresh interpreter to import, build inputs and run one op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=150)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited with code {proc.returncode}")
    return statistics.median(samples)


def _environment():
    import numpy
    import scipy

    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def _report_failures(failures):
    for name, reason in failures:
        print(f"  failed op {name}: {reason}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"

    def fresh_ops():
        return workloads.build_ops(args.workload, args.seed, str(workdir))

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            _, failures = run_batch(fresh_ops()[:1])
            return 1 if failures else 0
        print(_environment())
        if args.trace:
            return _traced(args, fresh_ops, workloads.known_defects(args.workload))
        return _untraced(args, fresh_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _untraced(args, fresh_ops) -> int:
    setup_s = measure_setup(args.workload, args.seed)
    # one untimed batch first, so module-level caches and lazy imports are
    # filled before any op is timed
    warm_ops = fresh_ops()
    _, failures = run_batch(warm_ops)
    attempted = len(warm_ops)
    runs = []  # runs[b][i]: seconds of op i in batch b
    while True:
        gc.collect()
        ops = fresh_ops()
        times, failed = run_batch(ops)
        runs.append(times)
        failures += failed
        attempted += len(ops)
        spent = sum(map(sum, runs))
        if spent + spent / len(runs) > args.seconds:
            break
    # the batch time sums each op's median over the batches, which filters
    # out the bursts of a shared machine that hit one batch and not the next
    wall_s = sum(statistics.median(col) for col in zip(*runs))
    executions = [t for times in runs for t in times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} batch(es) of {len(ops)} ops")
    print("  batch seconds: " + ", ".join(f"{sum(times):.4g}" for times in runs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    # printed, not gated: on solve-small and cli-apps the median op is a
    # 20-45 ms call whose time spreads by a fifth from run to run (NOTES.md)
    print(f"  {'op_ms_p50':<12} {1000.0 * statistics.median(executions):.6g} ms  (median of {len(executions)} op executions)")
    print(f"  {'failed_frac':<12} {len(failures) / attempted:.6g}  ({len(failures)}/{attempted} ops)")
    _report_failures(failures)
    return _emit(not failures, attempted, len(failures), metrics)


def _traced(args, fresh_ops, probes) -> int:
    from tracer import Tracer

    failures, attempted = [], 0
    for _ in range(2):  # a warm-up batch, then the untraced reference
        gc.collect()
        ops = fresh_ops()
        times, failed = run_batch(ops)
        failures += failed
        attempted += len(ops)
    untraced_s = sum(times)
    tracer = Tracer()
    tracer.install()
    try:
        passes = []
        for _ in range(2):
            gc.collect()
            tracer.reset()
            ops = fresh_ops()
            times, failed = run_batch(ops, tracer)
            failures += failed
            attempted += len(ops)
            passes.append((sum(times), tracer.metrics(), tracer.count_snapshot()))
    finally:
        tracer.uninstall()
    (traced_s, metrics, counts), (_, _, counts_again) = passes
    repeat = counts == counts_again
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    _, still_open = run_batch(probes, timeout=PROBE_TIMEOUT_S)
    metrics["defects.probed"] = (len(probes), "count")
    metrics["defects.open"] = (len(still_open), "count")
    print(f"workload {args.workload} seed {args.seed}: traced {len(ops)} ops twice")
    print(f"  untraced wall_s {untraced_s:.6g} s, traced wall_s {traced_s:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not repeat:
        for name in counts:
            if counts[name] != counts_again[name]:
                print(f"  count {name} differs between traced passes: {counts[name]} vs {counts_again[name]}")
    print(f"  {'failed_frac':<40} {len(failures) / attempted:.6g}  ({len(failures)}/{attempted} ops)")
    _report_failures(failures)
    for name, reason in still_open:
        print(f"  known defect still open, {name}: {reason}")
    return _emit(repeat and not failures, attempted, len(failures), metrics)


def _emit(correct, attempted, failed, metrics) -> int:
    payload = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
