"""One benchmark process: set up, then run the workload repeatedly.

Started by ``run.py``, in one of three modes:

``--setup-only``
    Set up and exit, so ``run.py`` can sample set-up time in fresh processes.
``--paired ours|reference``
    Run the workload in step with a second worker that runs it on the other
    copy of the package, both pinned to one CPU (``--cpu``).  Before each
    repetition and each operation the worker prints ``rep`` or ``op`` and
    waits for ``go`` (or ``stop``) on standard input, so the two copies run
    the same operation at the same time and share the CPU while they do.
    Each operation is timed in CPU time of this process.
``--trace``
    Run alone until ``--until``, timing wall time; after the first
    repetition, every other one is traced.

Every repetition builds the workload's inputs afresh (untimed), so no
per-object cache is warm when it runs.  For the package under test, the
first repetition's peak RSS is read before anything else runs and its
outputs are checked against the workload's oracles; every later
repetition is checked by the sha256 of its outputs, which ``run.py``
compares with the first.  ``--package`` names the directory to import
``weylsums`` from (default: the checkout's ``src/``).  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import os
import sys

# Pin every thread pool before numpy is imported: census does a BLAS
# matmul, and the benchmark measures the single-threaded program.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = (sys.argv[sys.argv.index("--package") + 1] if "--package" in sys.argv[:-1]
           else os.path.join(ROOT, "src"))
sys.path.insert(0, PACKAGE)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(op) -> object:
    try:
        return op.run()
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def _outcomes(ops: list, results: list, check: bool) -> list[dict]:
    """Check the outputs if asked, digest them always."""
    outcomes = []
    for op, result in zip(ops, results):
        error, digest = None, None
        if isinstance(result, Exception):
            error = f"raised {type(result).__name__}: {result}"
        else:
            try:
                if check:
                    op.check(result)
                digest = hashlib.sha256(op.digest(result)).hexdigest()
            except Exception as exc:  # a failed check, or a check that could not run
                error = f"check {type(exc).__name__}: {exc}"
        outcomes.append({"op": op.name, "error": error, "digest": digest})
    return outcomes


def run_rep(ops: list, trace: bool, check: bool) -> dict:
    """Time each operation once in wall time, running alone."""
    tracer = Tracer().install() if trace else None
    op_s, results = {}, []
    try:
        for op in ops:
            gc.collect()  # so no operation pays for the garbage of building the inputs
            start = time.perf_counter()
            results.append(_run(op))
            op_s[op.name] = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    rep = {"traced": trace, "op_s": op_s, "peak_rss_mb": _peak_rss_mb(),
           "ops": _outcomes(ops, results, check)}
    if tracer:
        rep["layers"] = tracer.metrics()
        rep["module_self_s"] = tracer.module_self_s()
    return rep


def run_traced(name: str, seed: int, workdir: str, until: float) -> dict:
    """Repeat until ``until`` (time.monotonic); at least the checked
    repetition and one traced one run."""
    build = workloads.WORKLOADS[name]
    ops = build(seed, workdir)
    reps, last = [], {}
    while True:
        traced = len(reps) % 2 == 1
        if len(reps) >= 2 and time.monotonic() + last.get(traced, 0.0) > until:
            break
        started = time.monotonic()
        reps.append(run_rep(ops if not reps else build(seed, workdir), traced, check=not reps))
        last[traced] = time.monotonic() - started
    return {"peak_rss_mb": reps[0]["peak_rss_mb"], "reps": reps}


def _barrier(kind: str) -> bool:
    """Tell ``run.py`` this worker is ready; True to go on, False to stop."""
    print(kind, flush=True)
    reply = sys.stdin.readline().strip()
    if reply not in ("go", "stop"):
        raise RuntimeError(f"unexpected reply {reply!r} from run.py")
    return reply == "go"


def run_paired(name: str, seed: int, workdir: str, ours: bool) -> dict:
    """Repeat in step with the other copy until ``run.py`` says stop."""
    build = workloads.WORKLOADS[name]
    ops = build(seed, workdir)
    reps = []
    while _barrier("rep"):
        if reps:
            ops = build(seed, workdir)
        op_cpu, op_s, results = {}, {}, []
        for op in ops:
            gc.collect()
            _barrier("op")
            wall, cpu = time.perf_counter(), time.process_time()
            result = _run(op)
            op_cpu[op.name] = time.process_time() - cpu
            op_s[op.name] = time.perf_counter() - wall
            if isinstance(result, Exception) and not ours:
                raise RuntimeError(f"reference copy failed on {op.name}") from result
            results.append(result)
        rep = {"op_cpu": op_cpu, "op_s": op_s}
        if ours:
            if not reps:
                rep["peak_rss_mb"] = _peak_rss_mb()
            rep["ops"] = _outcomes(ops, results, check=not reps)
        reps.append(rep)
    return {"reps": reps}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--package", default=PACKAGE, help="directory to import weylsums from")
    p.add_argument("--spawned-at", type=float, default=0.0,
                   help="with --setup-only, time.monotonic() of the parent just before it started this process")
    p.add_argument("--until", type=float, default=0.0,
                   help="with --trace, time.monotonic() after which no new repetition starts")
    p.add_argument("--cpu", type=int, help="with --paired, the CPU to run on")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true", help="set up, report set-up time and exit")
    mode.add_argument("--paired", choices=("ours", "reference"), help="run in step with the other copy")
    mode.add_argument("--trace", action="store_true", help="run alone; trace every other repetition")
    args = p.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        result = {"setup_s": time.monotonic() - args.spawned_at}
    elif args.paired:
        if args.cpu is not None:
            os.sched_setaffinity(0, {args.cpu})
        result = run_paired(args.workload, args.seed, args.workdir, args.paired == "ours")
    else:
        result = run_traced(args.workload, args.seed, args.workdir, args.until)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
