"""weylsums benchmark: time a workload against a frozen reference copy of the package.

    python3 bench/run.py --workload sweep_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  One invocation starts ``worker.py``
``SETUP_SAMPLES`` times to sample set-up time, then twice at once: one
worker runs the workload on ``src/``, the other on ``bench/reference``,
both pinned to one CPU and held in step operation by operation, until
``--seconds`` after the start.  The first repetition of the package under
test is checked against the workload's oracles and gives the peak RSS; the
rest must reproduce its output digests.  The last line of standard output
is one JSON object; with ``--trace 0`` its metrics are the end-to-end ones
in ``BENCHMARK.json``.  With ``--trace 1`` one worker runs alone, traced
repetitions alternate with untraced ones, and the metrics are the
per-layer ones.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_long", "sweep_short", "census_scan", "mean_value")
REFERENCE = os.path.join(HERE, "reference")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30
# a repetition that starts just before the deadline may run this long past it
OVERRUN_S = 100


class Timeout(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _command(workload: str, seed: int, workdir: str, *flags: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir, *flags]


def _last_json(stdout: str, returncode: int, stderr: str) -> dict:
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _worker(workload: str, seed: int, workdir: str, *flags: str, timeout: float) -> dict:
    cmd = _command(workload, seed, workdir, *flags) + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return _last_json(proc.stdout, proc.returncode, proc.stderr)


def _paired(workload: str, seed: int, workdir: str, deadline: float) -> tuple[dict, dict]:
    """Run the two copies in step on one CPU until the deadline; return what
    each worker reports (the package under test first)."""
    cpu = str(max(os.sched_getaffinity(0)))
    procs = []
    try:
        for side, package in (("ours", os.path.join(ROOT, "src")), ("reference", REFERENCE)):
            err = open(os.path.join(workdir, f"{side}.stderr"), "w+")
            cmd = _command(workload, seed, os.path.join(workdir, side), "--paired", side,
                           "--package", package, "--cpu", cpu)
            procs.append((subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                           stderr=err, text=True, bufsize=1), err))
        started = last = None
        while True:
            ready = [proc.stdout.readline().strip() for proc, _ in procs]
            if ready[0] != ready[1] or ready[0] not in ("rep", "op"):
                break  # a worker failed; its exit code and stderr say why
            reply = "go"
            if ready[0] == "rep":
                now = time.monotonic()
                if started is not None:
                    last = now - started
                    if now + last > deadline:
                        reply = "stop"
                started = now
            for proc, _ in procs:
                proc.stdin.write(reply + "\n")
                proc.stdin.flush()
            if reply == "stop":
                break
        results = []
        for proc, err in procs:
            out, _ = proc.communicate(timeout=OVERRUN_S)
            err.seek(0)
            results.append(_last_json(out, proc.returncode, err.read()))
        return results[0], results[1]
    finally:
        for proc, err in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err.close()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Sample set-up time in fresh processes, then time the workload until
    about ``seconds`` after the start; return what the workers report."""
    workdir = os.path.join(HERE, "_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + seconds

    def expired(signum, frame):
        raise Timeout(f"no result {seconds + OVERRUN_S:.0f} s after the start")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(int(seconds + OVERRUN_S))
    try:
        setups = [_worker(workload, seed, workdir, "--setup-only", timeout=SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        if trace:
            runs = _worker(workload, seed, workdir, "--trace", "--until", repr(deadline),
                           timeout=max(deadline - time.monotonic(), 0) + OVERRUN_S)
        else:
            ours, ref = _paired(workload, seed, workdir, deadline)
            for rep, ref_rep in zip(ours["reps"], ref["reps"]):
                rep["ref_cpu"] = ref_rep["op_cpu"]
            runs = {"peak_rss_mb": ours["reps"][0]["peak_rss_mb"], "reps": ours["reps"]}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    runs["setups"] = setups
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fastest(reps: list[dict], key: str = "op_s") -> float:
    """The workload's time with each operation at its fastest: the sum over
    operations of the least time any repetition took for it."""
    return sum(min(rep[key][op] for rep in reps) for op in reps[0][key])


def total(reps: list[dict], key: str) -> float:
    return sum(sum(rep[key].values()) for rep in reps)


def summarize(workload: str, seed: int, runs: dict, trace: bool) -> dict:
    """Check determinism across repetitions, print the human report, return the result object."""
    spec = _spec()
    reps = runs["reps"]
    reference: dict[str, str] = {}
    attempted = failed = 0
    errors = []
    for rep in reps:
        for op in rep["ops"]:
            attempted += 1
            error = op["error"]
            if error is None:
                ref = reference.setdefault(op["op"], op["digest"])
                if ref != op["digest"]:
                    error = "output digest differs from the first repetition of this invocation"
            if error is not None:
                failed += 1
                errors.append(f"{op['op']}: {error}")

    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}")
    for msg in errors[:20]:
        print(f"  FAILED {msg}")
    figures = {"setup_s": statistics.median(runs["setups"]), "peak_rss_mb": runs["peak_rss_mb"]}
    q1, med, q3 = _quartiles(runs["setups"])
    print(f"  {'setup_s':<16} {med:.6g} s  (median of {len(runs['setups'])} processes; quartiles {q1:.6g} .. {q3:.6g})")
    if trace:
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        figures["run_min_s"] = fastest(plain)
        print(f"  {'run_min_s':<16} {figures['run_min_s']:.6g} s  (wall; sum over operations of each "
              f"one's least time over {len(plain)} untraced repetitions)")
    else:
        figures["run_ratio"] = total(reps, "op_cpu") / total(reps, "ref_cpu")
        q1, med, q3 = _quartiles([sum(r["op_cpu"].values()) for r in reps])
        print(f"  {'run_cpu_s':<16} {med:.6g} s  (CPU time of one repetition, sharing the CPU with the "
              f"reference; quartiles {q1:.6g} .. {q3:.6g})")
        print(f"  {'ref_cpu_s':<16} {statistics.median(sum(r['ref_cpu'].values()) for r in reps):.6g} s  "
              f"(the same for the reference copy)")
        print(f"  {'run_ratio':<16} {figures['run_ratio']:.6g} 1  (total CPU time over total reference CPU time)")
    print(f"  {'peak_rss_mb':<16} {figures['peak_rss_mb']:.6g} MiB  (first repetition of a fresh process)")
    print(f"  {'ops_failed_ratio':<16} {failed / attempted:.6g} 1  ({failed} of {attempted} operations)")
    print("  digests " + json.dumps(reference, sort_keys=True))

    if trace:
        layers = {}
        for m in spec["per_layer"]:
            layers[m["name"]] = statistics.median(r["layers"].get(m["name"], 0) for r in traced)
        layers["bench.run_min_s"] = figures["run_min_s"]
        layers["bench.traced_run_s"] = fastest(traced)
        layers["bench.trace_overhead"] = layers["bench.traced_run_s"] / figures["run_min_s"]
        modules = {}
        for r in traced:
            for mod, t in r["module_self_s"].items():
                modules.setdefault(mod, []).append(t)
        busy = sum(statistics.median(v) for v in modules.values())
        shares = {mod: statistics.median(v) / busy for mod, v in modules.items()}
        print("  module self-time shares " + json.dumps(
            {mod: round(s, 4) for mod, s in sorted(shares.items(), key=lambda kv: -kv[1])}))
        print(f"  trace overhead {layers['bench.trace_overhead']:.4g}x "
              f"(traced run_min_s {layers['bench.traced_run_s']:.6g} s / untraced {figures['run_min_s']:.6g} s)")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (figures[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }


def provenance(seed: int) -> dict:
    import numpy  # only for its version; the runs import it in their own processes

    from worker import THREAD_ENV

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads_env": {name: "1" for name in THREAD_ENV},
        "sweep_threads": 1,
        "paired_cpu": max(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylsums", "__init__.py")):
        print(f"error: no weylsums sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            runs = measure(name, args.seed, args.seconds, trace)
        except (RuntimeError, Timeout, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = summarize(name, args.seed, runs, trace)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
