"""The ftagree benchmark.

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 25 --trace 0

One client runs operations one after another (closed loop, no threads)
for ``--seconds`` seconds of host-corrected operation time (see
``REFERENCE_S``), and for at least ``MIN_OPS`` operations, after one
untimed warm-up operation.
Inputs are generated from ``--seed`` before timing starts; every
operation's output is checked by an oracle.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs a fixed number of operations both
untraced and traced and prints the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Single-process, single-threaded client: keep BLAS from spreading the
# program's matrix products over the (shared) cores.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 5  # fresh interpreters before the timed operations, and again after
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1  # the fewest operations that define op_tail_ms
HARD_STOP_S = 140.0  # a run that reaches this age without MIN_OPS fails
# The host is a shared virtual machine without performance counters, and
# its speed swings by up to 2x over minutes for every process on it; in one
# 12-minute stretch, 25 s windows of the fixed repro operation spread 0.32
# (IQR/median).  Operation times of the workloads marked host_corrected
# are therefore reported at a reference host speed: each is divided by the
# slowdown of a fixed reference computation timed between operations.
# REFERENCE_S is the reference computation's typical time on a 2-vCPU
# 2.1 GHz Xeon virtual machine; wall-clock values are printed beside.
REFERENCE_STEPS = 1500
REFERENCE_S = 0.010


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the inputs, for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import ftagree from this checkout's src/ and nowhere else."""
    if not (SRC / "ftagree" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ftagree sources under {SRC}")
    for var in BLAS_THREADS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import ftagree
    import ftagree.cli  # noqa: F401

    if Path(ftagree.__file__).resolve().parent != SRC / "ftagree":
        raise ImportError(f"ftagree was imported from {ftagree.__file__}")
    return ftagree


# --- set-up time ---------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: report when the import finished and how long building
    the program objects took (input generation in between is not set-up)."""
    import_program()
    import_done = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    cases = w.generate(args.seed, args.size) if w.builds_objects else []
    t0 = time.perf_counter()
    w.build(cases)
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_done": import_done, "build_s": build_s}))
    return 0


def measure_setup(args) -> list[float]:
    """Process start through import and object construction, in fresh
    interpreters.  time.perf_counter is CLOCK_MONOTONIC on Linux, so the
    child's timestamps compare with the parent's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        elapsed = probe["import_done"] - t0
        if not 0.0 < elapsed < time.perf_counter() - t0:
            raise RuntimeError("child clock is not comparable with the parent's")
        times.append(elapsed + probe["build_s"])
    return times


# --- running operations --------------------------------------------------


class TooFewOps(RuntimeError):
    """A run too slow to define its metrics: it fails without a result."""


def run_checked(w, op, item, case):
    """One operation and its oracle.  Returns (result, seconds, error)."""
    t0 = time.perf_counter()
    try:
        result, error = op(item), None
    except Exception as exc:  # a raising operation is a failed operation
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return result, elapsed, error or oracle(w, case, result)


def oracle(w, case, result):
    try:
        return w.check(case, result)
    except Exception as exc:  # unreadable output fails the operation
        return f"oracle raised {type(exc).__name__}: {exc}"


def warm_up(w, items, cases):
    """One operation, checked but not timed.  The first operation of a run
    pays for first calls (lazy imports, cold caches): it took 6-40% longer
    than the same operation later in the run."""
    _result, _elapsed, error = run_checked(w, w.op, items[0], cases[0])
    return [("warm-up", error)] if error else []


def reference_seconds(a, x) -> float:
    """Time of a fixed computation of the benchmark's own: small-matrix
    numpy calls in a Python loop, the regime of ftagree's integrator and
    eigensolver."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        d = a @ x
        x = x - 0.01 * np.sign(d) * np.abs(d) ** 0.5
    return time.perf_counter() - t0


def slowdown(references) -> float:
    """The host's slowdown over the span of some reference times: their
    median over REFERENCE_S.  One reference time jitters by up to 2x."""
    return statistics.median(references) / REFERENCE_S


def host_corrected(durations, references):
    """Each operation's time at the reference host speed.  references[i]
    is timed just before operation i and references[i + 1] just after it;
    the slowdown of the six reference times nearest to the operation,
    three on each side, divides its time."""
    return [d / slowdown(references[max(0, i - 2):i + 4]) for i, d in enumerate(durations)]


def timed_loop(w, items, cases, seconds):
    """Run operations until their host-corrected times add up to `seconds`
    and there are at least MIN_OPS, ending on a whole number of the
    workload's design cycles.  Stopping on corrected rather than wall time
    makes the operations a run makes, and so the mix of cases it times,
    independent of the host's speed.  The reference computation runs
    before the first operation and after each one; a workload that is
    not host-corrected stands in REFERENCE_S for it, so its times stay
    wall-clock times."""
    import numpy as np

    rng = np.random.default_rng(0)
    ref_a, ref_x = rng.random((6, 6)), rng.random(6)
    durations, failures = [], []

    def reference():
        return reference_seconds(ref_a, ref_x) if w.host_corrected else REFERENCE_S

    references = [reference()]
    measured = 0.0
    while True:
        i = len(durations)
        if measured >= seconds and i >= MIN_OPS and i % w.cycle == 0:
            break
        if time.perf_counter() - T_PROCESS > HARD_STOP_S:
            break
        k = i % len(items)
        _result, elapsed, error = run_checked(w, w.op, items[k], cases[k])
        references.append(reference())
        durations.append(elapsed)
        measured += elapsed / slowdown(references[-6:])
        if error:
            failures.append((i, error))
    return durations, references, failures


def tail(durations):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND+1)-th largest sample.  Returns (value, percentile)."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(w, args, items, cases):
    # Set-up is probed on both sides of the timed loop, so that its median
    # does not rest on one short phase of a shared machine.
    setup_times = measure_setup(args)
    rss_before_ops = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = warm_up(w, items, cases)
    raw, references, timed_failures = timed_loop(w, items, cases, args.seconds)
    failures += timed_failures
    n = len(raw)
    if n < MIN_OPS:
        raise TooFewOps(f"{n} operations in {HARD_STOP_S:.0f} s; op_tail_ms needs {MIN_OPS}")
    setup_times += measure_setup(args)
    durations = host_corrected(raw, references)
    tail_s, tail_pct = tail(durations)
    attempted = n + 1  # and the warm-up operation
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / sum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops": n,
        "fail_frac": len(failures) / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": n,
        "host_slowdown_median": statistics.median(references) / REFERENCE_S,
        "wall_ops_per_s": n / sum(raw),
        "wall_op_p50_ms": 1e3 * statistics.median(raw),
        "wall_op_tail_ms": 1e3 * tail(raw)[0],
        "peak_rss_before_ops_mb": rss_before_ops,
        "setup_samples_s": setup_times,
        "wall_op_ms": [round(1e3 * d, 3) for d in raw],
        "op_ms": [round(1e3 * d, 3) for d in durations],
        "reference_ms": [round(1e3 * r, 3) for r in references],
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, attempted, failures, details


def field_probe(w, cases):
    """Median time of one public field() call per protocol, on the
    workload's own graphs and states."""
    import ftagree as ft

    per_call = {"p1": [], "p2": []}
    for alpha, top, x in w.probes(cases):
        for kind in per_call:
            spec = ft.ProtocolSpec(ft.ProtocolKind(kind), alpha)
            t0 = time.perf_counter()
            ft.field(spec, top, x)
            batch = max(1, int(2e-3 / max(time.perf_counter() - t0, 1e-9)))
            samples = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(batch):
                    ft.field(spec, top, x)
                samples.append((time.perf_counter() - t0) / batch)
            per_call[kind].append(statistics.median(samples))
    return {k: 1e6 * statistics.median(v) for k, v in per_call.items()}


def traced_run(w, args, items, cases):
    """A fixed number of operations (set by --seconds and the workload's
    nominal rate, not by the clock, so counts repeat under a seed), each
    run untraced and then traced.  Only a run that passes HARD_STOP_S
    stops early."""
    import tracing

    planned = max(2, math.ceil(args.seconds * w.trace_rate / 2.0))
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    failures, ratios = [], []
    count = 0
    for i in range(planned):
        if i and time.perf_counter() - T_PROCESS > HARD_STOP_S:
            break
        count += 1
        k = i % len(items)
        _result, elapsed, error = run_checked(w, w.op, items[k], cases[k])
        untraced_s += elapsed
        if error:
            failures.append((2 * i, error))
        tracer.install()
        try:
            result, elapsed, error = run_checked(
                w, lambda item: tracer.run_op(i, w.op, item)[0], items[k], cases[k]
            )
        finally:
            tracer.uninstall()
        traced_s += elapsed
        if error:
            failures.append((2 * i + 1, error))
        else:
            ratios += w.tightness(cases[k], result)
    metrics = tracer.layer_metrics(
        overhead_frac=traced_s / untraced_s - 1.0,
        probe_us=field_probe(w, cases),
        tightness_max=max(ratios, default=0.0),
    )
    details = {
        "ops": count,
        "planned_ops": planned,
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "self_time_gap_s": tracer.self_time_gap(),
    }
    return metrics, 2 * count, failures, details, tracer


# --- reporting -----------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ftagree").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, ops) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "ops": ops,
    }


def run_all(args, names) -> int:
    """Every workload, end to end and then traced, each in its own process.
    Prints each run's lines and, last, one JSON object whose metrics are
    named <workload>/<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            print(f"## {name} --trace {trace}", *lines, sep="\n")
            result = json.loads(last)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        cases = w.generate(args.seed, args.size, workdir)
        items = w.build(cases)
        if args.trace:
            metrics, attempted, failures, details, tracer = traced_run(w, args, items, cases)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics, attempted, failures, details = end_to_end(w, args, items, cases)
        if args.workload == "repro":
            details["computed_minus_published"] = w.published_gaps(cases[0])
    except TooFewOps as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = stamp(args, details["ops"])
    for i, error in failures[:5]:
        print(f"perfbench: op {i} failed: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for key, value in details.items():
        if key not in ("op_ms", "wall_op_ms", "reference_ms"):
            print(f"# {key} = {value}")
    print("# env " + json.dumps(env))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "details": details, "env": env}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still removes its scenario files (the finally in main).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
