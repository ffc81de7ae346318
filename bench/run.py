"""Benchmark runner: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

One invocation measures one workload in this (fresh) process and prints every
metric by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced run, ``--trace 1`` the per-layer
metrics of a traced run.  Without ``--workload`` every workload runs in turn,
each in its own subprocess.  ``--report FILE`` prints the per-layer self-time
table of a trace file written by an earlier ``--trace 1`` run.

See ``bench/README.md`` for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: A full-scale untraced run sets up at least MIN_SETUPS times, and up to
#: MAX_SETUPS while all of them together took under SETUP_BUDGET_S seconds
#: (cheap set-ups are the noisy ones); ``setup_s`` is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
#: A full-scale single-client traced run fails above this
#: ``trace.unattributed_share``.
MAX_UNATTRIBUTED = 0.15
#: A full-scale untraced run keeps going until it holds this many
#: ``round_ms`` samples, so p90 always has ten samples beyond it.
MIN_ROUND_SAMPLES = 100

def unit_of(name: str) -> str:
    """The unit a metric name implies (names carry their unit as a suffix)."""
    if name.endswith("_s") and not name.endswith("_per_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if "_mb" in name:
        return "MB"
    if name.endswith(("_per_s", ".qps")):
        return "1/s"
    if name.endswith(("_share", "_ratio", "precision_at_20")):
        return "ratio"
    return "count"


def fingerprint(seed: int) -> dict:
    """The machine and build a number came from; printed with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no structured config
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": commit,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str) -> int:
    from bench import workloads

    spec = workloads.SPECS[scale][name]
    env = fingerprint(seed)
    print("environment " + json.dumps(env), flush=True)
    inputs = workloads.make_inputs(seed, spec)
    print(f"workload {name} scale={scale} loop=closed clients={spec.clients} "
          f"inputs_digest={inputs.digest()}", flush=True)

    # File stores, and the span files of traced cluster workers, live here.
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = _Bench(spec, inputs, scale, workdir)
    try:
        if traced:
            results, problems, metrics = _traced_run(bench, env)
        else:
            results, problems, metrics = _untraced_run(bench, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    last = results[-1]
    for phase in workloads.PHASES:
        attempted = last.count("attempted", phase)
        failed = last.count("failed", phase)
        print(f"calls phase={phase} attempted={attempted} "
              f"succeeded={attempted - failed} failed={failed}")
    initial, final = workloads.quality(last, inputs)
    print(f"precision_at_20 initial={initial:.6f} final={final:.6f} "
          f"(fixed set of {len(last.fixed_set)} sessions)")
    if spec.clients == 1:
        print(f"ranking_digest {workloads.ranking_digest(last)}")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {unit_of(metric)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.count("attempted") for r in results),
        "failed": sum(r.count("failed") for r in results),
        "metrics": {
            metric: {"value": float(value), "unit": unit_of(metric)}
            for metric, value in metrics.items()
        },
    }), flush=True)
    return 0 if not problems else 1


class _Bench:
    """One workload's inputs plus its timed set-ups and checked measurements."""

    def __init__(self, spec, inputs, scale: str, workdir: Path) -> None:
        self.spec, self.inputs, self.scale, self.workdir = spec, inputs, scale, workdir
        self.setups: List[float] = []

    def set_up(self):
        from bench import workloads

        gc.collect()
        start = time.perf_counter()
        system = workloads.build_system(
            self.spec, self.inputs, self.workdir / f"setup-{len(self.setups)}"
        )
        self.setups.append(time.perf_counter() - start)
        return system

    def measure(self, system, seconds: float, min_round_samples: int = 0):
        """Run the clients, then every output check; closes *system*."""
        from bench import workloads

        try:
            result = workloads.run_clients(
                system, self.spec, self.inputs, seconds,
                min_round_samples=min_round_samples,
            )
            return result, workloads.check_outputs(result, self.inputs, system)
        finally:
            system.close()


def _untraced_run(bench: _Bench, seconds: float):
    import numpy

    full = bench.scale == "full"
    system = bench.set_up()
    while full and (
        len(bench.setups) < MIN_SETUPS
        or (len(bench.setups) < MAX_SETUPS and sum(bench.setups) < SETUP_BUDGET_S)
    ):
        system.close()
        system = bench.set_up()
    result, problems = bench.measure(system, seconds, MIN_ROUND_SAMPLES if full else 0)
    rounds, opens = result.latencies("round"), result.latencies("open")
    print(f"round_ms samples={len(rounds)} open_ms samples={len(opens)} "
          f"sessions={result.completed} wall_s={result.wall_s:.3f}")
    return [result], problems, {
        "setup_s": statistics.median(bench.setups),
        "sessions_per_s": result.completed / result.wall_s,
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": float(numpy.percentile(rounds, 90)),
        "open_ms_p50": statistics.median(opens),
        "peak_rss_mb": peak_rss_mb(),
    }


def _traced_run(bench: _Bench, env: dict):
    """The fixed session set twice — untraced, then traced on a fresh set-up —
    so the tracing overhead compares identical work."""
    from bench import trace, workloads

    spec = bench.spec
    system = bench.set_up()
    targets = list(trace.NAMED_TARGETS) + trace.live_targets(system)
    untraced, problems = bench.measure(system, 0.0)

    tracer = trace.Tracer(bench.workdir)
    tracer.install(targets)
    try:
        system = bench.set_up()
        router = system.router
        result, traced_problems = bench.measure(system, 0.0)
    finally:
        tracer.uninstall()
    problems += traced_problems
    spans = tracer.collect()
    rounds = result.count("attempted", "round")
    trace_path = OUT / f"trace-{spec.name}.jsonl"
    trace.write_trace(trace_path, {
        "workload": spec.name, "scale": bench.scale, "window": result.window,
        "home_pid": os.getpid(), "clients": spec.clients, "rounds": rounds,
        "environment": env, "missing_targets": tracer.missing,
    }, spans)
    print(f"trace written to {trace_path.relative_to(ROOT)} ({len(spans)} spans)")

    metrics = trace.layer_metrics(
        spans, result.window, home_pid=os.getpid(), clients=spec.clients, rounds=rounds
    )
    metrics["cluster.restarts"] = router.restarts if router else 0
    metrics["trace.overhead_share"] = 1.0 - (
        (result.completed / result.wall_s) / (untraced.completed / untraced.wall_s)
    )
    metrics["precision_at_20"] = workloads.quality(result, bench.inputs)[1]
    results = [untraced, result]
    metrics["ops_failed_share"] = (
        sum(r.count("failed") for r in results) / sum(r.count("attempted") for r in results)
    )
    unattributed = metrics["trace.unattributed_share"]
    if bench.scale == "full" and spec.clients == 1 and unattributed > MAX_UNATTRIBUTED:
        problems.append(f"trace.unattributed_share {unattributed:.3f} > {MAX_UNATTRIBUTED}")
    return results, problems, metrics


def report(path: Path) -> int:
    """Print the per-layer self-time table of one trace file."""
    from bench import trace

    header, spans = trace.read_trace(path)
    window = tuple(header["window"])
    print(f"trace {path} workload={header['workload']} scale={header['scale']} "
          f"wall_s={window[1] - window[0]:.3f} spans={len(spans)}")
    print("environment " + json.dumps(header["environment"]))
    for line in trace.layer_table(spans, window):
        print(line)
    metrics = trace.layer_metrics(
        spans, window, home_pid=header["home_pid"], clients=header["clients"],
        rounds=header["rounds"],
    )
    print(f"trace.unattributed_share {metrics['trace.unattributed_share']:.4f} ratio")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long after the fixed session set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--report", type=Path, help="print the table of a trace file and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import workloads

    if args.report is not None:
        return report(args.report)
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
        return run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    status = 0
    for name in workloads.WORKLOADS:
        print(f"===== {name} =====", flush=True)
        status |= subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
        ).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
