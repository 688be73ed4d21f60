"""Benchmark of the gsicdetect package: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 bench/run.py --workload detect --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

--trace 0 prints the end-to-end metrics, timed with tracing off.
--trace 1 prints per-layer call counts and self times from a traced run.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("build", "detect", "scan", "multiparty")

# One BLAS thread: the matrices are at most 256 x 256, where a second
# thread gains little and adds run-to-run noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is first imported, here or in a child interpreter.
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

from speed import REFERENCE_SLICE_S, SpeedProbe  # noqa: E402  (imports numpy)

# Each run completes at least this many ops, so that ten or more
# latency samples lie beyond the 90th percentile.
MIN_OPS = 100
SETUP_REPEATS = 3
IMPORT_REPEATS = 9

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _attempt(wl, spec) -> tuple[bool, float, float, object]:
    """Run one op (timed) and its check (untimed).

    Returns whether it passed, its start and end times, and its result.
    """
    start = time.perf_counter()
    try:
        result = wl.op(spec)
    except Exception:
        end = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        return False, start, end, None
    end = time.perf_counter()
    try:
        ok = bool(wl.check(spec, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {str(spec)[:200]}", file=sys.stderr)
    return ok, start, end, result


def _rounds(wl, seed: int):
    """Endless rounds of (class, op inputs); each round runs every class once."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    while True:
        order = rng.permutation(len(wl.classes))
        yield [(wl.classes[i], wl.inputs(wl.classes[i], rng)) for i in order]


def _set_up(factory, seed: int, workdir: Path, probe: SpeedProbe):
    """Build the workload SETUP_REPEATS times.

    Returns the last build and the median of the normalised set-up times.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir(parents=True)

        def build():
            start = time.perf_counter()
            wl = factory(seed, rep_dir)
            return wl, time.perf_counter() - start

        (wl, elapsed), factor = probe.around(build)
        times.append(elapsed / factor)
    return wl, statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, import_s: float = 0.0, min_ops: int = MIN_OPS,
            trace_file: Path | None = None) -> dict:
    """Set up one workload, run it, and return its result and metrics.

    `import_s` is the import time, added to the set-up time.
    """
    from workloads import WORKLOADS

    probe = SpeedProbe()
    wl, setup_s = _set_up(WORKLOADS[name], seed, workdir, probe)
    rounds = _rounds(wl, seed)
    if trace:
        return _run_traced(wl, rounds, seconds, trace_file)
    result = _run_untraced(wl, rounds, seconds, min_ops, probe)
    result["metrics"]["setup_s"] = import_s + setup_s
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["metrics"] = {k: _metric(result["metrics"][k], unit)
                         for k, unit in END_TO_END_UNITS.items()}
    return result


def _run_untraced(wl, rounds, seconds: float, min_ops: int,
                  probe: SpeedProbe) -> dict:
    """Whole rounds until `seconds` have passed and `min_ops` ops are done.

    One untimed warm-up round runs first.  Each op's time is normalised
    by the host speed that the probe's slices measured around it.
    """
    attempted = failed = 0
    for _, spec in next(rounds):
        failed += not _attempt(wl, spec)[0]
        attempted += 1
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < min_ops:
        for cls, spec in next(rounds):
            probe.maybe_sample()
            ok, start, end, _ = _attempt(wl, spec)
            ops.append((cls, start, end))
            failed += not ok
            attempted += 1
    probe.sample()
    by_class = {cls: [] for cls in wl.classes}
    for cls, start, end in ops:
        by_class[cls].append((end - start) / probe.factor(start, end))
    # A class has one sample per round, spread over the run; its median
    # is its typical latency.  Every op then counts with the latency of
    # its class, so the percentiles fall on whole classes.
    typical = {cls: statistics.median(times) for cls, times in by_class.items()}
    latencies = sorted(typical[cls] for cls, times in by_class.items()
                       for _ in times)
    metrics = {
        "ops_per_s": len(typical) / sum(typical.values()),
        "latency_p50_ms": statistics.median_high(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
    }
    host_speed = REFERENCE_SLICE_S / statistics.median(probe.durations)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "notes": [f"samples {len(ops)}", f"host speed {host_speed:.4g}"]}


def _run_traced(wl, rounds, seconds: float, trace_file: Path | None) -> dict:
    """Passes over a fixed op list until `seconds` of wall time have passed.

    Each pass runs the list once untraced and once traced.  The spans go
    to `trace_file` if given.
    """
    from tracer import LAYER_NAMES, Tracer

    specs = [spec for _ in range(wl.trace_rounds) for _, spec in next(rounds)]
    tracer = Tracer()
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced = 0.0
        for spec in specs:
            ok, op_start, op_end, _ = _attempt(wl, spec)
            untraced += op_end - op_start
            failed += not ok
        traced = 0.0
        tallies: dict[str, int] = {}
        first = len(tracer.spans)
        with tracer:
            for spec in specs:
                attempted += 1
                tracer.op = attempted
                try:
                    ok, op_start, op_end, result = _attempt(wl, spec)
                finally:
                    tracer.op = None
                traced += op_end - op_start
                failed += not ok
                if result is not None:
                    for key, count in wl.tally(result).items():
                        tallies[key] = tallies.get(key, 0) + count
        attempted += len(specs)
        passes.append((untraced, traced, tracer.layer_totals(first), tallies))
    if trace_file is not None:
        tracer.write(trace_file)

    totals = [layers for _, _, layers, _ in passes]
    calls = {layer: totals[0][layer][0] for layer in LAYER_NAMES}
    repeat = all({layer: t[layer][0] for layer in LAYER_NAMES} == calls
                 for t in totals)
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
        metrics[f"{layer}.self_s"] = _metric(
            statistics.median(t[layer][1] for t in totals), "s")
    tallies = passes[0][3]
    thresholds = tallies.get("thresholds", 0)
    metrics["scan.j_calls_per_op"] = _metric(
        calls["criteria.j_bipartite"] / thresholds if thresholds else 0.0,
        "calls/op")
    metrics["detect.flagged_ratio"] = _metric(
        tallies.get("flagged", 0) / len(specs), "ratio")
    metrics["trace_overhead"] = _metric(
        statistics.median(t / u - 1.0 for u, t, _, _ in passes), "ratio")
    notes = [f"passes {len(passes)} of {len(specs)} ops"]
    if not repeat:
        notes.append("call counts differ between traced passes")
    return {"correct": failed == 0 and repeat, "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes}


def _environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def _print_result(name: str, seed: int, result: dict) -> None:
    env = " ".join(f"{k} {v}" for k, v in _environment().items())
    print(f"workload {name}  seed {seed}  {env}  " + "  ".join(result["notes"]))
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':34s} {fail_ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import gsicdetect; "
                "print(time.perf_counter() - start)")


def _median_import_s() -> float:
    """Median import time over fresh interpreters.

    Not normalised by host speed: the import is mostly file reads and
    unmarshalling, which the compute slices of the speed probe do not
    track (normalising widened its spread).
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(child.stdout))
    return statistics.median(times)


def _run_one(args) -> int:
    if not (SRC / "gsicdetect" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gsicdetect
    if Path(gsicdetect.__file__).resolve().parent != SRC / "gsicdetect":
        print(f"error: imported gsicdetect from {gsicdetect.__file__}",
              file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else _median_import_s()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, import_s,
                         trace_file=ROOT / ".bench_trace"
                         / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_result(args.workload, args.seed, result)
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
