"""Benchmark for knncheck: one workload per invocation, metrics as JSON on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload tester_theory --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs each op of one pass twice, untraced and traced, and
reports the per-layer metrics from the traced runs plus the tracing overhead.
See perfbench/README.md for the workloads, metrics and layer mapping.
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# per-layer values derived from arguments and file sizes rather than measured
COMPUTED = {
    "exact.pairs",
    "graphio.bytes_read",
    "graphio.bytes_written",
    "generators.slots_replaced",
    "tester.s_prime_clamped_frac",
}


def cold_import() -> None:
    """Import the package in a fresh interpreter, as every CLI call does."""
    subprocess.run(
        [sys.executable, "-c", "import knncheck"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        stdout=subprocess.DEVNULL,
    )


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_op(op, tracer) -> tuple[float, list[str]]:
    """Times one op, then checks its output outside the timed region."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer:
                result = op.run()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, [f"{op.key}: raised"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception:
        traceback.print_exc()
        return elapsed, [f"{op.key}: check raised"]


def run(workload, seconds: float, traced: bool):
    from tracing import Tracer

    tracer = Tracer() if traced else None
    setup_times = []
    for _ in range(1 if traced else workload.setup_repeats):
        start = time.perf_counter()
        cold_import()
        if tracer is None:
            workload.setup()
        else:
            with tracer:
                workload.setup()
        setup_times.append(time.perf_counter() - start)

    ops = workload.ops()
    times = {"primary": [], "secondary": []}
    pairs = []  # (untraced, traced) seconds of the same op
    failures = []
    attempted = failed = 0
    measured = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        if traced:
            # alternate which side runs first, so warm-up favours neither
            sides = (None, tracer) if i % 2 == 0 else (tracer, None)
            durations = {}
            for side in sides:
                durations[side is not None], fails = run_op(op, side)
                attempted += 1
                failed += bool(fails)
                failures += fails
            pairs.append((durations[False], durations[True]))
        else:
            elapsed, fails = run_op(op, None)
            attempted += 1
            failed += bool(fails)
            failures += fails
            times[op.kind].append(elapsed)
            measured += elapsed
        i += 1
        # one whole pass always; untraced runs repeat it until the time is up
        if i >= len(ops) and (traced or measured >= seconds):
            break

    if traced:
        untraced = sum(p[0] for p in pairs)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (sum(p[1] for p in pairs) / untraced - 1.0, "ratio")
        samples = {}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "primary_p50_s": (statistics.median(times["primary"]), "s"),
            "secondary_p50_s": (statistics.median(times["secondary"]), "s"),
            "secondary_p90_s": (percentile(times["secondary"], 90), "s"),
            "reads_per_edge": (workload.reads_per_edge(), "reads/edge"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {
            "setup_s": len(setup_times),
            "primary_p50_s": len(times["primary"]),
            "secondary_p50_s": len(times["secondary"]),
            "secondary_p90_s": len(times["secondary"]),
            "reads_per_edge": len(workload.reads),
        }
    return metrics, samples, attempted, failed, failures, tracer


def report(workload, metrics, samples, attempted, failed, failures, tracer) -> None:
    """Human-readable lines; the JSON result follows them as the last line."""
    print(json.dumps({"machine": machine_info(), "inputs": workload.inputs()}))
    for name, (value, unit) in metrics.items():
        alias = workload.aliases.get(name)
        label = f"{name} ({alias})" if alias else name
        note = f"  n={samples[name]}" if name in samples else ""
        if name in COMPUTED:
            note = "  computed"
        print(f"{label:<44} {value:>16.6g} {unit}{note}")
    print(f"{'failed_frac':<44} {failed / attempted:>16.6g} ratio  n={attempted}")
    for name in tracer.absent if tracer is not None else ():
        print(f"absent boundary: {name}")
    for line in failures:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knncheck" / "__init__.py").is_file():
        print(f"perfbench: no knncheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 64

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        metrics, samples, attempted, failed, failures, tracer = run(
            workload, args.seconds, bool(args.trace))
        report(workload, metrics, samples, attempted, failed, failures, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
