"""The repository benchmark: one serial process, a fixed item list, verified.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``README.md``).  The last line of
standard output is the result object; the line before it is run
metadata.  The exit code is 0 only when every item was correct (and, for
a traced run, the trace covers the wall).

The loop is closed and serial: the next item starts only after the
previous one finished and was checked.  There is no worker pool, so the
measurement is of the program, not the scheduler.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed in this many processes (this one included).
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def _bootstrap() -> None:
    """Make ``src/`` importable, refusing to run without it."""
    missing = [
        path for path in (SRC / "repro", ROOT / "tests" / "data")
        if not path.is_dir()
    ]
    if missing:
        sys.exit(
            "perfbench: run from a checkout of the repository; missing "
            + ", ".join(str(path.relative_to(ROOT)) for path in missing)
        )
    sys.path.insert(0, str(SRC))


def _tail(times_ms):
    """The highest whole percentile with at least ten items beyond it."""
    n = len(times_ms)
    percentile = next(p for p in range(99, 0, -1) if n * (100 - p) >= 1000)
    cuts = statistics.quantiles(times_ms, n=100, method="inclusive")
    return percentile, cuts[percentile - 1]


def _run_items(items):
    """The closed loop: time every item, check every output.

    Returns each item's time, raw and at nominal host speed, and the
    failures.
    """
    raw_s, scaled_s, failures = [], [], []
    speed = HostSpeed()
    for item in items:
        began = time.perf_counter()
        try:
            output = item.run()
            error = None
        except Exception as exc:  # a crash is a failed operation, not the end
            output, error = None, f"{type(exc).__name__}: {exc}"
        busy_s = time.perf_counter() - began
        if error is None and not item.check(output, item.expected):
            error = f"got {output!r}, expected {item.expected!r}"
        if error is not None:
            failures.append(f"{item.name}: {error}")
        raw_s.append(busy_s)
        scaled_s.append(speed.scaled(busy_s))
    return raw_s, scaled_s, failures


def _child(args, *extra):
    """Run this script again in a fresh process; its last stdout line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: child {' '.join(extra)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cat"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    """HEAD's commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _metadata(args, item_count, **extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": item_count,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        **extra,
    }


def _emit(meta, failures, metrics, units, trace_ok=True) -> int:
    for failure in failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = not failures and trace_ok
    print(json.dumps({
        "correct": correct,
        "attempted": meta["items"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _timed_setup(args):
    """The workload's items and the set-up's raw and scaled seconds."""
    speed = HostSpeed()
    began = time.perf_counter()
    items = WORKLOADS[args.workload](args.seed, args.seconds)
    raw_s = time.perf_counter() - began
    return items, raw_s, speed.scaled(raw_s)


def end_to_end(args) -> int:
    setups = [
        _child(args, "--setup-only")
        for _ in range(args.setup_samples - 1)
    ]
    items, raw_setup_s, setup_s = _timed_setup(args)
    setups.append({"raw_s": raw_setup_s, "setup_s": setup_s})

    raw_s, scaled_s, failures = _run_items(items)
    times_ms = [1000.0 * s for s in scaled_s]
    percentile, tail_ms = _tail(times_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta = _metadata(
        args, len(items),
        tail_percentile=percentile,
        raw_wall_s=sum(raw_s),
        raw_setup_s=[sample["raw_s"] for sample in setups],
    )
    metrics = {
        "setup_s": statistics.median(sample["setup_s"] for sample in setups),
        "wall_s": sum(scaled_s),
        "item_ms_p50": statistics.median(times_ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {
        "setup_s": "s", "wall_s": "s", "item_ms_p50": "ms",
        "item_ms_tail": "ms", "peak_rss_mb": "MB",
    }
    return _emit(meta, failures, metrics, units)


def traced(args) -> int:
    from layers import MIN_COVERAGE, UNITS, LayerTracer, layer_metrics

    # The untraced twin runs first, cold in its own process.
    untraced = _child(args, "--trace", "0", "--setup-samples", "1")
    untraced_wall_s = untraced["metrics"]["wall_s"]["value"]

    from repro import obs

    tracer = LayerTracer()
    tracer.install()
    with obs.collect() as collector:
        items = WORKLOADS[args.workload](args.seed, args.seconds)
        before = tracer.total_s()
        raw_s, scaled_s, failures = _run_items(items)
        loop_layer_s = tracer.total_s() - before

    metrics = layer_metrics(
        tracer, collector.counters, sum(raw_s), sum(scaled_s),
        loop_layer_s, untraced_wall_s,
    )
    coverage_ok = metrics["trace.coverage"] >= MIN_COVERAGE
    if not coverage_ok:
        print(
            f"perfbench: trace.coverage {metrics['trace.coverage']:.3f} is "
            f"below {MIN_COVERAGE}: some work bypasses the layer wrappers",
            file=sys.stderr,
        )
    meta = _metadata(
        args, len(items),
        raw_wall_s=sum(raw_s),
        untraced_wall_s=untraced_wall_s,
    )
    return _emit(meta, failures, metrics, UNITS, coverage_ok)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-samples", type=int, default=SETUP_SAMPLES,
        help="processes that time the set-up (this one included)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time the set-up alone and print it (internal)",
    )
    args = parser.parse_args()
    if args.seconds <= 0 or args.setup_samples < 1:
        parser.error("--seconds and --setup-samples must be positive")
    _bootstrap()
    if args.setup_only:
        _, raw_s, setup_s = _timed_setup(args)
        print(json.dumps({"raw_s": raw_s, "setup_s": setup_s}))
        return 0
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
