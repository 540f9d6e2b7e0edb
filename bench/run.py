"""Seeded closed-loop benchmark of the ciore library.

    python3 bench/run.py --workload prop --seed 1 --seconds 30 --trace 0

One client, one process. The inputs of a pass are made from the seed;
passes over them repeat until `--seconds` of timed work and at least three
whole passes are measured. A goal's time is the median of its times over the
passes, so a burst of load on the machine moves one of them and not the
result. The time metrics are scaled to a nominal host speed (see
`calibration.py`). Every verdict is checked outside the timed region. With
`--trace 0` the last line of output reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics of a separate traced pass over
the same inputs, and the spans go to `bench/out/`. The last line is one JSON
object; the lines before it print every metric by name, unit and sample
count, and the verdict digest. Exit status is 1 if any verdict was wrong or
any call failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prop", "semantics", "fo")
SETUP_REPEATS = 5  # fresh interpreters before the timed passes, and as many after
MIN_PASSES = 3
WALL_CAP_S = 120  # no pass starts after this, so a slow build still ends in time


def percentile(samples: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(samples: list[float], value: float) -> int:
    return sum(1 for x in samples if x > value)


def verdict_digest(classes: list[str]) -> str:
    return hashlib.sha256("\n".join(classes).encode()).hexdigest()[:16]


def child_seconds(code: str, env: dict) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def measure_setup(env: dict, traced: bool) -> dict[str, list[float]]:
    """Fresh interpreters importing the package, after one warm-up import
    that leaves the bytecode cache filled."""
    child_seconds("import ciore.cli", env)
    out = {"setup_s": [child_seconds("import ciore", env) for _ in range(SETUP_REPEATS)]}
    if traced:
        out["cli.interp_s"] = [child_seconds("pass", env) for _ in range(SETUP_REPEATS)]
        out["cli.import_s"] = [child_seconds("import ciore.cli", env) for _ in range(SETUP_REPEATS)]
    return out


def run_pass(workload, goals, classes, errors: list[str], run=None, tracer=None, budget=None, slices=None):
    """Time each goal, then check its verdict outside the timed region (and
    outside any trace). Returns the verdict classes and the seconds per goal.
    `classes` holds the first pass's verdicts, or None on the first pass.
    With a `budget` the pass stops once that many timed seconds are spent.
    With a `slices` list, calibration slice times are appended to it."""
    run = run or workload.run
    verdicts, times = [], []
    since_slice = 0.0
    for i, goal in enumerate(goals):
        if budget is not None and sum(times) >= budget:
            break
        start = perf_counter()
        try:
            verdict, outcome = run(goal)
        except Exception:
            verdict, outcome = "error", traceback.format_exc()
        times.append(perf_counter() - start)
        verdicts.append(verdict)
        since_slice += times[-1]
        if slices is not None and since_slice >= calibration.EVERY_S:
            slices.append(calibration.timed_slice())
            since_slice = 0.0
        with tracer.paused() if tracer else contextlib.nullcontext():
            problem = judge(workload, goal, verdict, outcome, classes[i] if classes else None)
        if problem:
            errors.append(f"goal {goal.id} ({goal.kind}): {problem}")
    return verdicts, times


def judge(workload, goal, verdict, outcome, first: str | None) -> str | None:
    if verdict == "error":
        return "exception\n" + outcome
    if first is not None and verdict != first:
        return f"{verdict}, first pass said {first}"
    try:
        return workload.check(goal, verdict, outcome, first is None)
    except Exception:
        return "check raised\n" + traceback.format_exc()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ciore" / "__init__.py").is_file():
        print(f"no ciore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    started = perf_counter()
    env = workloads.child_env(ROOT)
    setup = measure_setup(env, args.trace == 1)
    workload = workloads.make(args.workload)
    goals = workload.goals(random.Random(f"{args.workload}:{args.seed}"))
    # The inputs live for the whole run; keep them out of the collector's scans.
    gc.collect()
    gc.freeze()

    errors: list[str] = []
    samples: list[float] = []
    per_goal: list[list[float]] = [[] for _ in goals]
    for _ in range(20):  # warm-up
        calibration.timed_slice()
    slices: list[float] = []
    classes: list[str] | None = None
    pass_seconds: list[float] = []
    while perf_counter() - started < WALL_CAP_S:
        # Whole passes first; after that the last pass may stop at the deadline.
        budget = args.seconds - sum(samples) if len(pass_seconds) >= MIN_PASSES else None
        if budget is not None and budget <= 0:
            break
        verdicts, times = run_pass(workload, goals, classes, errors, budget=budget, slices=slices)
        classes = classes or verdicts
        samples += times
        for cell, t in zip(per_goal, times):
            cell.append(t)
        if len(times) == len(goals):
            pass_seconds.append(sum(times))
    setup["setup_s"] += measure_setup(env, False)["setup_s"]
    attempted = len(samples)
    failed = len(errors)
    medians = [statistics.median(cell) for cell in per_goal]
    median_pass = sum(medians)  # a pass at each goal's median time
    scale = calibration.NOMINAL_S / statistics.median(slices)

    counts = Counter(classes)
    print(f"workload {args.workload} seed {args.seed}: {len(goals)} goals a pass, {len(pass_seconds)} whole passes, "
          f"{attempted} samples")
    print("verdicts " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())) + f" digest {verdict_digest(classes)}")
    if args.trace == 0:
        decided = sum(1 for c in classes if c in workloads.DECIDED) / len(classes)
        p50, p90 = percentile(medians, 50), percentile(medians, 90)
        print(f"  as measured: {len(goals) / median_pass:.6f} verdicts/s, p50 {p50 * 1e3:.6f} ms, "
              f"p90 {p90 * 1e3:.6f} ms; scaled by {scale:.4f} from {len(slices)} calibration slices")
        metrics = {
            "verdicts_per_s": (len(goals) / (median_pass * scale), "1/s", attempted),
            "verdict_p50_ms": (p50 * scale * 1e3, "ms", len(medians)),
            "verdict_p90_ms": (p90 * scale * 1e3, "ms", len(medians)),
            "decided_ratio": (decided, "ratio", len(classes)),
            "error_ratio": (failed / attempted, "ratio", attempted),
            "setup_s": (statistics.median(setup["setup_s"]), "s", len(setup["setup_s"])),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        print(f"  ({beyond(medians, p90)} goals beyond p90)")
        reported = [k for k in metrics if k != "error_ratio"]
    else:
        tracer = spans.Tracer()

        def traced_run(goal):
            tracer.goal = goal.id
            return workload.run(goal)

        with tracer.installed():
            _, times = run_pass(workload, goals, classes, errors, traced_run, tracer)
        attempted += len(goals)
        failed = len(errors)
        metrics = {k: (v, unit, 1) for k, (v, unit) in spans.layer_metrics(tracer).items()}
        interp, cli_import = statistics.median(setup["cli.interp_s"]), statistics.median(setup["cli.import_s"])
        metrics["cli.interp_s"] = (interp, "s", SETUP_REPEATS)
        metrics["cli.import_s"] = (cli_import - interp, "s", SETUP_REPEATS)
        metrics["trace.overhead_ratio"] = (sum(times) / median_pass, "ratio", 1)
        (HERE / "out").mkdir(exist_ok=True)
        span_file = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"  {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        reported = list(metrics)

    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit:6s} n={n}")
    for message in errors[:5]:
        print("ERROR " + message, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
