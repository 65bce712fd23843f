#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see bench_e2e/README.md).

One workload, one JSON result as the last line of stdout: the end-to-end
metrics with --trace 0; with --trace 1 an untraced and a traced run of
S/2 seconds each, and the per-layer metrics:
  python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload REPS times, alternating the workload order, with a table of
medians and quartiles and one JSON file per set:
  python3 bench_e2e/run.py --reps R [--seed N] [--vary-seed] [--seconds S]
                           [--trace 0|1] [--out FILE]

All four workloads at ~5 outputs with the layer replay; checks that every
metric BENCHMARK.json names is printed and that verification passes:
  python3 bench_e2e/run.py --smoke

Parent against change, from two --reps result files:
  python3 bench_e2e/run.py --compare PARENT.json CHANGE.json [--claim WORKLOAD:METRIC]

The binary is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build at the repository root); output files go to a scratch
directory under it and are removed after each run.  Exit status is 0 only
when every run verified its outputs (and, for --compare, no regression).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(REPO / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return Path(target).resolve() if target else REPO / ".bench_build"


def build(cmake_dir):
    """Configures (once) and builds bench_e2e; build chatter goes to stderr."""
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "bench_e2e",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    return cmake_dir / "bench_e2e"


def run_binary(binary, scratch, workload, seed, seconds, trace_out=None, smoke=False,
               deadline=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(scratch)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    timeout = RUN_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload}: no result within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: {workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        log(f"run.py: {workload} seed {seed}: verification failed "
            f"({result['failed']} of {result['attempted']} operations)")
    return result


def run_traced(binary, scratch, workload, seed, seconds, base_run_s, smoke=False,
               deadline=None):
    """A traced run plus the per-layer metrics; trace.overhead_pct compares
    its run_s with the untraced base_run_s."""
    trace_out = scratch / f"trace-{workload}-seed{seed}.jsonl"
    traced = run_binary(binary, scratch, workload, seed, seconds, trace_out, smoke, deadline)
    layers = dict(traced["layers"])
    traced_run_s = traced["metrics"]["run_s"]["value"]
    layers["trace.overhead_pct"] = {
        "value": 100.0 * (traced_run_s - base_run_s) / base_run_s, "unit": "%"}
    return traced, layers, trace_out


def select(metrics, specs, workload):
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise SystemExit(f"run.py: {workload}: metrics missing from the run: {missing}")
    return {s["name"]: metrics[s["name"]] for s in specs}


def single_run(args, bench):
    binary = build(build_dir() / "cmake")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    if args.trace == 1:
        # The untraced and the traced run share the run's time.
        seconds = args.seconds / 2
        untraced = run_binary(binary, scratch, args.workload, args.seed, seconds,
                              deadline=deadline)
        traced, layers, _ = run_traced(binary, scratch, args.workload, args.seed, seconds,
                                       untraced["metrics"]["run_s"]["value"],
                                       deadline=deadline)
        runs = [untraced, traced]
        metrics = select(layers, bench["per_layer"], args.workload)
    else:
        runs = [run_binary(binary, scratch, args.workload, args.seed, args.seconds,
                           deadline=deadline)]
        metrics = select(runs[0]["metrics"], bench["end_to_end"], args.workload)
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def print_table(title, per_workload, specs):
    log(f"\n{title}")
    log(f"{'workload':<16} {'metric':<40} {'unit':<6} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for workload, runs in per_workload.items():
        for spec in specs:
            name = spec["name"]
            values = [r[name] for r in runs if name in r]
            if not values:
                continue
            q1, _, q3 = quartiles(values)
            log(f"{workload:<16} {name:<40} {spec['unit']:<6} "
                f"{statistics.median(values):>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{100 * relative_iqr(values):>7.1f}%")


def suite(args, bench):
    if args.build_dir:
        binary = Path(args.build_dir) / "bench_e2e"
        scratch = Path(args.build_dir) / "scratch"
    else:
        binary = build(build_dir() / "cmake")
        scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in bench["workloads"]]
    untraced = {w: [] for w in names}
    layers = {w: [] for w in names}
    ok = True
    started = time.time()
    for rep in range(args.reps):
        seed = args.seed + rep if args.vary_seed else args.seed
        for workload in (names if rep % 2 == 0 else list(reversed(names))):
            result = run_binary(binary, scratch, workload, seed, args.seconds, smoke=args.smoke)
            ok &= result["correct"]
            untraced[workload].append(
                {k: v["value"] for k, v in result["metrics"].items()})
            log(f"rep {rep} {workload} seed {seed}: correct={result['correct']} "
                f"({time.time() - started:.0f} s elapsed)")
    if args.trace == 1:
        for rep in range(args.reps):
            seed = args.seed + rep if args.vary_seed else args.seed
            for workload in names:
                base = statistics.median(r["run_s"] for r in untraced[workload])
                traced, per_layer, trace_out = run_traced(
                    binary, scratch, workload, seed, args.seconds, base, args.smoke)
                ok &= traced["correct"]
                layers[workload].append({k: v["value"] for k, v in per_layer.items()})
                log(f"traced {workload} seed {seed}: spans in {trace_out}")
    print_table("end-to-end (tracing off)", untraced, bench["end_to_end"])
    if args.trace == 1:
        print_table("per layer (traced run + layer replay)", layers, bench["per_layer"])
    if args.smoke:
        for workload in names:
            for r in untraced[workload]:
                select(r, bench["end_to_end"], workload)
            for r in layers[workload]:
                select(r, bench["per_layer"], workload)
        log("smoke: every BENCHMARK.json metric present; verification "
            + ("passed" if ok else "FAILED"))
    out = {"seed": args.seed, "vary_seed": args.vary_seed, "seconds": args.seconds,
           "reps": args.reps, "correct": ok,
           "workloads": {w: {"end_to_end": untraced[w], "per_layer": layers[w]}
                         for w in names}}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
        log(f"wrote {args.out}")
    return 0 if ok else 1


def compare(args, bench):
    """Choosing-metrics section 8: a claimed (workload, metric) must win at
    least 9/10 of the pairs and its median must move by more than the
    parent's IQR; every other metric must stay within its bound, or is
    reported unresolved when its own spread exceeds the bound."""
    with open(args.compare[0]) as f:
        parent = json.load(f)["workloads"]
    with open(args.compare[1]) as f:
        change = json.load(f)["workloads"]
    claims = set(args.claim or [])
    failed = False
    for workload in parent:
        if workload not in change:
            continue
        cells = []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r[name] for r in parent[workload]["end_to_end"]]
            c = [r[name] for r in change[workload]["end_to_end"]]
            if not p or not c:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            pm, cm = statistics.median(p), statistics.median(c)
            q1, _, q3 = quartiles(p)
            delta = sign * (cm - pm) / pm if pm else 0.0  # > 0 means worse
            spread = max(relative_iqr(p), relative_iqr(c))
            if f"{workload}:{name}" in claims:
                pairs = list(zip(p, c))
                wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
                met = wins >= 0.9 * len(pairs) and sign * (pm - cm) > (q3 - q1)
                status = f"claim {'MET' if met else 'NOT MET'} ({wins}/{len(pairs)} wins)"
                failed |= not met
            elif spread > spec["bound"]:
                better_everywhere = max(sign * v for v in c) < min(sign * v for v in p)
                status = "better" if better_everywhere else "unresolved"
            elif delta > spec["bound"]:
                status = "REGRESSION"
                failed = True
            else:
                status = "ok"
            change_pct = 100 * (cm - pm) / pm if pm else 0.0
            cells.append(f"{name}: {status} ({change_pct:+.1f}% vs parent median)")
        print(f"{workload:<16} " + " | ".join(cells))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--claim", action="append")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.compare:
        return compare(args, bench)
    if args.smoke:
        args.reps, args.trace = 1, 1
        return suite(args, bench)
    if args.reps:
        return suite(args, bench)
    if not args.workload:
        parser.error("--workload, --reps, --smoke or --compare is required")
    return single_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
