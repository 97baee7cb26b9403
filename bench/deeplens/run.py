#!/usr/bin/env python3
"""Builds and runs the DeepLens end-to-end benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 bench/deeplens/run.py --workload meta_mix --seed 1 \\
        --seconds 20 --trace 0

prints, as the last line of stdout, {"correct", "attempted", "failed",
"metrics"} with every end-to-end metric of BENCHMARK.json (--trace 0) or
every per-layer metric (--trace 1), each with its unit. A traced run also
leaves its spans in <build dir>/traces/<workload>-seed<N>.jsonl.

Without --workload it runs every workload --reps times untraced (seeds
--seed, --seed + 1, ...) and once traced (seed --seed), each in its own
process, and prints each metric's median, quartiles and sample count:

    python3 bench/deeplens/run.py [--reps 5] [--seed 1] [--out FILE]
    python3 bench/deeplens/run.py --check   # 2 s per workload, one rep

The benchmark builds itself (CMake, Release) into --build-dir, else
$CARGO_TARGET_DIR, else .bench_build at the repository root, and keeps
its databases there while a run lasts. Every run gets
DEEPLENS_NUM_THREADS = the core count minus the two load threads (at
least 1) and no other DEEPLENS_* variable, so all other knobs are at
their library defaults.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
CHECK_SECONDS = 2
MIN_TRACE_COVERAGE = 0.9
MAX_LOAD_THREADS = 2  # the most load threads any workload runs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir(arg):
    path = Path(arg or os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures (once) and builds the driver; returns the binary path."""
    tree = bdir / "deeplens"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("build failed: " + " ".join(cmd))
    return tree / "bench_deeplens"


def pool_threads():
    """Morsel pool width: the cores left over by the load threads, so the
    process never has more runnable threads than the machine has cores."""
    return max(1, (os.cpu_count() or 1) - MAX_LOAD_THREADS)


def bench_env(scratch):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DEEPLENS_")}
    env["DEEPLENS_NUM_THREADS"] = str(pool_threads())
    env["TMPDIR"] = str(scratch)
    return env


def run_once(binary, bdir, workload, seed, seconds, trace):
    """Runs the driver once; returns its raw result object."""
    scratch = bdir / "scratch" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--duration_s", str(seconds), "--scratch", str(scratch / "run")]
    if trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=bench_env(scratch), timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload}: wrong answers (exit "
                           f"{proc.returncode}, {result['failed']} failed)")
    result["config"]["DEEPLENS_NUM_THREADS"] = pool_threads()
    return result


def shape(result, spec, trace):
    """The declared metrics of one mode, with units, in output form."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in result["metrics"]:
            raise RuntimeError(f"metric {m['name']} not emitted")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def single(args, spec):
    bdir = build_dir(args.build_dir)
    binary = build(bdir)
    result = run_once(binary, bdir, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    log("config: " + json.dumps(result["config"]))
    print(json.dumps(shape(result, spec, args.trace == 1)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def multi(args, spec):
    bdir = build_dir(args.build_dir)
    binary = build(bdir)
    seconds = CHECK_SECONDS if args.check else spec["run_seconds"]
    reps = 1 if args.check else args.reps
    report = {"seconds": seconds, "reps": reps, "workloads": {}}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        samples = {}
        config = None
        rates = []
        for rep in range(reps + 1):
            trace = rep == reps  # the last run is the traced one
            seed = args.seed + (0 if trace else rep)
            log(f"{name}: {'traced' if trace else 'rep ' + str(rep + 1)} "
                f"(seed {seed})")
            try:
                result = run_once(binary, bdir, name, seed, seconds, trace)
                shaped = shape(result, spec, trace)
            except RuntimeError as e:
                problems.append(str(e))
                break
            config = result["config"]
            rates.append(result["metrics"]["requests_per_s"])
            if shaped["failed"]:
                problems.append(f"{name}: {shaped['failed']} failed requests")
            for metric, v in shaped["metrics"].items():
                samples.setdefault(metric, (v["unit"], []))[1].append(
                    v["value"])
        report["workloads"][name] = {"config": config, "metrics": {}}
        print(f"\n{name}  (config {json.dumps(config)})")
        print(f"  {'metric':36} {'unit':10} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3}")
        for metric, (unit, values) in samples.items():
            q1, med, q3 = quartiles(values)
            report["workloads"][name]["metrics"][metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "values": values}
            print(f"  {metric:36} {unit:10} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {len(values):3d}")
        if len(rates) == reps + 1:
            overhead = 1 - rates[-1] / statistics.median(rates[:-1])
            report["workloads"][name]["measured_trace_overhead"] = overhead
            print(f"  measured tracing overhead (1 - traced/untraced "
                  f"requests_per_s): {overhead:.4f}")
        coverage = samples.get("trace.coverage", (None, [0.0]))[1]
        if args.check and min(coverage) < MIN_TRACE_COVERAGE:
            problems.append(f"{name}: trace.coverage {min(coverage):.3f} "
                            f"< {MIN_TRACE_COVERAGE}")
    out = Path(args.out) if args.out else bdir / "summary.json"
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    log(f"summary written to {out}")
    for p in problems:
        log("FAIL: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", help="summary JSON (default: in the "
                        "build directory)")
    parser.add_argument("--check", action="store_true",
                        help="short smoke run of every workload")
    args = parser.parse_args()
    try:
        if args.reps < 1:
            raise ValueError("--reps must be at least 1")
        spec = load_spec()
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise RuntimeError(f"unknown workload {args.workload}")
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            single(args, spec)
            return 0
        return multi(args, spec)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
