#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload clean-loop --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The program (perfbench/src) is compiled
against the repository's library into .bench_build/perfbench; the first run
builds it. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where the metrics are every
end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1). A traced run also writes its spans to
.bench_build/traces/<workload>-seed<seed>.tsv. Exits non-zero when an
output check fails or the program cannot be built.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
# A traced service run measures three times as long as --seconds (the wire
# run and two replays), besides generation, setup and the reference checks.
RUN_TIMEOUT_BASE_S = 60
RUN_TIMEOUT_PER_SECOND = 5


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR] + generator
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", "4"]
    for _ in range(2):
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                continue
        if subprocess.call(compile_, stdout=sys.stderr) == 0:
            return os.path.join(BUILD_DIR, "perfbench")
        # A cache left by another source tree cannot be reused: start over.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
    log("build failed")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}

    binary = build()
    if binary is None:
        return 2

    work_dir = os.path.join(BUILD_ROOT, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--trace-out", os.path.join(
                   trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    timeout = RUN_TIMEOUT_BASE_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench exceeded %.0f s" % timeout)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = {}
    result = None
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "metric":
            measured[fields[1]] = float(fields[2])
        elif len(fields) == 4 and fields[0] == "result":
            result = (fields[1] == "1", int(fields[2]), int(fields[3]))
    if result is None:
        log("perfbench exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    correct, attempted, failed = result
    unknown = sorted(set(measured) - known)
    if unknown:
        log("perfbench reported metrics BENCHMARK.json does not define: %s"
            % ", ".join(unknown))
        return 3

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            value = 0.0  # the layer does no work on this workload
        else:
            log("perfbench did not report %s" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = correct and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
