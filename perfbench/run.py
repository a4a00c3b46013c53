#!/usr/bin/env python3
"""One benchmark run of one workload, from the root of a source checkout.

    python3 perfbench/run.py --workload ingest|query --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # unit tests of the client's helpers

Builds the benchmark package (perfbench/CMakeLists.txt, which pulls in the
repository's libraries and the crh_serve daemon) into .bench_build, then
runs perfbench_client in a scratch directory under .bench_work and streams
its report. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Exits nonzero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
# A run (after the build) must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log(f"no crh source tree at {ROOT}; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_client(args):
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [
        os.path.join(BUILD_DIR, "perfbench_client"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-binary", os.path.join(BUILD_DIR, "crh", "src", "crh_serve"),
        "--workdir", workdir,
    ]
    result = None
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                result = line.strip()
            else:
                print(line, end="", flush=True)
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or result is None:
        log(f"perfbench_client failed (exit {proc.returncode})")
        return 1
    parsed = json.loads(result)
    if set(parsed) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(result, flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ingest", "query"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench_client"):
        return 1
    return run_client(args)


if __name__ == "__main__":
    sys.exit(main())
