#!/usr/bin/env python3
"""End-to-end CARAML benchmark driver.

Builds the benchmark binary from the repository sources (into .bench_build/
at the repository root) and runs one workload per process:

    python3 e2ebench/run.py --workload gpt_train --seed 1 --seconds 15 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is nonzero when
the build fails or an output check fails.

Without --workload it runs every workload, untraced and traced, prints every
metric with its unit and exits nonzero if any check failed. With
--write-benchmark-json it regenerates BENCHMARK.json from the binary's
catalogue. See e2ebench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "caraml_e2e")
RUN_SECONDS = 15
WORKLOADS = ["gpt_train", "resnet_train", "sim_sweep"]


def build():
    """Configure once and build; returns False (with the log on stderr) on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "e2ebench-build.log")
    with open(os.path.join(BUILD_ROOT, "e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "caraml_e2e",
                      "-j", jobs])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD_ROOT, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, env=env).returncode != 0:
                    break
            else:
                return True
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            not os.path.exists(BINARY):
        # A failed first configure must not leave a cache that skips it.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.stderr.write("e2ebench: build failed (log: %s)\n" % log_path)
    return False


def run_one(workload, seed, seconds, trace):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", OUT_DIR]
    return subprocess.run(args, cwd=ROOT).returncode


def run_all(seed, seconds):
    """Every workload untraced and traced, in its own process."""
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("=== %s trace=%d" % (workload, trace), flush=True)
            if run_one(workload, seed, seconds, trace) != 0:
                failed.append("%s trace=%d" % (workload, trace))
    print("=== %d of %d runs failed%s" % (
        len(failed), 2 * len(WORKLOADS),
        (": " + ", ".join(failed)) if failed else ""))
    return 1 if failed else 0


def write_benchmark_json():
    catalogue = json.loads(subprocess.run(
        [BINARY, "--catalogue"], check=True, capture_output=True,
        text=True).stdout)
    doc = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": catalogue["workloads"],
        "end_to_end": catalogue["end_to_end"],
        "per_layer": catalogue["per_layer"],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
        json.dump(doc, out, indent=2)
        out.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
