#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark.

Runs every workload briefly, untraced and traced, and checks the result line
(keys, metric names, units, finite values) against BENCHMARK.json; checks
BENCHMARK.json against its format rules and against the catalogue the
binary declares; loads a traced run's Chrome trace with the `caraml
analyse-trace` CLI; and checks that run.py fails without printing a result in
a directory that holds only BENCHMARK.json and e2ebench/.

    python3 e2ebench/smoke_test.py

Exit code 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py next to this file)

SMOKE_SECONDS = "1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok, what):
    print(("ok     " if ok else "FAILED ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_schema(doc):
    expect(set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the required keys")
    command = doc["command"]
    expect(isinstance(command, list) and 1 <= len(command) <= 32 and
           all(isinstance(a, str) and len(a) <= 200 and
               not a.startswith("/") and ".." not in a.split("/")
               for a in command),
           "command is a list of at most 32 short relative strings")
    paths = doc["paths"]
    expect(1 <= len(paths) <= 16 and all(PATH.match(p) for p in paths),
           "paths are 1-16 relative directory names")
    expect(all(os.path.isdir(os.path.join(run.ROOT, p)) for p in paths),
           "every path is a directory of the repository")
    expect(isinstance(doc["run_seconds"], int) and
           1 <= doc["run_seconds"] <= 60, "run_seconds is 1..60")
    names = []
    expect(2 <= len(doc["workloads"]) <= 8, "2..8 workloads")
    for w in doc["workloads"]:
        expect(set(w) == {"name", "why"} and NAME.match(w["name"]) and
               0 < len(w["why"]) <= 200 and "\n" not in w["why"],
               "workload %s is well formed" % w.get("name"))
        names.append(w["name"])
    expect(1 <= len(doc["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    for m in doc["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and
               NAME.match(m["name"]) and UNIT.match(m["unit"]) and
               m["better"] in ("higher", "lower") and
               0 < m["bound"] <= 0.25,
               "end-to-end metric %s is well formed" % m.get("name"))
        names.append(m["name"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
           "setup_s is declared in s, lower, with the largest bound")
    expect(1 <= len(doc["per_layer"]) <= 128, "1..128 per-layer metrics")
    for m in doc["per_layer"]:
        expect(set(m) == {"name", "unit", "better"} and
               NAME.match(m["name"]) and UNIT.match(m["unit"]) and
               m["better"] in ("higher", "lower"),
               "per-layer metric %s is well formed" % m.get("name"))
        names.append(m["name"])
    expect(len(names) == len(set(names)), "every name is used once")
    expect(len(json.dumps(doc)) <= 64 * 1024, "BENCHMARK.json is under 64 KiB")


def check_result(workload, trace, declared):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
         SMOKE_SECONDS, "--trace", str(trace), "--out-dir", run.OUT_DIR],
        capture_output=True, text=True, cwd=run.ROOT)
    label = "%s trace=%d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, label + ": last line is a JSON result")
        return None
    expect(proc.returncode == 0 and result.get("correct") is True,
           label + ": exits 0 with correct=true" +
           "".join("\n         " + l for l in lines if l.startswith("FAILED")))
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           label + ": result has exactly correct/attempted/failed/metrics")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int),
           label + ": attempted >= 1 and failed are whole numbers")
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           label + ": reports exactly the declared metrics")
    for name, spec in declared.items():
        value = metrics.get(name, {})
        ok = (value.get("unit") == spec["unit"] and
              isinstance(value.get("value"), (int, float)) and
              math.isfinite(value["value"]))
        if trace == 0:
            ok = ok and value["value"] > 0
        expect(ok, label + ": %s is a finite number in %s" %
               (name, spec["unit"]))
    return result


def check_bare_directory(doc):
    """run.py in a directory holding only BENCHMARK.json and the paths."""
    bare = os.path.join(run.BUILD_ROOT, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in doc["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path))
    proc = subprocess.run(
        doc["command"] + ["--workload", doc["workloads"][0]["name"], "--seed",
                          "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    printed_result = any(line.startswith("{")
                         for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "without src/ the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    expect(run.build(), "benchmark builds")
    if failures:
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    check_schema(doc)
    catalogue = json.loads(subprocess.run(
        [run.BINARY, "--catalogue"], capture_output=True, text=True,
        check=True).stdout)
    expect(all(doc[key] == catalogue[key]
               for key in ("workloads", "end_to_end", "per_layer")),
           "BENCHMARK.json matches the binary's catalogue "
           "(regenerate with run.py --write-benchmark-json)")
    expect(doc["run_seconds"] == run.RUN_SECONDS and
           [w["name"] for w in doc["workloads"]] == run.WORKLOADS,
           "run.py agrees with BENCHMARK.json on run_seconds and workloads")

    end_to_end = {m["name"]: m for m in doc["end_to_end"]}
    per_layer = {m["name"]: m for m in doc["per_layer"]}
    for w in doc["workloads"]:
        check_result(w["name"], 0, end_to_end)
        check_result(w["name"], 1, per_layer)

    # The traced run's Chrome trace must load in the CLI, not only in the
    # library call the run itself makes.
    cli_build = subprocess.run(
        ["cmake", "--build", run.BUILD_DIR, "--target", "caraml_cli", "-j",
         str(min(4, os.cpu_count() or 1))], capture_output=True, text=True)
    expect(cli_build.returncode == 0, "caraml CLI builds")
    cli = os.path.join(run.BUILD_DIR, "caraml", "core", "caraml")
    trace = os.path.join(run.OUT_DIR, "trace-%s-3.json" %
                         doc["workloads"][0]["name"])
    proc = subprocess.run([cli, "analyse-trace", "--format", "json", trace],
                          capture_output=True, text=True)
    expect(proc.returncode == 0 and json.loads(proc.stdout).get("version") == 1,
           "caraml analyse-trace loads " + os.path.relpath(trace, run.ROOT))

    check_bare_directory(doc)
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
