#!/usr/bin/env python3
"""Record and compare google-benchmark JSON results against a committed baseline.

Stdlib-only perf-regression harness for the tensor microbenchmarks:

    # produce fresh numbers (single-thread for machine-independent gating)
    CARAML_NUM_THREADS=1 ./build/bench/micro_tensor_ops \
        --benchmark_format=json --benchmark_out=bench.json

    # snapshot them as the committed baseline
    python3 scripts/bench_perf.py record bench.json BENCH_tensor.json \
        --note "post kernel-library rewrite"

    # CI: fail when any benchmark got >25% slower than the baseline
    python3 scripts/bench_perf.py compare BENCH_tensor.json bench.json \
        --max-regression 0.25

    # CI: fail when the multi-thread speedup curve collapses — e.g. a grain
    # bug that serializes the pool shows up here even if absolute single-run
    # times stay within the compare tolerance
    python3 scripts/bench_perf.py scaling \
        BENCH_tensor.json BENCH_tensor_mt.json st.json mt.json --max-drop 0.20

    # CI: fail when a bf16/int8 kernel's speedup over its fp32 twin drops
    # >20% below the committed baseline. Pairing is by name: a benchmark
    # containing "Bf16" or "Int8" gates against the benchmark named the same
    # minus that token (BM_MatmulBf16Wide/4096 <-> BM_MatmulWide/4096).
    python3 scripts/bench_perf.py dtype-speedup \
        BENCH_tensor_dtype.json fresh.json --max-drop 0.20

Comparison uses real_time (the kernels run on a thread pool; CPU time of the
benchmark thread measures dispatch, not compute). `compare` fails when a
baseline benchmark is missing from the results, so deleting or renaming a
benchmark cannot switch its own gate off: retiring one means dropping its key
from the baseline. New benchmarks are only reported, and `scaling` gates only
the benchmarks present in all four files. All
subcommands accept either raw google-benchmark JSON or a baseline previously
written by `record`.
"""
import argparse
import json
import sys


def load_benchmarks(path):
    """Return {name: real_time_ns} from benchmark or baseline JSON.

    Accepts either raw google-benchmark output (a list of benchmark dicts) or
    a baseline file written by `record` (a flat {name: ns} mapping), so the
    scaling check can mix committed baselines with fresh CI runs.
    """
    with open(path) as handle:
        data = json.load(handle)
    benches = data.get("benchmarks", [])
    if isinstance(benches, dict):  # `record` baseline: already {name: ns}
        out = {name: float(ns) for name, ns in benches.items()}
        if not out:
            sys.exit(f"{path}: no benchmarks found")
        return out
    out = {}
    for bench in benches:
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None:
            sys.exit(f"{path}: benchmark entry is missing its 'name' key")
        if "real_time" not in bench:
            sys.exit(f"{path}: benchmark '{name}' is missing its 'real_time' key")
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            sys.exit(f"{path}: unknown time_unit '{unit}' in {name}")
        out[name] = float(bench["real_time"]) * scale
    if not out:
        sys.exit(f"{path}: no benchmarks found")
    return out


def cmd_record(args):
    benchmarks = load_benchmarks(args.results)
    baseline = {
        "note": args.note,
        "time_unit": "ns",
        "metric": "real_time",
        "benchmarks": {name: round(ns, 3) for name, ns in sorted(benchmarks.items())},
    }
    with open(args.baseline, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"recorded {len(benchmarks)} benchmarks -> {args.baseline}")
    return 0


def cmd_compare(args):
    base = load_benchmarks(args.baseline)
    current = load_benchmarks(args.results)

    failures = []
    missing = []
    width = max(len(name) for name in sorted(set(base) | set(current)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in sorted(set(base) | set(current)):
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  {current[name]:>10.0f}ns  (new)")
            continue
        if name not in current:
            # A deleted or renamed benchmark would otherwise switch its own
            # gate off silently.
            print(f"{name:<{width}}  {base[name]:>10.0f}ns  {'-':>12}  MISSING")
            missing.append(name)
            continue
        ratio = current[name] / base[name]
        delta = ratio - 1.0
        marker = ""
        if delta > args.max_regression:
            marker = "  REGRESSION"
            failures.append((name, delta))
        print(
            f"{name:<{width}}  {base[name]:>10.0f}ns  {current[name]:>10.0f}ns"
            f"  {delta:+7.1%}{marker}"
        )

    if missing:
        print(
            f"\nFAIL: {len(missing)} baseline benchmark(s) missing from "
            f"{args.results}:"
        )
        for name in missing:
            print(f"  {name}")
    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%}:"
        )
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}")
    if missing or failures:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.max_regression:.0%}")
    return 0


def cmd_scaling(args):
    base_st = load_benchmarks(args.baseline_st)
    base_mt = load_benchmarks(args.baseline_mt)
    cur_st = load_benchmarks(args.results_st)
    cur_mt = load_benchmarks(args.results_mt)

    # Only benchmarks present in all four files carry a comparable speedup;
    # one-sided benches are reported but never fail, matching `compare`.
    names = sorted(set(base_st) & set(base_mt) & set(cur_st) & set(cur_mt))
    skipped = sorted((set(base_st) | set(base_mt) | set(cur_st) | set(cur_mt)) - set(names))
    if not names:
        sys.exit("scaling: no benchmark appears in all four files")

    failures = []
    width = max(len(name) for name in names)
    print(f"{'benchmark':<{width}}  {'base MT/ST':>10}  {'cur MT/ST':>10}  delta")
    for name in names:
        base_speedup = base_st[name] / base_mt[name]
        cur_speedup = cur_st[name] / cur_mt[name]
        delta = cur_speedup / base_speedup - 1.0
        marker = ""
        if cur_speedup < base_speedup * (1.0 - args.max_drop):
            marker = "  SCALING LOSS"
            failures.append((name, delta))
        print(
            f"{name:<{width}}  {base_speedup:>9.2f}x  {cur_speedup:>9.2f}x"
            f"  {delta:+7.1%}{marker}"
        )
    for name in skipped:
        print(f"{name:<{width}}  (not in all four files, skipped)")

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) lost more than "
            f"{args.max_drop:.0%} of their multi-thread speedup:"
        )
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(f"\nOK: no benchmark lost more than {args.max_drop:.0%} of its speedup")
    return 0


def dtype_pairs(names):
    """Yield (dtype_bench, fp32_partner) for every Bf16/Int8 benchmark name."""
    for name in sorted(names):
        for token in ("Bf16", "Int8"):
            if token in name:
                yield name, name.replace(token, "", 1)
                break


def cmd_dtype_speedup(args):
    base = load_benchmarks(args.baseline)
    current = load_benchmarks(args.results)

    pairs = list(dtype_pairs(base))
    if not pairs:
        sys.exit(f"{args.baseline}: no Bf16/Int8 benchmark to gate")
    # Unlike compare/scaling, a missing half of a tagged pair is an error, not
    # a skip: silently dropping the fp32 anchor (or the dtype bench) would
    # disarm the gate without failing anything.
    for name, partner in pairs:
        for key, path, mapping in (
            (partner, args.baseline, base),
            (name, args.results, current),
            (partner, args.results, current),
        ):
            if key not in mapping:
                sys.exit(
                    f"{path}: missing benchmark '{key}' needed to gate the "
                    f"dtype speedup of '{name}'"
                )

    failures = []
    width = max(len(name) for name, _ in pairs)
    print(f"{'benchmark':<{width}}  {'base vs fp32':>12}  {'cur vs fp32':>12}  delta")
    for name, partner in pairs:
        base_speedup = base[partner] / base[name]
        cur_speedup = current[partner] / current[name]
        delta = cur_speedup / base_speedup - 1.0
        marker = ""
        if cur_speedup < base_speedup * (1.0 - args.max_drop):
            marker = "  SPEEDUP LOSS"
            failures.append((name, delta))
        print(
            f"{name:<{width}}  {base_speedup:>11.2f}x  {cur_speedup:>11.2f}x"
            f"  {delta:+7.1%}{marker}"
        )

    if failures:
        print(
            f"\nFAIL: {len(failures)} dtype benchmark(s) lost more than "
            f"{args.max_drop:.0%} of their speedup over fp32:"
        )
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(
        f"\nOK: no dtype benchmark lost more than {args.max_drop:.0%} of its "
        "speedup over fp32"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="snapshot benchmark JSON as a baseline")
    rec.add_argument("results", help="google-benchmark JSON output")
    rec.add_argument("baseline", help="baseline file to write")
    rec.add_argument("--note", default="", help="provenance note stored in the baseline")
    rec.set_defaults(func=cmd_record)

    cmp_ = sub.add_parser("compare", help="compare benchmark JSON to a baseline")
    cmp_.add_argument("baseline", help="committed baseline file")
    cmp_.add_argument("results", help="fresh google-benchmark JSON output")
    cmp_.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fail when current/baseline - 1 exceeds this (default 0.25)",
    )
    cmp_.set_defaults(func=cmd_compare)

    sca = sub.add_parser(
        "scaling",
        help="compare the MT/ST speedup per benchmark against a baseline pair",
    )
    sca.add_argument("baseline_st", help="committed single-thread baseline")
    sca.add_argument("baseline_mt", help="committed multi-thread baseline")
    sca.add_argument("results_st", help="fresh single-thread benchmark JSON")
    sca.add_argument("results_mt", help="fresh multi-thread benchmark JSON")
    sca.add_argument(
        "--max-drop",
        type=float,
        default=0.20,
        help="fail when a benchmark's MT/ST speedup falls below "
        "baseline * (1 - this) (default 0.20)",
    )
    sca.set_defaults(func=cmd_scaling)

    dts = sub.add_parser(
        "dtype-speedup",
        help="gate the bf16/int8 speedup over fp32 name-pairs against a baseline",
    )
    dts.add_argument("baseline", help="committed baseline with the dtype pairs")
    dts.add_argument("results", help="fresh google-benchmark JSON output")
    dts.add_argument(
        "--max-drop",
        type=float,
        default=0.20,
        help="fail when a pair's dtype/fp32 speedup falls below "
        "baseline * (1 - this) (default 0.20)",
    )
    dts.set_defaults(func=cmd_dtype_speedup)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
