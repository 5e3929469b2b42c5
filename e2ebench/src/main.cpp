// caraml_e2e: one workload of the end-to-end benchmark per process.
//
//   caraml_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: every call into a layer's public function becomes
// a span on a benchmark-owned tracer, per-layer metrics are medians of those
// spans, and the spans are written as a Chrome trace that must load in
// `caraml analyse-trace`. Human-readable lines come first; the last line of
// standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 0 only when every output check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <thread>

#include "analysis/analyse.hpp"
#include "catalogue.hpp"
#include "telemetry/json.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

#ifndef CARAML_E2E_BUILD_TYPE
#define CARAML_E2E_BUILD_TYPE "unknown"
#endif

namespace caraml::e2e {
namespace {

namespace json = telemetry::json;

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepetitions = 5;
// The traced run alternates this many untraced and traced blocks of the
// measured workload, so host drift hits both sides of trace.overhead_ratio.
constexpr int kOverheadBlocks = 3;

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "gpt_train") return make_gpt_train(options);
  if (name == "gpt_decode") return make_gpt_decode(options);
  if (name == "resnet_train") return make_resnet_train(options);
  if (name == "sim_sweep") return make_sim_sweep(options);
  throw InvalidArgument("unknown workload '" + name + "'");
}

struct Measured {
  double items = 0.0;    // completed by ok units
  double seconds = 0.0;  // wall time of ok units
  std::int64_t units = 0;
  std::vector<double> latencies_ms;
  std::int64_t operations = 0;
  std::int64_t failed = 0;

  /// Throughput over the whole measured region: a mean over time rather
  /// than a median of units, so a run that straddles a slow and a fast phase
  /// of a shared host reads between the two instead of jumping to either.
  double rate() const { return items / seconds; }
};

/// Closed loop: run units back to back for `seconds`, and at least
/// `min_units` of them.
Measured measure(Workload& workload, Probe& probe, double seconds,
                 int min_units) {
  Measured m;
  const Stopwatch watch;
  for (int n = 0; n < min_units || watch.elapsed_seconds() < seconds; ++n) {
    const Unit unit = workload.run_unit(probe);
    const auto operations = static_cast<std::int64_t>(unit.operations);
    m.operations += operations;
    if (!unit.ok || !(unit.seconds > 0.0)) {
      m.failed += operations;
      continue;
    }
    m.items += unit.items;
    m.seconds += unit.seconds;
    ++m.units;
    m.latencies_ms.insert(m.latencies_ms.end(), unit.latencies_ms.begin(),
                          unit.latencies_ms.end());
  }
  return m;
}

std::string host_fingerprint() {
  std::string isa;
  const auto add = [&isa](bool supported, const char* feature) {
    if (supported) isa += (isa.empty() ? "" : ",") + std::string(feature);
  };
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " isa=" + (isa.empty() ? "baseline" : isa) +
         " compiler=\"" __VERSION__ "\" build=" CARAML_E2E_BUILD_TYPE;
}

int pinned_threads() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, nproc));
}

/// Every declared metric present with its declared unit and nothing else.
void validate(const Metrics& metrics, const std::vector<MetricSpec>& specs) {
  std::set<std::string> declared;
  for (const auto& spec : specs) {
    declared.insert(spec.name);
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) throw Error("metric not measured: " + spec.name);
    if (it->second.unit != spec.unit) {
      throw Error("metric " + spec.name + " has unit " + it->second.unit +
                  ", declared " + spec.unit);
    }
  }
  for (const auto& [name, metric] : metrics) {
    if (declared.count(name) == 0) throw Error("undeclared metric: " + name);
  }
}

int run(const Options& options) {
  Checks checks;
  Metrics metrics;
  Metrics outputs;
  std::int64_t operations = 0;
  std::int64_t failed_operations = 0;
  std::unique_ptr<Workload> workload;
  Probe untraced;

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << " threads " << options.threads
            << " sweep_jobs " << options.threads << "\n"
            << "host " << host_fingerprint() << "\n";

  if (!options.trace) {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepetitions; ++r) {
      workload = make_workload(options.workload, options);
      const Stopwatch watch;
      workload->setup(untraced);
      setup_s.push_back(watch.elapsed_seconds());
    }
    const Measured m = measure(*workload, untraced, options.seconds,
                               workload->min_units());
    operations = m.operations;
    failed_operations = m.failed;
    workload->check(checks);
    workload->outputs(outputs);
    outputs["latency_ms_p50"] = {percentile_of(m.latencies_ms, 50.0), "ms"};
    outputs["latency_ms_p90"] = {percentile_of(m.latencies_ms, 90.0), "ms"};
    metrics["setup_s"] = {median_of(setup_s), "s"};
    metrics["items_per_s"] = {m.rate(), "items/s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    const Workload::Names names = workload->names();
    std::cout << "samples " << m.units << " units, "
              << m.latencies_ms.size() << " latencies (" << names.latency
              << ")\n"
              << "alias " << names.rate << " = items_per_s ("
              << names.rate_unit << "), " << names.latency
              << "_p50/_p90 = latency_ms_p50/_p90\n";
    validate(metrics, end_to_end_specs());
  } else {
    telemetry::Tracer tracer;
    tracer.set_enabled(true);
    Probe traced(&tracer);
    workload = make_workload(options.workload, options);
    workload->setup(traced);
    Measured halves[2];  // [0] untraced blocks, [1] traced blocks
    const int blocks = 2 * kOverheadBlocks;
    const double block_s = options.seconds / blocks;
    const int block_units = (workload->min_units() + blocks - 1) / blocks;
    for (int b = 0; b < blocks; ++b) {
      const bool on = b % 2 == 1;
      const Measured m =
          measure(*workload, on ? traced : untraced, block_s, block_units);
      halves[on].items += m.items;
      halves[on].seconds += m.seconds;
      operations += m.operations;
      failed_operations += m.failed;
    }
    workload->check(checks);
    workload->outputs(outputs);
    workload->layer_metrics(traced, metrics);
    metrics["trace.overhead_ratio"] = {halves[1].rate() / halves[0].rate(),
                                       "ratio"};
    // The other workloads' layers, from short traced probes. A probed
    // workload that is not declared is measured nowhere else, so its output
    // checks run here.
    for (const std::string& name : probed_workloads()) {
      if (name == options.workload) continue;
      const auto side = make_workload(name, options);
      side->setup(traced);
      measure(*side, traced, 0.0, side->probe_units());
      side->layer_metrics(traced, metrics);
      const auto& declared = workload_specs();
      if (std::none_of(declared.begin(), declared.end(),
                       [&](const WorkloadSpec& w) { return w.name == name; })) {
        side->check(checks);
      }
    }
    replay_layers(traced, options.seed, metrics);

    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    tracer.write_chrome_trace(path);
    std::size_t loaded = 0;
    try {
      loaded = analysis::analyse_file(path).num_spans;
    } catch (const std::exception& e) {
      std::cout << "analyse-trace error: " << e.what() << "\n";
    }
    checks.expect(loaded == tracer.spans().size() && loaded > 0,
                  "trace: " + path + " loads in analyse-trace with all " +
                      std::to_string(tracer.spans().size()) + " spans");
    std::cout << "trace " << path << " (" << tracer.spans().size()
              << " spans)\n";
    validate(metrics, per_layer_specs());
  }

  // End-to-end metrics are declared never to be 0; per-layer ratios may be.
  std::string bad;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value) || (!options.trace && metric.value <= 0)) {
      bad += " " + name;
    }
  }
  checks.expect(bad.empty(), options.trace
                                 ? "every metric is finite" + bad
                                 : "every metric is finite and positive" + bad);
  for (const auto& [name, metric] : metrics) {
    std::cout << "metric " << name << " = " << json::format_number(metric.value)
              << " " << metric.unit << "\n";
  }
  for (const auto& [name, metric] : outputs) {
    std::cout << "output " << name << " = "
              << json::format_number(metric.value) << " " << metric.unit
              << "\n";
  }
  const std::int64_t attempted = operations + checks.run();
  const std::int64_t failed =
      failed_operations + static_cast<std::int64_t>(checks.failures().size());
  for (const auto& failure : checks.failures()) {
    std::cout << "FAILED " << failure << "\n";
  }
  std::cout << "checks " << checks.run() - checks.failures().size() << "/"
            << checks.run() << " passed; error_rate "
            << json::format_number(static_cast<double>(failed) /
                                   static_cast<double>(attempted))
            << " (" << failed << " failed of " << attempted << " attempted)\n";

  json::Value metric_doc(json::Object{});
  for (const auto& [name, metric] : metrics) {
    json::Value entry(json::Object{});
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metric_doc.set(name, std::move(entry));
  }
  json::Value result(json::Object{});
  const bool correct = failed == 0;
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metric_doc));
  std::cout << json::dump(result) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace caraml::e2e

int main(int argc, char** argv) {
  using namespace caraml;
  using namespace caraml::e2e;
  ArgParser parser("caraml_e2e", "end-to-end CARAML benchmark, one workload");
  parser.add_option("workload", "gpt_train|gpt_decode|resnet_train|sim_sweep",
                    std::string(""));
  parser.add_option("seed", "workload seed", std::string("1"));
  parser.add_option("seconds", "measured seconds", std::string("10"));
  parser.add_option("trace", "0 = end-to-end run, 1 = traced run",
                    std::string("0"));
  parser.add_option("threads", "tensor threads and sweep jobs (0 = min(4, nproc))",
                    std::string("0"));
  parser.add_option("out-dir", "directory for traces and sweep caches",
                    std::string(".bench_build/out"));
  parser.add_option("loss-check", "internal: print gpt_train loss bits",
                    std::string("0"));
  parser.add_flag("catalogue", "print the declared workloads and metrics");
  try {
    if (!parser.parse(argc, argv)) return 0;
    if (parser.get_flag("catalogue")) {
      std::cout << catalogue_json() << "\n";
      return 0;
    }
    Options options;
    options.workload = parser.get("workload");
    options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    options.seconds = parser.get_double("seconds");
    options.trace = parser.get_int("trace") != 0;
    options.threads = static_cast<int>(parser.get_int("threads"));
    if (options.threads <= 0) options.threads = pinned_threads();
    options.out_dir = parser.get("out-dir");
    options.loss_check_steps = static_cast<int>(parser.get_int("loss-check"));
    // Pin the tensor pool before anything touches it.
    setenv("CARAML_NUM_THREADS", std::to_string(options.threads).c_str(), 1);
    if (options.loss_check_steps > 0) {
      std::cout << gpt_train_loss_bits(options);
      return 0;
    }
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "caraml_e2e: " << e.what() << "\n";
    return 2;
  }
}
