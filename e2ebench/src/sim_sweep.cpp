// sim_sweep: the paper's grids through jube::Benchmark::run with the core
// actions, the check doom gate (caraml run --skip-doomed) and a sweep cache.
//
// LLM grid: Table I GPU systems x single-node device counts x Fig. 2 batches
// x 800M/13B x bf16/fp32. ResNet grid: the Fig. 4 heatmaps over
// core::fig4_device_counts. Each system is its own jube benchmark, because
// its device counts differ. Each timed pass runs every grid
// cold against a fresh cache, then warm against the cache it just wrote.
// The workload touches jube/sim/models/check/analysis and no tensor code.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>

#include <unistd.h>

#include "check/layout_model.hpp"
#include "core/caraml.hpp"
#include "topo/specs.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace caraml::e2e {
namespace {

const std::vector<std::string> kLlmSystems = {"JEDI",    "GH200", "H100",
                                              "WAIH100", "MI250", "A100"};
const std::vector<std::string> kFig4Systems = {
    "JEDI", "GH200", "H100", "WAIH100", "MI250", "A100", "GC200"};

/// One system's grid: devices x global batches (in a seeded order), one
/// step running `action`.
jube::Benchmark system_benchmark(const std::string& name,
                                 const std::string& system,
                                 const std::vector<std::string>& devices,
                                 const std::vector<std::int64_t>& batches,
                                 Rng& rng, const std::string& action) {
  std::vector<std::string> batch_values;
  for (std::int64_t b : batches) batch_values.push_back(std::to_string(b));
  std::shuffle(batch_values.begin(), batch_values.end(), rng);
  jube::Benchmark benchmark(name);
  benchmark.add_parameter_set({"system",
                               {{"system", {system}, ""},
                                {"devices", devices, ""},
                                {"global_batch", batch_values, ""}}});
  benchmark.add_step({"train", {}, action, ""});
  for (const auto& pattern : core::caraml_patterns()) {
    benchmark.add_pattern(pattern);
  }
  return benchmark;
}

/// One workpackage's identity and results as a comparable line.
std::string row_text(const jube::Workpackage& wp) {
  std::ostringstream os;
  os << wp.status;
  for (const auto& [key, value] : wp.context) os << '|' << key << '=' << value;
  for (const auto& [key, value] : wp.analysed) {
    os << '|' << key << '=' << value;
  }
  return os.str();
}

/// What one cold + warm pass saw (kept for traced passes only).
struct PassRecord {
  double cold_s = 0.0;
  double warm_s = 0.0;
  double busy_s = 0.0;  // summed action + doom-gate time of the cold pass
  std::size_t workpackages = 0;
  std::size_t skipped = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
};

class SimSweep : public Workload {
 public:
  explicit SimSweep(const Options& options) : options_(options) {
    core::register_caraml_actions(base_);
    registry_.register_action("llm_train", [this](const jube::Context& c) {
      return timed_action("core.llm_train.action", "llm_train", c);
    });
    registry_.register_action("resnet_train", [this](const jube::Context& c) {
      return timed_action("core.resnet_train.action", "resnet_train", c);
    });
  }

  Names names() const override {
    return {"sweep_wp_per_s", "wp/s", "wp_ms"};
  }
  int min_units() const override { return 5; }
  int probe_units() const override { return 2; }

  void setup(Probe& probe) override {
    // The seed fixes the order the grids expand and dispatch in; the set of
    // workpackages is the paper's and does not depend on it.
    Rng rng(options_.seed);

    benchmarks_.clear();
    std::vector<std::string> llm_systems = kLlmSystems;
    std::shuffle(llm_systems.begin(), llm_systems.end(), rng);
    for (const std::string& tag : llm_systems) {
      // Single-node device counts: a count past the node aborts the whole
      // sweep in sim/cluster.cpp, and the doom gate does not catch it.
      std::vector<std::string> devices;
      const int per_node =
          topo::SystemRegistry::instance().by_tag(tag).devices_per_node;
      for (int d = 1; d <= per_node; d *= 2) devices.push_back(std::to_string(d));
      jube::Benchmark llm = system_benchmark("e2e-llm-" + tag, tag, devices,
                                             core::fig2_batches(), rng,
                                             "llm_train");
      llm.add_parameter_set({"model",
                             {{"micro_batch", {"4"}, ""},
                              {"model", {"800M", "13B"}, ""},
                              {"dtype", {"bf16", "fp32"}, ""}}});
      benchmarks_.push_back(std::move(llm));
    }
    std::vector<std::string> fig4 = kFig4Systems;
    std::shuffle(fig4.begin(), fig4.end(), rng);
    for (const std::string& tag : fig4) {
      std::vector<std::string> devices;
      for (int d : core::fig4_device_counts(tag)) {
        devices.push_back(std::to_string(d));
      }
      benchmarks_.push_back(system_benchmark("e2e-resnet-" + tag, tag, devices,
                                             core::fig4_batches(), rng,
                                             "resnet_train"));
    }
    std::filesystem::create_directories(options_.out_dir);
    // Expand once for the counts; every run() expands again itself.
    workpackages_ = 0;
    {
      auto span = probe.scope("jube.expand");
      for (const auto& benchmark : benchmarks_) {
        workpackages_ += benchmark.expand({}).size();
      }
    }
    records_.clear();
    reference_rows_.clear();
    cold_warm_mismatches_ = 0;
    warm_misses_ = 0;
    energy_failures_ = 0;
    sweep(probe, options_.threads, "");  // warm-up pass, no cache
  }

  Unit run_unit(Probe& probe) override {
    const std::string cache = options_.out_dir + "/sweep-cache-" +
                              std::to_string(getpid()) + ".jsonl";
    std::filesystem::remove(cache);
    Unit unit;
    PassRecord record;
    gate_s_ = 0.0;
    action_ms_.clear();
    std::vector<std::string> cold;
    std::vector<std::string> warm;
    try {
      const Stopwatch cold_watch;
      const std::vector<jube::RunResult> cold_results =
          sweep(probe, options_.threads, cache);
      record.cold_s = cold_watch.elapsed_seconds();
      const Stopwatch warm_watch;
      const std::vector<jube::RunResult> warm_results =
          sweep(probe, options_.threads, cache);
      record.warm_s = warm_watch.elapsed_seconds();
      for (const auto& result : cold_results) {
        record.skipped += result.skipped;
        for (const auto& wp : result.workpackages) cold.push_back(row_text(wp));
      }
      for (const auto& result : warm_results) {
        record.warm_hits += result.cache_hits;
        record.warm_misses += result.cache_misses;
        warm_misses_ += result.cache_misses;
        for (const auto& wp : result.workpackages) warm.push_back(row_text(wp));
      }
      if (reference_rows_.empty()) {
        reference_rows_ = cold;
        energy_failures_ = energy_check(cold_results);
      }
    } catch (const std::exception& e) {
      error_ = e.what();
      unit.ok = false;
    }
    std::filesystem::remove(cache);
    if (cold != warm || cold != reference_rows_) ++cold_warm_mismatches_;
    record.workpackages = cold.size();
    for (double ms : action_ms_) record.busy_s += ms / 1e3;
    record.busy_s += gate_s_;
    if (probe.tracing()) records_.push_back(record);

    unit.items = static_cast<double>(workpackages_);
    unit.operations = static_cast<std::int64_t>(workpackages_);
    unit.seconds = record.cold_s;
    unit.latencies_ms = action_ms_;
    unit.ok = unit.ok && record.workpackages == workpackages_;
    return unit;
  }

  void check(Checks& checks) override {
    checks.expect(error_.empty(), "sim_sweep: no pass aborted" +
                                      (error_.empty() ? "" : " (" + error_ + ")"));
    checks.expect(cold_warm_mismatches_ == 0,
                  "sim_sweep: every cold and warm pass gives the same result "
                  "table");
    checks.expect(warm_misses_ == 0,
                  "sim_sweep: every warm pass is served from the cache (" +
                      std::to_string(warm_misses_) + " misses)");
    checks.expect(energy_failures_ == 0,
                  "sim_sweep: every ok llm_train workpackage reports finite, "
                  "positive tokens_per_wh and energy_wh");
    std::vector<std::string> serial;
    Probe untraced;
    try {
      for (const auto& result : sweep(untraced, 1, "")) {
        for (const auto& wp : result.workpackages) {
          serial.push_back(row_text(wp));
        }
      }
    } catch (const std::exception& e) {
      serial = {e.what()};
    }
    checks.expect(serial == reference_rows_,
                  "sim_sweep: the result table at jobs=1 equals jobs=" +
                      std::to_string(options_.threads));
  }

  void layer_metrics(const Probe& probe, Metrics& out) const override {
    std::vector<double> overhead_ms;
    std::vector<double> busy;
    std::vector<double> warm_rate;
    double hits = 0.0;
    double lookups = 0.0;
    double skipped = 0.0;
    double total = 0.0;
    const double jobs = options_.threads;
    for (const PassRecord& r : records_) {
      const double wps = static_cast<double>(r.workpackages);
      overhead_ms.push_back((r.cold_s * jobs - r.busy_s) / wps * 1e3);
      busy.push_back(r.busy_s / (r.cold_s * jobs));
      warm_rate.push_back(wps / r.warm_s);
      hits += static_cast<double>(r.warm_hits);
      lookups += static_cast<double>(r.warm_hits + r.warm_misses);
      skipped += static_cast<double>(r.skipped);
      total += wps;
    }
    out["jube.expand_ms"] = {probe.median_ms("jube.expand"), "ms"};
    out["jube.overhead_ms_per_wp"] = {median_of(overhead_ms), "ms"};
    out["jube.busy_ratio"] = {median_of(busy), "ratio"};
    out["jube.warm_wp_per_s"] = {median_of(warm_rate), "wp/s"};
    out["jube.cache_hit_ratio"] = {hits / lookups, "ratio"};
    out["core.llm_train.action_ms_p50"] = {
        probe.median_ms("core.llm_train.action"), "ms"};
    out["core.resnet_train.action_ms_p50"] = {
        probe.median_ms("core.resnet_train.action"), "ms"};
    out["core.oom_ratio"] = {oom_ratio_, "ratio"};
    out["core.llm_train.tokens_per_wh_p50"] = {tokens_per_wh_p50_, "tok/Wh"};
    out["check.doom_gate_ms_p50"] = {probe.median_ms("check.doom_gate"), "ms"};
    out["check.skipped_ratio"] = {skipped / total, "ratio"};
  }

 private:
  std::string timed_action(const char* span_name, const std::string& action,
                           const jube::Context& context) {
    auto span = current_probe_->scope(span_name);
    const Stopwatch watch;
    std::string output = base_.at(action)(context);
    const double ms = watch.elapsed_ms();
    std::lock_guard<std::mutex> lock(mutex_);
    action_ms_.push_back(ms);
    return output;
  }

  /// Run every grid once with `jobs` workers and the doom gate.
  std::vector<jube::RunResult> sweep(Probe& probe, int jobs,
                                     const std::string& cache_path) {
    current_probe_ = &probe;
    jube::SweepOptions options;
    options.jobs = jobs;
    options.cache_path = cache_path;
    options.static_gate = [this, &probe](
                              const jube::Context& context,
                              const std::vector<std::string>& actions) {
      if (!probe.tracing()) {
        return check::workpackage_doom_reason(context, actions);
      }
      // The gate runs on the dispatching thread, one workpackage at a time.
      auto span = probe.scope("check.doom_gate");
      const Stopwatch watch;
      std::string reason = check::workpackage_doom_reason(context, actions);
      gate_s_ += watch.elapsed_seconds();
      return reason;
    };
    std::vector<jube::RunResult> results;
    for (const auto& benchmark : benchmarks_) {
      results.push_back(benchmark.run(registry_, {}, options));
    }
    return results;
  }

  /// Counts ok llm_train rows whose simulated energy is unusable, and keeps
  /// the OOM share and median tokens_per_wh of the pass.
  std::size_t energy_check(const std::vector<jube::RunResult>& results) {
    std::size_t failures = 0;
    std::size_t executed = 0;
    std::size_t oom = 0;
    std::vector<double> tokens_per_wh;
    for (const auto& result : results) {
      for (const auto& wp : result.workpackages) {
        if (wp.status == "skipped") continue;
        ++executed;
        const auto status = wp.analysed.find("status");
        if (status != wp.analysed.end() && status->second == "OOM") {
          ++oom;
          continue;
        }
        if (wp.context.find("model") == wp.context.end()) continue;
        const auto tpw = wp.analysed.find("tokens_per_wh");
        const auto energy = wp.analysed.find("energy_wh");
        if (tpw == wp.analysed.end() || energy == wp.analysed.end()) {
          ++failures;
          continue;
        }
        const double t = str::parse_double(tpw->second);
        const double e = str::parse_double(energy->second);
        if (!(std::isfinite(t) && t > 0.0 && std::isfinite(e) && e > 0.0)) {
          ++failures;
        }
        tokens_per_wh.push_back(t);
      }
    }
    oom_ratio_ = static_cast<double>(oom) / static_cast<double>(executed);
    tokens_per_wh_p50_ = tokens_per_wh.empty() ? 0.0 : median_of(tokens_per_wh);
    return failures;
  }

  Options options_;
  jube::ActionRegistry base_;
  jube::ActionRegistry registry_;
  std::vector<jube::Benchmark> benchmarks_;
  std::size_t workpackages_ = 0;
  Probe* current_probe_ = nullptr;
  std::mutex mutex_;  // guards action_ms_ (actions run on sweep workers)
  std::vector<double> action_ms_;
  double gate_s_ = 0.0;
  std::vector<PassRecord> records_;
  std::vector<std::string> reference_rows_;
  std::size_t cold_warm_mismatches_ = 0;
  std::size_t warm_misses_ = 0;
  std::size_t energy_failures_ = 0;
  double oom_ratio_ = 0.0;
  double tokens_per_wh_p50_ = 0.0;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_sweep(const Options& options) {
  return std::make_unique<SimSweep>(options);
}

}  // namespace caraml::e2e
