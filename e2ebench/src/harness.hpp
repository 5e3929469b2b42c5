// Shared plumbing of the end-to-end benchmark: run options, the layer probe
// that turns calls into spans on a benchmark-owned tracer, the timed loop,
// the check ledger and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/span.hpp"

namespace caraml::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of the tensor pool and sweep jobs: min(4, nproc) unless
  /// overridden (the 1-thread determinism check re-runs itself with 1).
  int threads = 1;
  /// Directory (inside the checkout) for the Chrome trace and sweep caches.
  std::string out_dir = ".bench_build/out";
  /// Child mode of the gpt_train determinism check: train this many steps
  /// and print the loss bits instead of a result.
  int loss_check_steps = 0;
};

/// Times calls into a layer's public functions. Untraced, a scope costs
/// nothing (no clock read); traced, every scope becomes a ph:"X" span on the
/// calling thread's track of the benchmark's tracer, and its duration is kept
/// by name so per-layer metrics are medians of exactly what the trace holds.
class Probe {
 public:
  explicit Probe(telemetry::Tracer* tracer = nullptr) : tracer_(tracer) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool tracing() const { return tracer_ != nullptr; }

  class Scope {
   public:
    Scope(Probe& probe, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;  // null when untraced
    const char* name_;
    double start_s_ = 0.0;
  };
  Scope scope(const char* name) { return Scope(*this, name); }

  /// Median duration of `name` in milliseconds (NaN when never recorded).
  double median_ms(const std::string& name) const;

 private:
  telemetry::Tracer* tracer_;
  mutable std::mutex mutex_;  // guards samples_ (sweep workers trace too)
  std::map<std::string, std::vector<double>> samples_;
};

/// One metric value with its unit, as printed in the result.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Output checks of one run. Every check is an attempted operation in the
/// result; a failed one counts as failed and makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::int64_t run() const { return run_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t run_ = 0;
  std::vector<std::string> failures_;
};

/// One timed unit of work: a train step, a decode request or a sweep pass.
struct Unit {
  double items = 0.0;    // tokens, images or workpackages completed
  double seconds = 0.0;  // wall time the items took
  /// Latency samples the unit contributes: its own duration for steps and
  /// requests, one per workpackage for a sweep pass.
  std::vector<double> latencies_ms;
  /// Operations attempted: 1 per step or request, one per workpackage.
  std::int64_t operations = 1;
  bool ok = true;  // false when the unit's own output is unusable
};

class Workload {
 public:
  /// Workload-specific names of the end-to-end figures, for the human
  /// report: the rate (e.g. train_tokens_per_s), its unit, and what one
  /// latency sample is (step_ms, request_ms, wp_ms).
  struct Names {
    const char* rate;
    const char* rate_unit;
    const char* latency;
  };

  virtual ~Workload() = default;
  virtual Names names() const = 0;
  /// Make inputs from the seed, build the model or sweep and warm it up.
  virtual void setup(Probe& probe) = 0;
  virtual Unit run_unit(Probe& probe) = 0;
  /// Fewest units a measured region runs, whatever its length.
  virtual int min_units() const = 0;
  /// Units a traced side probe runs when another workload is measured.
  virtual int probe_units() const = 0;
  /// Output checks over everything this instance has run.
  virtual void check(Checks& checks) = 0;
  /// Checked outputs worth printing, e.g. train_loss_final.
  virtual void outputs(Metrics& out) const { (void)out; }
  /// Per-layer metrics of this workload's layers, from the probe's spans and
  /// the instance's own counts; called after a traced region.
  virtual void layer_metrics(const Probe& probe, Metrics& out) const = 0;
};

/// Statistics over a copy of `values` (linear interpolation, p in [0,100]);
/// NaN when `values` is empty, which fails the run's finite-metric check.
double percentile_of(std::vector<double> values, double p);
double median_of(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Run this binary again with `args` (plain words, no quoting) and wait for
/// it; returns its standard output. Throws when it fails or exits nonzero.
std::string run_self(const std::vector<std::string>& args);

}  // namespace caraml::e2e
