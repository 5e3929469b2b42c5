#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace caraml::e2e {

Probe::Scope::Scope(Probe& probe, const char* name)
    : probe_(probe.tracing() ? &probe : nullptr), name_(name) {
  if (probe_ != nullptr) start_s_ = probe_->tracer_->now();
}

Probe::Scope::~Scope() {
  if (probe_ == nullptr) return;
  telemetry::Tracer& tracer = *probe_->tracer_;
  const double dur_s = tracer.now() - start_s_;
  tracer.add_span(name_, tracer.thread_track(), start_s_, dur_s);
  std::lock_guard<std::mutex> lock(probe_->mutex_);
  probe_->samples_[name_].push_back(dur_s);
}

double Probe::median_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? median_of({}) : median_of(it->second) * 1e3;
}

void Checks::expect(bool ok, const std::string& what) {
  ++run_;
  if (!ok) failures_.push_back(what);
}

double percentile_of(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return caraml::percentile(std::move(values), p);
}

double median_of(const std::vector<double>& values) {
  return percentile_of(values, 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string run_self(const std::vector<std::string>& args) {
  std::string command =
      "'" + std::filesystem::read_symlink("/proc/self/exe").string() + "'";
  for (const std::string& arg : args) command += " " + arg;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw Error("cannot re-run the benchmark: " + command);
  std::string output;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0;) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);  // waits for the child
  if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw Error("benchmark child run failed: " + command);
  }
  return output;
}

}  // namespace caraml::e2e
