#include "fault/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace caraml::fault {

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceFailure: return "device_failure";
    case FaultKind::kThermalThrottle: return "thermal_throttle";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kSensorDropout: return "sensor_dropout";
  }
  throw Error("unreachable fault kind");
}

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "device_failure") return FaultKind::kDeviceFailure;
  if (name == "thermal_throttle") return FaultKind::kThermalThrottle;
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "sensor_dropout") return FaultKind::kSensorDropout;
  throw InvalidArgument("unknown fault kind: " + name +
                        " (expected device_failure, thermal_throttle, "
                        "link_degrade or sensor_dropout)");
}

FaultPlan FaultPlan::generate(std::uint64_t seed, double rate,
                              double horizon_s, int num_devices) {
  CARAML_CHECK_MSG(rate >= 0.0, "fault rate must be non-negative");
  CARAML_CHECK_MSG(horizon_s > 0.0, "fault-plan horizon must be positive");
  CARAML_CHECK_MSG(num_devices >= 1, "fault plan needs at least one device");
  FaultPlan plan;
  plan.seed = seed;
  plan.rate = rate;
  plan.horizon_s = horizon_s;
  if (rate <= 0.0) return plan;

  // A nonzero rate always injects at least one fault so smoke runs exercise
  // the resilience path even over short horizons.
  const auto count =
      std::max<std::int64_t>(1, std::llround(rate * horizon_s / 60.0));
  Rng rng(seed ^ 0xFA171FA171FA171FULL);
  for (std::int64_t i = 0; i < count; ++i) {
    FaultEvent event;
    // Keep faults away from the very edges of the run so point faults always
    // interrupt useful work.
    event.time_s = rng.uniform(0.05, 0.95) * horizon_s;
    const double kind_draw = rng.next_double();
    if (kind_draw < 0.2) {
      event.kind = FaultKind::kDeviceFailure;
      event.device = static_cast<int>(rng.uniform_int(0, num_devices - 1));
    } else if (kind_draw < 0.6) {
      event.kind = FaultKind::kThermalThrottle;
      event.device = static_cast<int>(rng.uniform_int(0, num_devices - 1));
      event.duration_s = rng.uniform(0.05, 0.2) * horizon_s;
      event.severity = rng.uniform(0.4, 0.9);
    } else if (kind_draw < 0.8) {
      event.kind = FaultKind::kLinkDegrade;
      event.device = static_cast<int>(rng.uniform_int(0, num_devices - 1));
      event.duration_s = rng.uniform(0.05, 0.2) * horizon_s;
      event.severity = rng.uniform(0.2, 0.8);
    } else {
      event.kind = FaultKind::kSensorDropout;
      event.device = static_cast<int>(rng.uniform_int(0, num_devices - 1));
      event.duration_s = rng.uniform(0.1, 0.3) * horizon_s;
    }
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return plan;
}

namespace {

FaultEvent parse_event(const yaml::NodePtr& node) {
  FaultEvent event;
  event.kind = fault_kind_from_name(node->at("kind")->as_string());
  event.time_s = node->get_double_or("time_s", 0.0);
  event.duration_s = node->get_double_or("duration_s", 0.0);
  event.device = static_cast<int>(node->get_int_or("device", -1));
  event.severity = node->get_double_or("severity", 0.5);
  CARAML_CHECK_MSG(event.time_s >= 0.0, "fault time_s must be >= 0");
  CARAML_CHECK_MSG(event.duration_s >= 0.0, "fault duration_s must be >= 0");
  CARAML_CHECK_MSG(event.severity > 0.0 && event.severity <= 1.0,
                   "fault severity must be in (0, 1]");
  return event;
}

}  // namespace

FaultPlan FaultPlan::from_yaml(const yaml::NodePtr& root) {
  CARAML_CHECK_MSG(root && root->is_map(), "fault plan YAML must be a map");
  const yaml::NodePtr body =
      root->has("fault_plan") ? root->at("fault_plan") : root;
  CARAML_CHECK_MSG(body->is_map(), "fault_plan must be a map");
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(body->get_int_or("seed", 0));
  plan.rate = body->get_double_or("rate", 0.0);
  plan.horizon_s = body->get_double_or("horizon_s", 0.0);
  if (const yaml::NodePtr events = body->find("events")) {
    CARAML_CHECK_MSG(events->is_sequence(), "fault_plan events must be a list");
    for (const auto& node : events->items()) {
      plan.events.push_back(parse_event(node));
    }
  }
  if (const yaml::NodePtr retry = body->find("retry")) {
    CARAML_CHECK_MSG(retry->is_map(), "fault_plan retry must be a map");
    RetryPolicy policy;
    policy.max_attempts =
        static_cast<int>(retry->get_int_or("max_attempts", policy.max_attempts));
    policy.base_delay_s = retry->get_double_or("base_delay_s", policy.base_delay_s);
    policy.multiplier = retry->get_double_or("multiplier", policy.multiplier);
    policy.jitter_frac = retry->get_double_or("jitter_frac", policy.jitter_frac);
    policy.max_delay_s = retry->get_double_or("max_delay_s", policy.max_delay_s);
    policy.seed = static_cast<std::uint64_t>(retry->get_int_or("seed", 0));
    policy.validate();
    plan.retry = policy;
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
  if (plan.horizon_s <= 0.0) {
    for (const auto& event : plan.events) {
      plan.horizon_s =
          std::max(plan.horizon_s, event.time_s + event.duration_s);
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_yaml_file(const std::string& path) {
  return from_yaml(yaml::parse_file(path));
}

FaultPlan FaultPlan::single(std::uint64_t seed, double horizon_s,
                            const FaultEvent& event) {
  CARAML_CHECK_MSG(horizon_s > 0.0, "fault-plan horizon must be positive");
  CARAML_CHECK_MSG(event.time_s >= 0.0, "fault time_s must be >= 0");
  CARAML_CHECK_MSG(event.duration_s >= 0.0, "fault duration_s must be >= 0");
  CARAML_CHECK_MSG(event.severity > 0.0 && event.severity <= 1.0,
                   "fault severity must be in (0, 1]");
  FaultPlan plan;
  plan.seed = seed;
  plan.horizon_s = std::max(horizon_s, event.time_s + event.duration_s);
  plan.events.push_back(event);
  return plan;
}

std::vector<double> FaultPlan::failure_times() const {
  std::vector<double> times;
  for (const auto& event : events) {
    if (event.kind == FaultKind::kDeviceFailure && event.time_s >= 0.0 &&
        event.time_s <= horizon_s) {
      times.push_back(event.time_s);
    }
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<std::pair<double, double>> FaultPlan::sensor_outages(
    int device) const {
  std::vector<std::pair<double, double>> windows;
  for (const auto& event : events) {
    if (event.kind == FaultKind::kSensorDropout && event.applies_to(device) &&
        event.duration_s > 0.0) {
      windows.emplace_back(event.time_s, event.time_s + event.duration_s);
    }
  }
  return windows;
}

Derate FaultPlan::derate_at(int device, double t) const {
  Derate derate;
  for (const auto& event : events) {
    if (event.kind != FaultKind::kThermalThrottle) continue;
    if (device >= 0 && !event.applies_to(device)) continue;
    if (!event.active_at(t)) continue;
    derate.time_factor /= event.severity;
    derate.power_factor *= event.severity;
  }
  return derate;
}

namespace {

/// Overlap of [t0, t1] with the event's window.
double overlap_s(const FaultEvent& event, double t0, double t1) {
  const double lo = std::max(t0, event.time_s);
  const double hi = std::min(t1, event.time_s + event.duration_s);
  return std::max(0.0, hi - lo);
}

}  // namespace

Derate FaultPlan::average_derate(int device, double t0, double t1) const {
  Derate derate;
  const double span = t1 - t0;
  if (span <= 0.0) return derate;
  // Windows rarely overlap each other; a time-weighted mix of (inside,
  // outside) per event compounds closely enough for the simulator.
  for (const auto& event : events) {
    if (event.kind != FaultKind::kThermalThrottle) continue;
    if (device >= 0 && !event.applies_to(device)) continue;
    const double frac = overlap_s(event, t0, t1) / span;
    if (frac <= 0.0) continue;
    derate.time_factor *= (1.0 - frac) + frac / event.severity;
    derate.power_factor *= (1.0 - frac) + frac * event.severity;
  }
  return derate;
}

double FaultPlan::average_link_derate(int device, double t0, double t1) const {
  double factor = 1.0;
  const double span = t1 - t0;
  if (span <= 0.0) return factor;
  for (const auto& event : events) {
    if (event.kind != FaultKind::kLinkDegrade) continue;
    if (device >= 0 && !event.applies_to(device)) continue;
    const double frac = overlap_s(event, t0, t1) / span;
    if (frac <= 0.0) continue;
    factor *= (1.0 - frac) + frac / event.severity;
  }
  return factor;
}

std::size_t FaultPlan::count(FaultKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const FaultEvent& e) { return e.kind == kind; }));
}

std::string FaultPlan::fingerprint() const {
  std::string serialized;
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "seed=%llu;rate=%.9g;horizon=%.9g;",
                static_cast<unsigned long long>(seed), rate, horizon_s);
  serialized += buffer;
  for (const auto& event : events) {
    std::snprintf(buffer, sizeof(buffer), "%s@%.9g+%.9g/d%d/s%.9g;",
                  fault_kind_name(event.kind).c_str(), event.time_s,
                  event.duration_s, event.device, event.severity);
    serialized += buffer;
  }
  return hash::fnv1a_hex(serialized);
}

std::string FaultPlan::summary() const {
  std::string out = "fault plan (seed " + std::to_string(seed) + ", " +
                    std::to_string(events.size()) + " events, fingerprint " +
                    fingerprint() + ")";
  char buffer[160];
  for (const auto& event : events) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  t=%.2fs %s dev=%d dur=%.2fs severity=%.2f",
                  event.time_s, fault_kind_name(event.kind).c_str(),
                  event.device, event.duration_s, event.severity);
    out += buffer;
  }
  return out;
}

void RetryPolicy::validate() const {
  if (max_attempts < 1) {
    throw InvalidArgument("retry max_attempts must be >= 1, got " +
                          std::to_string(max_attempts));
  }
  if (!std::isfinite(base_delay_s) || base_delay_s < 0.0) {
    throw InvalidArgument("retry base_delay_s must be finite and >= 0");
  }
  if (!std::isfinite(multiplier) || multiplier <= 0.0) {
    throw InvalidArgument("retry multiplier must be finite and > 0");
  }
  if (!std::isfinite(jitter_frac) || jitter_frac < 0.0 || jitter_frac > 1.0) {
    throw InvalidArgument("retry jitter_frac must be in [0, 1]");
  }
  if (!std::isfinite(max_delay_s) || max_delay_s < 0.0) {
    throw InvalidArgument("retry max_delay_s must be finite and >= 0");
  }
}

double RetryPolicy::delay_s(int attempt) const {
  if (attempt <= 1) return 0.0;
  // pow overflows to +inf for large attempt counts; the min() below clamps
  // that (and every merely-large value) to the policy ceiling.
  const double grown =
      base_delay_s * std::pow(multiplier, static_cast<double>(attempt - 2));
  const double base = std::min(grown, max_delay_s);
  if (jitter_frac <= 0.0) return base;
  // splitmix64 over (seed, attempt): jitter is deterministic per attempt, so
  // two runs of the same plan back off identically.
  const std::uint64_t z = hash::mix64(
      seed + hash::kGoldenGamma * static_cast<std::uint64_t>(attempt));
  const double unit =
      static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  return base * (1.0 + jitter_frac * (2.0 * unit - 1.0));
}

RetryOutcome retry_with_backoff(const std::string& name,
                                const RetryPolicy& policy,
                                const std::function<void()>& body,
                                const std::function<void(double)>& sleeper) {
  policy.validate();
  auto& attempts_counter =
      telemetry::Registry::global().counter("fault/retry_attempts");
  auto& exhausted_counter =
      telemetry::Registry::global().counter("fault/retry_exhausted");
  RetryOutcome outcome;
  const std::string span_name = "retry/" + name;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    outcome.attempts = attempt;
    if (attempt > 1) {
      const double delay = policy.delay_s(attempt);
      outcome.total_backoff_s += delay;
      attempts_counter.add();
      if (delay > 0.0) {
        if (sleeper) {
          sleeper(delay);
        } else {
          std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        }
      }
    }
    try {
      telemetry::Span span(span_name.c_str());
      body();
      outcome.succeeded = true;
      return outcome;
    } catch (const std::exception& e) {
      outcome.last_error = e.what();
    } catch (...) {
      outcome.last_error = "unknown error";
    }
  }
  exhausted_counter.add();
  return outcome;
}

}  // namespace caraml::fault
