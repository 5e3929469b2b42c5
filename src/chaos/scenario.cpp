#include "chaos/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace caraml::chaos {

namespace {

bool is_window_kind(fault::FaultKind kind) {
  return kind != fault::FaultKind::kDeviceFailure;
}

Scenario make_scenario(const FaultSpace& space, std::uint64_t seed,
                       std::size_t index, fault::FaultKind kind,
                       double time_frac, int device, double severity,
                       double horizon_s) {
  Scenario scenario;
  scenario.index = index;
  scenario.kind = kind;
  scenario.time_frac = time_frac;
  scenario.device = device;
  scenario.severity = is_window_kind(kind) ? severity : 1.0;

  fault::FaultEvent event;
  event.kind = kind;
  event.time_s = time_frac * horizon_s;
  event.duration_s = is_window_kind(kind) ? space.window_frac * horizon_s : 0.0;
  event.device = device;
  event.severity = scenario.severity;
  scenario.plan = fault::FaultPlan::single(hash::derive_seed(seed, index),
                                           horizon_s, event);

  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "s%03zu-%s-t%.2f-d%d-sev%.2f", index,
                fault::fault_kind_name(kind).c_str(), time_frac, device,
                scenario.severity);
  scenario.id = buffer;
  return scenario;
}

void validate_space(const FaultSpace& space, double horizon_s) {
  CARAML_CHECK_MSG(horizon_s > 0.0, "fault-space horizon must be positive");
  CARAML_CHECK_MSG(!space.kinds.empty(), "fault space needs >= 1 kind");
  CARAML_CHECK_MSG(!space.times_frac.empty(), "fault space needs >= 1 time");
  CARAML_CHECK_MSG(!space.devices.empty(), "fault space needs >= 1 device");
  CARAML_CHECK_MSG(!space.severities.empty(),
                   "fault space needs >= 1 severity");
  CARAML_CHECK_MSG(space.window_frac > 0.0 && space.window_frac <= 1.0,
                   "fault-space window_frac must be in (0, 1]");
  for (const double t : space.times_frac) {
    CARAML_CHECK_MSG(t >= 0.0 && t < 1.0,
                     "fault-space times must be in [0, 1)");
  }
  for (const double s : space.severities) {
    CARAML_CHECK_MSG(s > 0.0 && s <= 1.0,
                     "fault-space severities must be in (0, 1]");
  }
}

}  // namespace

FaultSpace FaultSpace::defaults() {
  FaultSpace space;
  space.kinds = {fault::FaultKind::kDeviceFailure,
                 fault::FaultKind::kThermalThrottle,
                 fault::FaultKind::kLinkDegrade,
                 fault::FaultKind::kSensorDropout};
  space.times_frac = {0.25, 0.75};
  space.devices = {-1};
  space.severities = {0.5};
  return space;
}

std::size_t FaultSpace::grid_size() const {
  std::size_t count = 0;
  for (const auto kind : kinds) {
    const std::size_t severity_arms =
        is_window_kind(kind) ? severities.size() : 1;
    count += times_frac.size() * devices.size() * severity_arms;
  }
  return count;
}

std::vector<Scenario> enumerate_grid(const FaultSpace& space,
                                     std::uint64_t seed, double horizon_s) {
  validate_space(space, horizon_s);
  std::vector<Scenario> scenarios;
  scenarios.reserve(space.grid_size());
  for (const auto kind : space.kinds) {
    // Point faults ignore severity; emitting one arm per severity would
    // duplicate identical scenarios.
    const std::vector<double> severities =
        is_window_kind(kind) ? space.severities : std::vector<double>{1.0};
    for (const double time_frac : space.times_frac) {
      for (const int device : space.devices) {
        for (const double severity : severities) {
          scenarios.push_back(make_scenario(space, seed, scenarios.size(),
                                            kind, time_frac, device, severity,
                                            horizon_s));
        }
      }
    }
  }
  return scenarios;
}

std::vector<Scenario> enumerate_random(const FaultSpace& space,
                                       std::uint64_t seed, double horizon_s,
                                       int count) {
  validate_space(space, horizon_s);
  CARAML_CHECK_MSG(count >= 1, "random campaign needs >= 1 scenario");
  const auto [t_lo, t_hi] =
      std::minmax_element(space.times_frac.begin(), space.times_frac.end());
  const auto [s_lo, s_hi] =
      std::minmax_element(space.severities.begin(), space.severities.end());
  Rng rng(seed ^ 0xC4A05FA17C4A05ULL);
  std::vector<Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto kind = space.kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(space.kinds.size()) - 1))];
    const double time_frac = *t_lo == *t_hi
                                 ? *t_lo
                                 : rng.uniform(*t_lo, *t_hi);
    const int device = space.devices[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(space.devices.size()) - 1))];
    const double severity =
        *s_lo == *s_hi ? *s_lo : rng.uniform(*s_lo, *s_hi);
    scenarios.push_back(make_scenario(space, seed, scenarios.size(), kind,
                                      time_frac, device, severity, horizon_s));
  }
  return scenarios;
}

}  // namespace caraml::chaos
