// The benchmark's declared workloads and metrics: the one list BENCHMARK.json
// is generated from (`caraml_e2e --catalogue`) and every result is checked
// against before it is printed.
#pragma once

#include <string>
#include <vector>

namespace caraml::e2e {

struct WorkloadSpec {
  std::string name;
  std::string why;
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double bound = 0.0;  // end-to-end only: allowed worsening, share of median
};

/// The declared workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_specs();
/// Every workload the traced run probes: the declared ones and gpt_decode.
const std::vector<std::string>& probed_workloads();
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// The catalogue as the JSON object BENCHMARK.json embeds.
std::string catalogue_json();

}  // namespace caraml::e2e
