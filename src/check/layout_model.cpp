#include "check/layout_model.hpp"

#include <algorithm>
#include <sstream>

#include "models/resnet_cost.hpp"
#include "par/pipeline.hpp"
#include "sim/power_model.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace caraml::check {

namespace {

double gib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

std::string fmt_fixed(double value, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << value;
  return os.str();
}

std::string fmt_gib(double bytes) { return fmt_fixed(gib(bytes), 1) + " GiB"; }

std::string fmt_ms(double seconds) {
  return fmt_fixed(seconds * 1000.0, 1) + " ms";
}

std::string fmt_pct(double fraction) {
  return fmt_fixed(fraction * 100.0, 1) + "%";
}

std::string system_tag(const topo::NodeSpec& node) {
  return node.jube_tag.empty() ? node.display_name : node.jube_tag;
}

LayoutAnalysis invalid(std::string why) {
  LayoutAnalysis analysis;
  analysis.invalid_reason = std::move(why);
  return analysis;
}

}  // namespace

std::optional<models::GptConfig> gpt_config_from_tag(const std::string& tag) {
  if (tag == "117M") return models::GptConfig::gpt_117m();
  if (tag == "800M") return models::GptConfig::gpt_800m();
  if (tag == "13B") return models::GptConfig::gpt_13b();
  if (tag == "175B") return models::GptConfig::gpt_175b();
  return std::nullopt;
}

std::string layout_label(const LayoutSpec& spec) {
  std::string label = spec.name.empty() ? std::string() : spec.name + ": ";
  label += "system " + system_tag(spec.node) + " model " + spec.model.name +
           " tp=" + std::to_string(spec.tensor_parallel) +
           " pp=" + std::to_string(spec.pipeline_parallel) +
           " dp=" + std::to_string(spec.data_parallel);
  return label;
}

LayoutAnalysis analyze_layout(const LayoutSpec& spec) {
  const int tp = spec.tensor_parallel;
  const int pp = spec.pipeline_parallel;
  const int dp = spec.data_parallel;
  if (spec.node.device.arch != topo::ArchClass::kGpuSimd) {
    return invalid("system " + system_tag(spec.node) +
                   " is not a GPU system; layout analysis covers GPU "
                   "training");
  }
  if (tp < 1 || pp < 1 || dp < 1) {
    return invalid("tp/pp/dp must all be >= 1 (got tp=" + std::to_string(tp) +
                   " pp=" + std::to_string(pp) + " dp=" + std::to_string(dp) +
                   ")");
  }
  if (spec.micro_batch <= 0 || spec.global_batch <= 0) {
    return invalid("micro/global batch must be positive");
  }
  if (spec.global_batch % (spec.micro_batch * dp) != 0) {
    return invalid("global batch " + std::to_string(spec.global_batch) +
                   " is not divisible by micro-batch x data-parallel (" +
                   std::to_string(spec.micro_batch) + " x " +
                   std::to_string(dp) + ")");
  }

  LayoutAnalysis analysis;
  const int n = spec.num_devices();
  if (spec.node.devices_per_node <= 0) {
    return invalid("system " + system_tag(spec.node) +
                   " declares no devices per node");
  }
  if (n <= spec.node.devices_per_node) {
    analysis.devices_per_node = n;
    analysis.num_nodes = 1;
  } else if (n % spec.node.devices_per_node == 0) {
    analysis.devices_per_node = spec.node.devices_per_node;
    analysis.num_nodes = n / spec.node.devices_per_node;
  } else {
    return invalid(std::to_string(n) + " devices do not pack into " +
                   std::to_string(spec.node.devices_per_node) +
                   "-device nodes of " + system_tag(spec.node));
  }
  if (analysis.num_nodes > 1 && spec.node.inter_node.bandwidth <= 0.0) {
    return invalid("layout needs " + std::to_string(analysis.num_nodes) +
                   " nodes but " + system_tag(spec.node) +
                   " has no inter-node interconnect calibrated");
  }
  if ((tp > 1 || pp > 1 || (dp > 1 && analysis.devices_per_node > 1)) &&
      spec.node.peer_link.bandwidth <= 0.0) {
    return invalid("layout needs the intra-node peer link but " +
                   system_tag(spec.node) + " has none calibrated");
  }

  sim::LlmLayoutCost cost;
  cost.model = spec.model;
  cost.tensor_parallel = tp;
  cost.pipeline_parallel = pp;
  cost.data_parallel = dp;
  cost.micro_batch = spec.micro_batch;
  cost.global_batch = spec.global_batch;
  cost.devices_per_node = analysis.devices_per_node;
  cost.num_nodes = analysis.num_nodes;
  try {
    analysis.prediction = sim::predict_llm_iteration(spec.node, cost);
  } catch (const Error& e) {
    return invalid(e.what());
  }
  analysis.valid = true;

  // Schedule-dependent in-flight activation pressure. total_bytes() holds
  // one micro-batch of activations; the pipeline schedule multiplies that.
  models::GptMemoryModel memory;
  memory.config = spec.model;
  memory.tensor_parallel = tp;
  memory.pipeline_parallel = pp;
  memory.data_parallel = dp;
  memory.micro_batch = static_cast<int>(spec.micro_batch);
  const std::int64_t n_micro = analysis.prediction.n_micro;
  if (pp <= 1) {
    analysis.inflight_factor = 1.0;
  } else if (spec.schedule == LayoutSchedule::kGpipe) {
    analysis.inflight_factor = static_cast<double>(n_micro);
  } else {
    analysis.inflight_factor =
        static_cast<double>(std::min<std::int64_t>(pp, n_micro));
  }
  analysis.inflight_bytes =
      memory.model_state_bytes() +
      memory.activation_bytes() * analysis.inflight_factor +
      memory.workspace_bytes();
  analysis.activation_pressure =
      !analysis.prediction.oom &&
      analysis.inflight_bytes > spec.node.device.mem_capacity_bytes;

  analysis.comm_bound =
      analysis.prediction.exposed_comm_s >
      static_cast<double>(n_micro) * analysis.prediction.t_compute_s;

  if (pp > 1) {
    analysis.bubble_lower_bound =
        par::pipeline_bubble_lower_bound(pp, static_cast<int>(n_micro));
  }

  // Power feasibility: the compute phase's sustained draw vs the calibrated
  // caps (0 = uncapped). Node draw assumes every device of the node runs the
  // same schedule — true for the homogeneous layouts modeled here.
  analysis.sustained_device_power_w =
      sim::busy_power_watts(spec.node.device, analysis.prediction.power_util);
  analysis.device_power_infeasible =
      spec.node.device.power_cap_watts > 0.0 &&
      analysis.sustained_device_power_w > spec.node.device.power_cap_watts;
  analysis.predicted_node_power_w =
      analysis.sustained_device_power_w * analysis.devices_per_node;
  analysis.node_power_infeasible =
      spec.node.node_power_cap_watts > 0.0 &&
      analysis.predicted_node_power_w > spec.node.node_power_cap_watts;
  return analysis;
}

std::vector<LayoutFinding> layout_findings(const LayoutSpec& spec,
                                           const LayoutAnalysis& analysis) {
  std::vector<LayoutFinding> findings;
  if (!analysis.valid) return findings;
  const std::string label = layout_label(spec);
  const sim::LlmPrediction& p = analysis.prediction;
  const double capacity = spec.node.device.mem_capacity_bytes;

  if (p.oom) {
    findings.push_back(
        {"layout/oom",
         label + " needs " + fmt_gib(p.memory_per_device_bytes) +
             " per device but " + spec.node.device.name + " has " +
             fmt_gib(capacity) + " (margin " + fmt_gib(p.memory_margin_bytes) +
             ")"});
  } else if (analysis.activation_pressure) {
    findings.push_back(
        {"layout/activation-pressure",
         label + " fits at rest but the " +
             (spec.schedule == LayoutSchedule::kGpipe ? "GPipe" : "1F1B") +
             " schedule keeps " + fmt_fixed(analysis.inflight_factor, 0) +
             " micro-batches of activations in flight: " +
             fmt_gib(analysis.inflight_bytes) + " > " + fmt_gib(capacity)});
  }
  findings.push_back(
      {"layout/predicted-oom-margin",
       label + " footprint " + fmt_gib(p.memory_per_device_bytes) + " of " +
           fmt_gib(capacity) + " HBM (margin " +
           fmt_gib(p.memory_margin_bytes) + ")"});

  if (analysis.comm_bound) {
    findings.push_back(
        {"layout/comm-bound",
         label + " exposes " + fmt_ms(p.exposed_comm_s) +
             " of communication vs " +
             fmt_ms(static_cast<double>(p.n_micro) * p.t_compute_s) +
             " of compute per iteration — the layout is communication-bound"});
  }
  if (analysis.bubble_lower_bound > 0.0) {
    findings.push_back(
        {"layout/schedule-bubble",
         label + " pipeline bubble lower bound " +
             fmt_pct(analysis.bubble_lower_bound) + " (" +
             std::to_string(spec.pipeline_parallel) + " stages, " +
             std::to_string(p.n_micro) + " micro-batches)"});
  }
  if (analysis.device_power_infeasible) {
    findings.push_back(
        {"layout/power-infeasible",
         label + " predicted sustained device power " +
             fmt_fixed(analysis.sustained_device_power_w, 0) +
             " W exceeds the " +
             fmt_fixed(spec.node.device.power_cap_watts, 0) +
             " W device cap — the layout throttles"});
  }
  if (analysis.node_power_infeasible) {
    findings.push_back(
        {"layout/power-infeasible",
         label + " predicted node power " +
             fmt_fixed(analysis.predicted_node_power_w, 0) + " W (" +
             std::to_string(analysis.devices_per_node) + " devices) exceeds "
             "the " +
             fmt_fixed(spec.node.node_power_cap_watts, 0) +
             " W node cap — the layout throttles"});
  }
  if (!p.oom) {
    findings.push_back(
        {"layout/predicted-energy",
         label + " predicted " + fmt_fixed(p.energy_per_device_j, 0) +
             " J per iteration per device (avg " + fmt_fixed(p.avg_power_w, 0) +
             " W)"});
  }
  return findings;
}

std::string predicted_time_message(const LayoutSpec& spec,
                                   const LayoutAnalysis& analysis) {
  const sim::LlmPrediction& p = analysis.prediction;
  return layout_label(spec) + " predicted iteration " +
         fmt_ms(p.iteration_time_s) + " (" +
         fmt_fixed(p.tokens_per_s_per_device, 0) + " tok/s/device, MFU " +
         fmt_pct(p.mfu) + ")";
}

namespace {

std::string ctx_get(const jube::Context& context, const std::string& key,
                    const std::string& fallback) {
  const auto it = context.find(key);
  if (it == context.end()) return fallback;
  return jube::substitute_context(it->second, context);
}

std::int64_t ctx_int(const jube::Context& context, const std::string& key,
                     const std::string& fallback) {
  return str::parse_int(ctx_get(context, key, fallback));
}

std::string llm_doom_reason(const jube::Context& context) {
  const std::string tag = ctx_get(context, "system", "A100");
  const auto& registry = topo::SystemRegistry::instance();
  if (!registry.has_tag(tag)) return "";
  const topo::NodeSpec& node = registry.by_tag(tag);
  if (node.device.arch != topo::ArchClass::kGpuSimd) return "";

  const std::int64_t batch = ctx_int(context, "global_batch", "256");
  const std::int64_t micro = ctx_int(context, "micro_batch", "4");
  const std::int64_t devices = ctx_int(context, "devices", "-1");
  const std::int64_t tp = ctx_int(context, "tp", "1");
  const std::int64_t pp = ctx_int(context, "pp", "1");
  auto model = gpt_config_from_tag(ctx_get(context, "model", "800M"));
  if (!model) return "";
  const std::string dtype = ctx_get(context, "dtype", "bf16");
  if (dtype == "fp32") {
    model->mixed_precision = false;
  } else if (dtype != "bf16") {
    return "invalid layout: llm_train dtype '" + dtype +
           "' is not bf16 or fp32 (int8 is inference-only)";
  }

  // The llm_train action simulates a single node.
  if (devices > node.devices_per_node) {
    return "invalid layout: " + std::to_string(devices) +
           " devices exceed the " + std::to_string(node.devices_per_node) +
           "-device node llm_train simulates";
  }
  const int num_devices =
      devices > 0 ? static_cast<int>(devices) : node.devices_per_node;
  if (tp <= 0 || pp <= 0 || num_devices % (tp * pp) != 0) {
    return "invalid layout: " + std::to_string(num_devices) +
           " device(s) not divisible by tp x pp = " + std::to_string(tp) +
           " x " + std::to_string(pp);
  }
  const int dp = num_devices / static_cast<int>(tp * pp);

  LayoutSpec spec;
  spec.node = node;
  spec.model = *model;
  spec.tensor_parallel = static_cast<int>(tp);
  spec.pipeline_parallel = static_cast<int>(pp);
  spec.data_parallel = dp;
  spec.micro_batch = micro;
  spec.global_batch = batch;
  const LayoutAnalysis analysis = analyze_layout(spec);
  if (!analysis.valid) return "invalid layout: " + analysis.invalid_reason;
  if (analysis.prediction.oom) {
    return "static OOM: needs " +
           fmt_gib(analysis.prediction.memory_per_device_bytes) +
           " per device but " + node.device.name + " has " +
           fmt_gib(node.device.mem_capacity_bytes);
  }
  return "";
}

std::string resnet_doom_reason(const jube::Context& context) {
  const std::string tag = ctx_get(context, "system", "A100");
  const auto& registry = topo::SystemRegistry::instance();
  if (!registry.has_tag(tag)) return "";
  const topo::NodeSpec& node = registry.by_tag(tag);
  if (node.device.arch != topo::ArchClass::kGpuSimd) return "";

  const std::int64_t batch = ctx_int(context, "global_batch", "256");
  const std::int64_t devices = ctx_int(context, "devices", "1");
  const std::string variant_tag = ctx_get(context, "variant", "resnet50");
  models::ResNetVariant variant;
  if (variant_tag == "resnet18") variant = models::ResNetVariant::kResNet18;
  else if (variant_tag == "resnet34") variant = models::ResNetVariant::kResNet34;
  else if (variant_tag == "resnet50") variant = models::ResNetVariant::kResNet50;
  else return "";

  if (devices <= 0 || batch <= 0 || batch % devices != 0) {
    return "invalid layout: global batch " + std::to_string(batch) +
           " not divisible by " + std::to_string(devices) + " device(s)";
  }
  // Mirrors core/resnet.cpp run_resnet_gpu's node checks and memory
  // accounting.
  const std::int64_t nodes =
      (devices + node.devices_per_node - 1) / node.devices_per_node;
  if (nodes > 1 && devices % node.devices_per_node != 0) {
    return "invalid layout: " + std::to_string(devices) +
           " devices span partial nodes; multi-node runs must use full "
           "nodes of " + std::to_string(node.devices_per_node);
  }
  if (nodes > node.max_nodes) {
    return "invalid layout: " + std::to_string(devices) + " devices need " +
           std::to_string(nodes) + " nodes but " + node.display_name +
           " has only " + std::to_string(node.max_nodes) + " node(s)";
  }
  const models::ResNetModel model = models::ResNetModel::build(variant);
  const double need = model.activation_bytes_per_image() *
                          static_cast<double>(batch / devices) +
                      model.model_state_bytes() + 3.0e9;
  if (need > node.device.mem_capacity_bytes) {
    return "static OOM: needs " + fmt_gib(need) + " per device but " +
           node.device.name + " has " +
           fmt_gib(node.device.mem_capacity_bytes);
  }
  return "";
}

}  // namespace

std::string workpackage_doom_reason(const jube::Context& context,
                                    const std::vector<std::string>& actions) {
  for (const std::string& action : actions) {
    try {
      std::string reason;
      if (action == "llm_train") reason = llm_doom_reason(context);
      if (action == "resnet_train") reason = resnet_doom_reason(context);
      if (!reason.empty()) return action + ": " + reason;
    } catch (const Error&) {
      // Unparseable parameters: let the run report its own error.
    }
  }
  return "";
}

}  // namespace caraml::check
