#include "catalogue.hpp"

#include "telemetry/json.hpp"

namespace caraml::e2e {

namespace json = telemetry::json;

// gpt_decode is not declared: its tokens/s spread 0.42-0.50 over ten seeds
// whenever the shared host got busy, beyond any allowed bound. It runs as a
// traced probe instead (see main.cpp), so its layers and checks still run.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"gpt_train",
       "GPT training on BPE-encoded text: fat GEMMs, fused attention, "
       "backward and Adam; the tokenizer dominates set-up"},
      {"resnet_train",
       "small bottleneck ResNet training: conv, im2col and BatchNorm shapes "
       "instead of attention for the same GEMM library"},
      {"sim_sweep",
       "paper grids through jube with core actions, doom gate and sweep "
       "cache, cold then warm: the harness path, no tensor code"},
  };
  return specs;
}

const std::vector<std::string>& probed_workloads() {
  static const std::vector<std::string> names = {"gpt_train", "gpt_decode",
                                                 "resnet_train", "sim_sweep"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  // The timing bounds are the largest allowed (0.25): on the shared 4-vCPU VM
  // the benchmark was tuned on, the spread over ten seeds is ~0.1 while the
  // host is quiet and 0.2-0.5 when its neighbours load it. Latency
  // percentiles move further than throughput then (over ten gpt_decode seeds
  // the median request spread 0.32 where tokens/s spread 0.22; the p90 of
  // gpt_train steps 0.37), so they are printed but not declared (README.md).
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", 0.25},
      {"items_per_s", "items/s", "higher", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.1},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // data
      {"data.corpus_gen_s", "s", "lower"},
      {"data.bpe_train_s", "s", "lower"},
      {"data.bpe_encode_s", "s", "lower"},
      {"data.bpe_encode_kb_per_s", "KB/s", "higher"},
      {"data.tokens", "count", "lower"},
      {"data.sample_batch_ms", "ms", "lower"},
      {"data.image_batch_ms", "ms", "lower"},
      // nn: traced train steps and decode requests
      {"nn.gpt.forward_ms", "ms", "lower"},
      {"nn.loss_ms", "ms", "lower"},
      {"nn.gpt.backward_ms", "ms", "lower"},
      {"nn.optim.step_ms", "ms", "lower"},
      {"nn.optim.zero_grad_ms", "ms", "lower"},
      {"nn.resnet.forward_ms", "ms", "lower"},
      {"nn.resnet.backward_ms", "ms", "lower"},
      {"nn.optim.sgd_step_ms", "ms", "lower"},
      {"nn.analytic_gflop_per_step", "GFLOP", "lower"},
      {"nn.achieved_gflops", "GFLOP/s", "higher"},
      {"nn.generate.ms_per_token.short", "ms", "lower"},
      {"nn.generate.ms_per_token.long", "ms", "lower"},
      {"nn.generate.long_short_ratio", "ratio", "lower"},
      // nn: module replay
      {"nn.embedding.fwd_ms", "ms", "lower"},
      {"nn.embedding.bwd_ms", "ms", "lower"},
      {"nn.layernorm.fwd_ms", "ms", "lower"},
      {"nn.layernorm.bwd_ms", "ms", "lower"},
      {"nn.attention.fwd_ms", "ms", "lower"},
      {"nn.attention.bwd_ms", "ms", "lower"},
      {"nn.block.fwd_ms", "ms", "lower"},
      {"nn.block.bwd_ms", "ms", "lower"},
      {"nn.lm_head.fwd_ms", "ms", "lower"},
      {"nn.lm_head.bwd_ms", "ms", "lower"},
      {"nn.conv2d.fwd_ms", "ms", "lower"},
      {"nn.conv2d.bwd_ms", "ms", "lower"},
      {"nn.batchnorm.fwd_ms", "ms", "lower"},
      {"nn.batchnorm.bwd_ms", "ms", "lower"},
      {"nn.gpt.forward_ms.ctx16", "ms", "lower"},
      {"nn.gpt.forward_ms.ctx128", "ms", "lower"},
      // tensor: kernel replay (GFLOP and MB computed from shapes)
      {"tensor.gemm.train.gflops", "GFLOP/s", "higher"},
      {"tensor.gemm.train.gflop", "GFLOP", "lower"},
      {"tensor.gemm.train.mb", "MB", "lower"},
      {"tensor.gemm.decode.gflops", "GFLOP/s", "higher"},
      {"tensor.gemm.decode.gflop", "GFLOP", "lower"},
      {"tensor.gemm.decode.mb", "MB", "lower"},
      {"tensor.gemm.conv.gflops", "GFLOP/s", "higher"},
      {"tensor.conv2d.fwd_ms", "ms", "lower"},
      {"tensor.conv2d.bwd_ms", "ms", "lower"},
      {"tensor.attention.fwd_ms", "ms", "lower"},
      {"tensor.attention.bwd_ms", "ms", "lower"},
      {"tensor.softmax_rows_ms", "ms", "lower"},
      // jube, core, check: traced sweep passes
      {"jube.expand_ms", "ms", "lower"},
      {"jube.overhead_ms_per_wp", "ms", "lower"},
      {"jube.busy_ratio", "ratio", "higher"},
      {"jube.warm_wp_per_s", "wp/s", "higher"},
      {"jube.cache_hit_ratio", "ratio", "higher"},
      {"core.llm_train.action_ms_p50", "ms", "lower"},
      {"core.resnet_train.action_ms_p50", "ms", "lower"},
      {"core.oom_ratio", "ratio", "lower"},
      {"core.llm_train.tokens_per_wh_p50", "tok/Wh", "higher"},
      {"check.doom_gate_ms_p50", "ms", "lower"},
      {"check.skipped_ratio", "ratio", "lower"},
      // the tracer itself
      {"trace.overhead_ratio", "ratio", "higher"},
  };
  return specs;
}

std::string catalogue_json() {
  json::Array workloads;
  for (const auto& w : workload_specs()) {
    json::Value entry(json::Object{});
    entry.set("name", w.name);
    entry.set("why", w.why);
    workloads.push_back(std::move(entry));
  }
  const auto metrics = [](const std::vector<MetricSpec>& specs,
                          bool with_bound) {
    json::Array out;
    for (const auto& m : specs) {
      json::Value entry(json::Object{});
      entry.set("name", m.name);
      entry.set("unit", m.unit);
      entry.set("better", m.better);
      if (with_bound) entry.set("bound", m.bound);
      out.push_back(std::move(entry));
    }
    return out;
  };
  json::Value doc(json::Object{});
  doc.set("workloads", std::move(workloads));
  doc.set("end_to_end", metrics(end_to_end_specs(), true));
  doc.set("per_layer", metrics(per_layer_specs(), false));
  return json::dump(doc);
}

}  // namespace caraml::e2e
