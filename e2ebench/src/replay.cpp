// Kernel and module replay at the workloads' shapes, for the traced run only.
//
// Each public kernel or module is called kReps times after one untimed
// warm-up call, every call a span. Operation counts and bytes are computed
// from the shapes (A, B and C of each GEMM, 4 bytes per float), not measured.
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gpt.hpp"
#include "shapes.hpp"
#include "tensor/fused.hpp"
#include "tensor/tensor.hpp"
#include "workloads.hpp"

namespace caraml::e2e {
namespace {

constexpr int kReps = 5;

template <typename F>
void replay(Probe& probe, const char* name, F&& fn) {
  fn();  // warm-up: first-touch allocations stay out of the spans
  for (int i = 0; i < kReps; ++i) {
    auto span = probe.scope(name);
    fn();
  }
}

/// Forward and backward of one module on `input`, under <prefix>.fwd/.bwd.
void replay_module(Probe& probe, nn::Module& module, const tensor::Tensor& input,
                   const char* fwd_name, const char* bwd_name) {
  tensor::Tensor output = module.forward(input);
  const tensor::Tensor grad = tensor::Tensor::ones(output.shape());
  replay(probe, fwd_name, [&] { output = module.forward(input); });
  replay(probe, bwd_name, [&] { module.backward(grad); });
}

struct GemmShape {
  std::int64_t m, n, k;
};

/// One call per shape of C[m,n] = A[m,k] * B[n,k]^T, all under one span.
/// Returns {GFLOP, computed MB} of the set.
std::pair<double, double> replay_gemms(Probe& probe, const char* name,
                                       const std::vector<GemmShape>& shapes,
                                       Rng& rng) {
  std::vector<std::pair<tensor::Tensor, tensor::Tensor>> operands;
  double flop = 0.0;
  double bytes = 0.0;
  for (const GemmShape& s : shapes) {
    operands.emplace_back(tensor::Tensor::randn({s.m, s.k}, rng),
                          tensor::Tensor::randn({s.n, s.k}, rng));
    flop += 2.0 * static_cast<double>(s.m * s.n * s.k);
    bytes += 4.0 * static_cast<double>(s.m * s.k + s.n * s.k + s.m * s.n);
  }
  replay(probe, name, [&] {
    for (const auto& [a, b] : operands) tensor::matmul_nt(a, b);
  });
  return {flop / 1e9, bytes / 1e6};
}

}  // namespace

void replay_layers(Probe& probe, std::uint64_t seed, Metrics& out) {
  using namespace shapes;
  Rng rng(seed ^ 0x5eedULL);
  const std::int64_t rows = kGptBatch * kGptBlock;

  // --- nn modules at the gpt_train shape -----------------------------------
  tensor::Tensor ids({kGptBatch, kGptBlock});
  for (std::int64_t i = 0; i < ids.numel(); ++i) {
    ids[i] = static_cast<float>(rng.uniform_int(0, kGptVocab - 1));
  }
  const tensor::Tensor hidden = tensor::Tensor::randn({rows, kGptEmbed}, rng);
  const tensor::Tensor hidden3 = hidden.reshape({kGptBatch, kGptBlock, kGptEmbed});
  nn::Embedding embedding(kGptVocab, kGptEmbed, rng);
  nn::LayerNorm layernorm(kGptEmbed);
  nn::CausalSelfAttention attention(kGptEmbed, kGptHeads, rng);
  nn::TransformerBlock block(kGptEmbed, kGptHeads, rng);
  nn::Linear lm_head(kGptEmbed, kGptVocab, rng, /*bias=*/false);
  {
    // Embedding backward returns no input gradient; replay it directly.
    const tensor::Tensor grad = tensor::Tensor::ones({rows, kGptEmbed});
    replay(probe, "nn.embedding.fwd", [&] { embedding.forward(ids); });
    replay(probe, "nn.embedding.bwd", [&] { embedding.backward(grad); });
  }
  replay_module(probe, layernorm, hidden, "nn.layernorm.fwd", "nn.layernorm.bwd");
  replay_module(probe, attention, hidden3, "nn.attention.fwd", "nn.attention.bwd");
  replay_module(probe, block, hidden3, "nn.block.fwd", "nn.block.bwd");
  replay_module(probe, lm_head, hidden, "nn.lm_head.fwd", "nn.lm_head.bwd");

  // --- nn modules at the resnet_train stem shape ---------------------------
  const nn::ResNetConfig resnet = resnet_config();
  const tensor::Tensor images = tensor::Tensor::randn(
      {kResnetBatch, kImageChannels, kImageSize, kImageSize}, rng);
  nn::Conv2d conv(kImageChannels, resnet.stem_channels, 3, 1, 1, rng);
  nn::BatchNorm2d batchnorm(resnet.stem_channels);
  const tensor::Tensor features = tensor::Tensor::randn(
      {kResnetBatch, resnet.stem_channels, kImageSize, kImageSize}, rng);
  replay_module(probe, conv, images, "nn.conv2d.fwd", "nn.conv2d.bwd");
  replay_module(probe, batchnorm, features, "nn.batchnorm.fwd",
                "nn.batchnorm.bwd");

  // --- whole-model forward at decode context lengths ------------------------
  nn::GptModel model(gpt_config(), rng);
  for (const auto& [context, name] :
       {std::pair<std::int64_t, const char*>{16, "nn.gpt.forward.ctx16"},
        std::pair<std::int64_t, const char*>{kGptBlock,
                                             "nn.gpt.forward.ctx128"}}) {
    tensor::Tensor prompt({1, context});
    for (std::int64_t i = 0; i < context; ++i) {
      prompt[i] = static_cast<float>(rng.uniform_int(0, kGptVocab - 1));
    }
    replay(probe, name, [&] { model.forward(prompt); });
  }

  // --- tensor kernels ------------------------------------------------------
  // The forward GEMMs of one transformer block plus the LM head: QKV,
  // attention output, MLP in/out, vocabulary projection.
  const auto gpt_gemms = [&](std::int64_t m) {
    return std::vector<GemmShape>{{m, 3 * kGptEmbed, kGptEmbed},
                                  {m, kGptEmbed, kGptEmbed},
                                  {m, 4 * kGptEmbed, kGptEmbed},
                                  {m, kGptEmbed, 4 * kGptEmbed},
                                  {m, kGptVocab, kGptEmbed}};
  };
  const auto [train_gflop, train_mb] =
      replay_gemms(probe, "tensor.gemm.train", gpt_gemms(rows), rng);
  std::vector<GemmShape> decode_shapes = gpt_gemms(1);
  for (const GemmShape& s : gpt_gemms(8)) decode_shapes.push_back(s);
  const auto [decode_gflop, decode_mb] =
      replay_gemms(probe, "tensor.gemm.decode", decode_shapes, rng);

  const tensor::Tensor weight =
      tensor::Tensor::randn({resnet.stem_channels, kImageChannels, 3, 3}, rng);
  const tensor::Conv2dArgs args{1, 1};
  tensor::Tensor conv_out = tensor::conv2d(images, weight, args);
  const tensor::Tensor conv_grad = tensor::Tensor::ones(conv_out.shape());
  replay(probe, "tensor.conv2d.fwd",
         [&] { conv_out = tensor::conv2d(images, weight, args); });
  replay(probe, "tensor.conv2d.bwd", [&] {
    tensor::conv2d_backward_input(conv_grad, weight, images.shape(), args);
    tensor::conv2d_backward_weight(conv_grad, images, weight.shape(), args);
  });
  const double conv_gflop =
      2.0 * static_cast<double>(conv_out.numel() * kImageChannels * 9) / 1e9;

  const tensor::Tensor qkv = tensor::Tensor::randn({rows, 3 * kGptEmbed}, rng);
  tensor::Tensor heads({rows, kGptEmbed});
  tensor::Tensor lse({kGptBatch * kGptHeads, kGptBlock});
  const tensor::Tensor d_heads = tensor::Tensor::randn({rows, kGptEmbed}, rng);
  tensor::Tensor d_qkv({rows, 3 * kGptEmbed});
  replay(probe, "tensor.attention.fwd", [&] {
    tensor::fused::causal_attention_forward(qkv.data(), kGptBatch, kGptBlock,
                                            kGptEmbed, kGptHeads, heads.data(),
                                            lse.data());
  });
  replay(probe, "tensor.attention.bwd", [&] {
    d_qkv.fill(0.0f);
    tensor::fused::causal_attention_backward(
        qkv.data(), heads.data(), d_heads.data(), lse.data(), kGptBatch,
        kGptBlock, kGptEmbed, kGptHeads, d_qkv.data());
  });

  const tensor::Tensor logits = tensor::Tensor::randn({rows, kGptVocab}, rng);
  replay(probe, "tensor.softmax_rows", [&] { tensor::softmax_rows(logits); });

  // --- metrics -------------------------------------------------------------
  for (const char* name :
       {"nn.embedding", "nn.layernorm", "nn.attention", "nn.block",
        "nn.lm_head", "nn.conv2d", "nn.batchnorm"}) {
    const std::string base = name;
    out[base + ".fwd_ms"] = {probe.median_ms(base + ".fwd"), "ms"};
    out[base + ".bwd_ms"] = {probe.median_ms(base + ".bwd"), "ms"};
  }
  out["nn.gpt.forward_ms.ctx16"] = {probe.median_ms("nn.gpt.forward.ctx16"),
                                    "ms"};
  out["nn.gpt.forward_ms.ctx128"] = {probe.median_ms("nn.gpt.forward.ctx128"),
                                     "ms"};
  const double train_ms = probe.median_ms("tensor.gemm.train");
  const double decode_ms = probe.median_ms("tensor.gemm.decode");
  out["tensor.gemm.train.gflop"] = {train_gflop, "GFLOP"};
  out["tensor.gemm.train.mb"] = {train_mb, "MB"};
  out["tensor.gemm.train.gflops"] = {train_gflop / (train_ms / 1e3), "GFLOP/s"};
  out["tensor.gemm.decode.gflop"] = {decode_gflop, "GFLOP"};
  out["tensor.gemm.decode.mb"] = {decode_mb, "MB"};
  out["tensor.gemm.decode.gflops"] = {decode_gflop / (decode_ms / 1e3),
                                      "GFLOP/s"};
  out["tensor.gemm.conv.gflops"] = {
      conv_gflop / (probe.median_ms("tensor.conv2d.fwd") / 1e3), "GFLOP/s"};
  out["tensor.conv2d.fwd_ms"] = {probe.median_ms("tensor.conv2d.fwd"), "ms"};
  out["tensor.conv2d.bwd_ms"] = {probe.median_ms("tensor.conv2d.bwd"), "ms"};
  out["tensor.attention.fwd_ms"] = {probe.median_ms("tensor.attention.fwd"),
                                    "ms"};
  out["tensor.attention.bwd_ms"] = {probe.median_ms("tensor.attention.bwd"),
                                    "ms"};
  out["tensor.softmax_rows_ms"] = {probe.median_ms("tensor.softmax_rows"),
                                   "ms"};
}

}  // namespace caraml::e2e
