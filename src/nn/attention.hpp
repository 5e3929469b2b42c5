// Multi-head causal self-attention — the transformer core operation the
// paper highlights (quadratic in sequence length, matrix products of token
// representations).
//
// The attention itself runs in the flash-attention-style streaming kernel
// (tensor/fused.hpp): tiled QK^T → mask → softmax → ·V in one pass, no
// [T, T] materialization. Backward recomputes attention tiles from the
// cached QKV + per-row log-sum-exp, so the module's cache is
// O(B·T·C + B·H·T). Tests check it against an fp64 reference.
#pragma once

#include <memory>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace caraml::nn {

class CausalSelfAttention : public Module {
 public:
  CausalSelfAttention(std::int64_t embed_dim, std::int64_t num_heads,
                      Rng& rng);

  /// input [B, T, C] -> output [B, T, C].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  std::int64_t num_heads() const { return num_heads_; }

  /// Run the QKV and output projections in the given precision (kF32 or
  /// kBf16; the attention core itself — QK^T, softmax, ·V — stays fp32).
  /// kI8 is rejected: the projections sit on the training path.
  void set_compute_dtype(tensor::DType dtype);

 private:
  std::int64_t embed_dim_;
  std::int64_t num_heads_;
  std::int64_t head_dim_;
  std::shared_ptr<Linear> qkv_;
  std::shared_ptr<Linear> proj_;

  // Forward caches.
  std::int64_t batch_ = 0;
  std::int64_t time_ = 0;
  Tensor cached_qkv_;        // [B*T, 3C]
  Tensor cached_heads_out_;  // [B*T, C]
  Tensor cached_lse_;        // [B*H, T]
};

}  // namespace caraml::nn
