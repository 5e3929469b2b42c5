#include "nn/attention.hpp"

#include "tensor/fused.hpp"
#include "util/error.hpp"

namespace caraml::nn {

using tensor::Tensor;

CausalSelfAttention::CausalSelfAttention(std::int64_t embed_dim,
                                         std::int64_t num_heads, Rng& rng)
    : embed_dim_(embed_dim),
      num_heads_(num_heads),
      head_dim_(embed_dim / num_heads),
      qkv_(std::make_shared<Linear>(embed_dim, 3 * embed_dim, rng)),
      proj_(std::make_shared<Linear>(embed_dim, embed_dim, rng)) {
  CARAML_CHECK_MSG(embed_dim % num_heads == 0,
                   "embed_dim must be divisible by num_heads");
}

void CausalSelfAttention::set_compute_dtype(tensor::DType dtype) {
  CARAML_CHECK_MSG(dtype != tensor::DType::kI8,
                   "attention projections sit on the training path; int8 is "
                   "inference-only (use kF32 or kBf16)");
  qkv_->set_compute_dtype(dtype);
  proj_->set_compute_dtype(dtype);
}

Tensor CausalSelfAttention::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(2) == embed_dim_,
                   "attention expects [B, T, C]");
  batch_ = input.dim(0);
  time_ = input.dim(1);
  const std::int64_t b_count = batch_, t_count = time_, c = embed_dim_;

  const Tensor flat = input.reshape({b_count * t_count, c});
  cached_qkv_ = qkv_->forward(flat);  // [B*T, 3C]

  cached_heads_out_ = Tensor({b_count * t_count, c});
  cached_lse_ = Tensor({b_count * num_heads_, t_count});
  tensor::fused::causal_attention_forward(cached_qkv_.data(), b_count, t_count,
                                          c, num_heads_,
                                          cached_heads_out_.data(),
                                          cached_lse_.data());
  Tensor out = proj_->forward(cached_heads_out_);  // [B*T, C]
  return out.reshape({b_count, t_count, c});
}

Tensor CausalSelfAttention::backward(const Tensor& grad_output) {
  CARAML_CHECK_MSG(!cached_lse_.empty(),
                   "attention backward requires a forward");
  const std::int64_t b_count = batch_, t_count = time_, c = embed_dim_;
  CARAML_CHECK_MSG(grad_output.rank() == 3 && grad_output.dim(0) == b_count &&
                       grad_output.dim(1) == t_count && grad_output.dim(2) == c,
                   "attention backward shape mismatch");
  const Tensor g_flat = grad_output.reshape({b_count * t_count, c});
  const Tensor d_heads = proj_->backward(g_flat);  // [B*T, C]

  Tensor d_qkv({b_count * t_count, 3 * c});  // zero-initialized
  tensor::fused::causal_attention_backward(
      cached_qkv_.data(), cached_heads_out_.data(), d_heads.data(),
      cached_lse_.data(), b_count, t_count, c, num_heads_, d_qkv.data());
  Tensor d_input = qkv_->backward(d_qkv);  // [B*T, C]
  return d_input.reshape({b_count, t_count, c});
}

std::vector<Parameter*> CausalSelfAttention::parameters() {
  std::vector<Parameter*> out = qkv_->parameters();
  for (Parameter* p : proj_->parameters()) out.push_back(p);
  return out;
}

}  // namespace caraml::nn
