#include "par/tensor_parallel.hpp"

#include "tensor/fused.hpp"
#include "util/error.hpp"

namespace caraml::par {

using nn::Tensor;

ColumnParallelLinear::ColumnParallelLinear(std::int64_t in_features,
                                           std::int64_t out_features,
                                           Communicator& comm, Rng& rng)
    : comm_(comm), local_out_(out_features / comm.size()) {
  CARAML_CHECK_MSG(out_features % comm.size() == 0,
                   "out_features must divide by tensor-parallel size");
  local_ = std::make_shared<nn::Linear>(in_features, local_out_, rng);
}

Tensor ColumnParallelLinear::forward(const Tensor& input) {
  return local_->forward(input);
}

Tensor ColumnParallelLinear::backward(const Tensor& grad_output) {
  Tensor d_input = local_->backward(grad_output);
  // The input was replicated; its gradient is the sum of all shards'
  // contributions (Megatron's g operator).
  comm_.all_reduce_sum(d_input);
  return d_input;
}

std::vector<nn::Parameter*> ColumnParallelLinear::parameters() {
  return local_->parameters();
}

RowParallelLinear::RowParallelLinear(std::int64_t in_features,
                                     std::int64_t out_features,
                                     Communicator& comm, Rng& rng)
    : comm_(comm) {
  CARAML_CHECK_MSG(in_features % comm.size() == 0,
                   "in_features must divide by tensor-parallel size");
  // Bias is applied once (rank 0) so the all-reduced sum adds it exactly once.
  local_ = std::make_shared<nn::Linear>(in_features / comm.size(), out_features,
                                        rng, /*bias=*/comm.rank() == 0);
}

Tensor RowParallelLinear::forward(const Tensor& input) {
  Tensor partial = local_->forward(input);
  // Partial sums across the input shards (Megatron's f operator).
  comm_.all_reduce_sum(partial);
  return partial;
}

Tensor RowParallelLinear::backward(const Tensor& grad_output) {
  // grad_output is replicated across ranks (the upstream loss gradient is
  // computed from the all-reduced output); no communication needed.
  return local_->backward(grad_output);
}

std::vector<nn::Parameter*> RowParallelLinear::parameters() {
  return local_->parameters();
}

TensorParallelMlp::TensorParallelMlp(std::int64_t hidden, Communicator& comm,
                                     Rng& rng)
    : fc_in_(std::make_shared<ColumnParallelLinear>(hidden, 4 * hidden, comm,
                                                    rng)),
      act_(std::make_shared<nn::Gelu>()),
      fc_out_(std::make_shared<RowParallelLinear>(4 * hidden, hidden, comm,
                                                  rng)) {}

Tensor TensorParallelMlp::forward(const Tensor& input) {
  return fc_out_->forward(act_->forward(fc_in_->forward(input)));
}

Tensor TensorParallelMlp::backward(const Tensor& grad_output) {
  return fc_in_->backward(act_->backward(fc_out_->backward(grad_output)));
}

std::vector<nn::Parameter*> TensorParallelMlp::parameters() {
  std::vector<nn::Parameter*> out = fc_in_->parameters();
  for (nn::Parameter* p : fc_out_->parameters()) out.push_back(p);
  return out;
}

// ---------------------------------------------------------------------------
// TensorParallelAttention
// ---------------------------------------------------------------------------

TensorParallelAttention::TensorParallelAttention(std::int64_t embed_dim,
                                                 std::int64_t num_heads,
                                                 Communicator& comm, Rng& rng)
    : comm_(comm),
      embed_dim_(embed_dim),
      num_heads_(num_heads),
      local_heads_(num_heads / comm.size()),
      head_dim_(embed_dim / num_heads) {
  CARAML_CHECK_MSG(embed_dim % num_heads == 0,
                   "embed_dim must divide by num_heads");
  CARAML_CHECK_MSG(num_heads % comm.size() == 0,
                   "heads must divide by tensor-parallel size");
  const std::int64_t local_c = local_heads_ * head_dim_;
  qkv_ = std::make_shared<nn::Linear>(embed_dim, 3 * local_c, rng);
  proj_ = std::make_shared<nn::Linear>(local_c, embed_dim, rng,
                                       /*bias=*/comm.rank() == 0);
}

Tensor TensorParallelAttention::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(2) == embed_dim_,
                   "tp attention expects [B, T, C]");
  batch_ = input.dim(0);
  time_ = input.dim(1);
  const std::int64_t local_c = local_heads_ * head_dim_;
  const Tensor flat = input.reshape({batch_ * time_, embed_dim_});
  cached_qkv_ = qkv_->forward(flat);  // [B*T, 3*localC]

  // This rank's heads are an ordinary packed QKV projection with
  // local_heads heads, so the fused kernel runs on it unchanged.
  cached_heads_out_ = Tensor({batch_ * time_, local_c});
  cached_lse_ = Tensor({batch_ * local_heads_, time_});
  tensor::fused::causal_attention_forward(cached_qkv_.data(), batch_, time_,
                                          local_c, local_heads_,
                                          cached_heads_out_.data(),
                                          cached_lse_.data());

  // Row-parallel output projection: partial sums all-reduced across ranks.
  Tensor out = proj_->forward(cached_heads_out_);
  comm_.all_reduce_sum(out);
  return out.reshape({batch_, time_, embed_dim_});
}

Tensor TensorParallelAttention::backward(const Tensor& grad_output) {
  const std::int64_t local_c = local_heads_ * head_dim_;
  const Tensor g_flat = grad_output.reshape({batch_ * time_, embed_dim_});
  const Tensor d_heads = proj_->backward(g_flat);  // [B*T, localC]

  Tensor d_qkv({batch_ * time_, 3 * local_c});
  tensor::fused::causal_attention_backward(
      cached_qkv_.data(), cached_heads_out_.data(), d_heads.data(),
      cached_lse_.data(), batch_, time_, local_c, local_heads_, d_qkv.data());

  Tensor d_input = qkv_->backward(d_qkv);
  // Column-parallel input gradient: sum of all shards' contributions.
  comm_.all_reduce_sum(d_input);
  return d_input.reshape({batch_, time_, embed_dim_});
}

std::vector<nn::Parameter*> TensorParallelAttention::parameters() {
  std::vector<nn::Parameter*> out = qkv_->parameters();
  for (nn::Parameter* p : proj_->parameters()) out.push_back(p);
  return out;
}

void TensorParallelAttention::load_from_serial(const nn::Tensor& qkv_weight,
                                               const nn::Tensor& qkv_bias,
                                               const nn::Tensor& proj_weight,
                                               const nn::Tensor& proj_bias) {
  const std::int64_t c = embed_dim_;
  const std::int64_t local_c = local_heads_ * head_dim_;
  CARAML_CHECK_MSG(qkv_weight.rank() == 2 && qkv_weight.dim(0) == 3 * c &&
                       qkv_weight.dim(1) == c,
                   "serial qkv weight must be [3C, C]");
  CARAML_CHECK_MSG(proj_weight.rank() == 2 && proj_weight.dim(0) == c &&
                       proj_weight.dim(1) == c,
                   "serial proj weight must be [C, C]");
  const std::int64_t head_offset = comm_.rank() * local_c;
  auto& local_qkv = *qkv_->parameters()[0];   // [3*localC, C]
  auto& local_qkv_bias = *qkv_->parameters()[1];
  for (std::int64_t which = 0; which < 3; ++which) {
    for (std::int64_t row = 0; row < local_c; ++row) {
      const std::int64_t src_row = which * c + head_offset + row;
      const std::int64_t dst_row = which * local_c + row;
      for (std::int64_t col = 0; col < c; ++col) {
        local_qkv.value[dst_row * c + col] =
            qkv_weight[src_row * c + col];
      }
      local_qkv_bias.value[dst_row] = qkv_bias[src_row];
    }
  }
  auto& local_proj = *proj_->parameters()[0];  // [C, localC]
  for (std::int64_t row = 0; row < c; ++row) {
    for (std::int64_t col = 0; col < local_c; ++col) {
      local_proj.value[row * local_c + col] =
          proj_weight[row * c + head_offset + col];
    }
  }
  if (comm_.rank() == 0) {
    proj_->parameters()[1]->value = proj_bias;
  }
}

// ---------------------------------------------------------------------------
// TensorParallelBlock
// ---------------------------------------------------------------------------

TensorParallelBlock::TensorParallelBlock(std::int64_t embed_dim,
                                         std::int64_t num_heads,
                                         Communicator& comm, Rng& rng)
    : embed_dim_(embed_dim),
      ln1_(std::make_shared<nn::LayerNorm>(embed_dim)),
      attn_(std::make_shared<TensorParallelAttention>(embed_dim, num_heads,
                                                      comm, rng)),
      ln2_(std::make_shared<nn::LayerNorm>(embed_dim)),
      fc_in_(std::make_shared<ColumnParallelLinear>(embed_dim, 4 * embed_dim,
                                                    comm, rng)),
      act_(std::make_shared<nn::Gelu>()),
      fc_out_(std::make_shared<RowParallelLinear>(4 * embed_dim, embed_dim,
                                                  comm, rng)) {}

Tensor TensorParallelBlock::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(2) == embed_dim_,
                   "tp block expects [B, T, C]");
  batch_ = input.dim(0);
  time_ = input.dim(1);
  const std::int64_t n = batch_ * time_;

  Tensor ln1_out = ln1_->forward(input.reshape({n, embed_dim_}));
  Tensor attn_out =
      attn_->forward(ln1_out.reshape({batch_, time_, embed_dim_}));
  Tensor x = tensor::add(input, attn_out);

  Tensor ln2_out = ln2_->forward(x.reshape({n, embed_dim_}));
  Tensor mlp = fc_out_->forward(act_->forward(fc_in_->forward(ln2_out)));
  return tensor::add(x, mlp.reshape({batch_, time_, embed_dim_}));
}

Tensor TensorParallelBlock::backward(const Tensor& grad_output) {
  const std::int64_t n = batch_ * time_;
  Tensor g_flat = grad_output.reshape({n, embed_dim_});
  Tensor d_mlp = fc_in_->backward(act_->backward(fc_out_->backward(g_flat)));
  Tensor d_x = tensor::add(g_flat, ln2_->backward(d_mlp));

  Tensor d_attn_in =
      attn_->backward(d_x.reshape({batch_, time_, embed_dim_}));
  Tensor d_input =
      tensor::add(d_x, ln1_->backward(d_attn_in.reshape({n, embed_dim_})));
  return d_input.reshape({batch_, time_, embed_dim_});
}

std::vector<nn::Parameter*> TensorParallelBlock::parameters() {
  std::vector<nn::Parameter*> out;
  for (auto* m :
       {static_cast<nn::Module*>(ln1_.get()), static_cast<nn::Module*>(attn_.get()),
        static_cast<nn::Module*>(ln2_.get()),
        static_cast<nn::Module*>(fc_in_.get()),
        static_cast<nn::Module*>(fc_out_.get())}) {
    for (nn::Parameter* p : m->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace caraml::par
