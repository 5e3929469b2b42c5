// Megatron-style tensor parallelism (paper §II-A references [2], [6]): the
// transformer MLP's first linear is split by output columns, the second by
// input rows, so the only communication is one all-reduce of the block
// output per direction.
#pragma once

#include <memory>

#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "par/comm.hpp"

namespace caraml::par {

/// Y = X * W^T with W row-partitioned across ranks (each rank owns
/// out_features/p of the outputs). Forward produces the *local* output
/// shard; backward all-reduces dX (since every rank needs the full input
/// gradient).
class ColumnParallelLinear : public nn::Module {
 public:
  ColumnParallelLinear(std::int64_t in_features, std::int64_t out_features,
                       Communicator& comm, Rng& rng);

  nn::Tensor forward(const nn::Tensor& input) override;   // [N,in] -> [N,out/p]
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;

  std::int64_t local_out() const { return local_out_; }

 private:
  Communicator& comm_;
  std::int64_t local_out_;
  std::shared_ptr<nn::Linear> local_;
};

/// Y = X * W^T with W column-partitioned (each rank owns in_features/p of
/// the inputs); forward computes a partial product and all-reduces the sum.
class RowParallelLinear : public nn::Module {
 public:
  RowParallelLinear(std::int64_t in_features, std::int64_t out_features,
                    Communicator& comm, Rng& rng);

  nn::Tensor forward(const nn::Tensor& input) override;   // [N,in/p] -> [N,out]
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;

 private:
  Communicator& comm_;
  std::shared_ptr<nn::Linear> local_;  // bias only applied on rank 0
};

/// The classic Megatron MLP block: ColumnParallel(in, 4h) -> GELU ->
/// RowParallel(4h, out). One all-reduce forward, one backward.
class TensorParallelMlp : public nn::Module {
 public:
  TensorParallelMlp(std::int64_t hidden, Communicator& comm, Rng& rng);

  nn::Tensor forward(const nn::Tensor& input) override;
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;

 private:
  std::shared_ptr<ColumnParallelLinear> fc_in_;
  std::shared_ptr<nn::Gelu> act_;
  std::shared_ptr<RowParallelLinear> fc_out_;
};

/// Megatron tensor-parallel causal self-attention: attention heads are
/// partitioned across ranks (the QKV projection is column-parallel by head,
/// the output projection row-parallel), so each rank computes a disjoint
/// head subset and one all-reduce assembles the block output.
class TensorParallelAttention : public nn::Module {
 public:
  TensorParallelAttention(std::int64_t embed_dim, std::int64_t num_heads,
                          Communicator& comm, Rng& rng);

  std::int64_t local_heads() const { return local_heads_; }

  nn::Tensor forward(const nn::Tensor& input) override;   // [B, T, C]
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;

  /// Install shards of a serial attention's weights (tests / checkpoint
  /// loading): qkv [3C, C] split by this rank's heads, proj [C, C] split by
  /// input columns.
  void load_from_serial(const nn::Tensor& qkv_weight,
                        const nn::Tensor& qkv_bias,
                        const nn::Tensor& proj_weight,
                        const nn::Tensor& proj_bias);

 private:
  Communicator& comm_;
  std::int64_t embed_dim_;
  std::int64_t num_heads_;
  std::int64_t local_heads_;
  std::int64_t head_dim_;
  std::shared_ptr<nn::Linear> qkv_;   // [3 * local_heads * hd, C]
  std::shared_ptr<nn::Linear> proj_;  // [C, local_heads * hd], bias on rank 0

  std::int64_t batch_ = 0, time_ = 0;
  nn::Tensor cached_qkv_;        // [B*T, 3*localC]
  nn::Tensor cached_heads_out_;  // [B*T, localC]
  nn::Tensor cached_lse_;        // [B*localH, T]
};

/// A full Megatron-parallel pre-norm transformer block:
///   x += TPAttention(LN1(x));  x += TPMlp(LN2(x))
/// Layer norms are replicated (cheap); attention heads and MLP columns are
/// sharded; four all-reduces per block per direction, exactly Megatron's
/// communication pattern.
class TensorParallelBlock : public nn::Module {
 public:
  TensorParallelBlock(std::int64_t embed_dim, std::int64_t num_heads,
                      Communicator& comm, Rng& rng);

  nn::Tensor forward(const nn::Tensor& input) override;   // [B, T, C]
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;

  TensorParallelAttention& attention() { return *attn_; }
  nn::LayerNorm& ln1() { return *ln1_; }
  nn::LayerNorm& ln2() { return *ln2_; }
  ColumnParallelLinear& mlp_in() { return *fc_in_; }
  RowParallelLinear& mlp_out() { return *fc_out_; }

 private:
  std::int64_t embed_dim_;
  std::shared_ptr<nn::LayerNorm> ln1_;
  std::shared_ptr<TensorParallelAttention> attn_;
  std::shared_ptr<nn::LayerNorm> ln2_;
  std::shared_ptr<ColumnParallelLinear> fc_in_;
  std::shared_ptr<nn::Gelu> act_;
  std::shared_ptr<RowParallelLinear> fc_out_;
  std::int64_t batch_ = 0, time_ = 0;
};

}  // namespace caraml::par
