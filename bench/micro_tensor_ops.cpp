// google-benchmark microbenchmarks of the CPU tensor substrate: the GEMM,
// conv2d, BatchNorm and softmax kernels that execute the real (CPU) training
// path.
//
// All benchmarks use wall time (UseRealTime): the kernels run on the process
// thread pool, so the main thread's CPU time measures dispatch overhead, not
// compute. items_per_second for the GEMMs is FLOPs (2*m*n*k).
//
// scripts/bench_perf.py consumes --benchmark_format=json output from this
// binary. Two committed baselines gate regressions: BENCH_tensor.json records
// single-thread numbers (CARAML_NUM_THREADS=1) and BENCH_tensor_mt.json
// 8-thread numbers; `bench_perf.py scaling` additionally gates the MT/ST
// speedup of every benchmark present in both, so threading regressions that
// leave single-thread time intact still fail CI.
#include <benchmark/benchmark.h>

#include <cmath>

#include "nn/conv.hpp"
#include "tensor/dtype.hpp"
#include "tensor/fused.hpp"
#include "tensor/gemm.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using caraml::Rng;
using caraml::tensor::Bf16Tensor;
using caraml::tensor::QuantizedTensor;
using caraml::tensor::Tensor;

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_MatmulNt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul_nt(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_MatmulTn(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul_tn(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulTn)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// --- dtype variants ----------------------------------------------------------
//
// Naming contract for `bench_perf.py dtype-speedup`: a dtype benchmark pairs
// with the fp32 benchmark whose name is the same minus the "Bf16" / "Int8"
// token (BM_MatmulBf16Wide/4096 <-> BM_MatmulWide/4096). The Wide shapes are
// the bandwidth-bound decode case (8 rows against a square weight): there the
// GEMM streams op(B) once per call and the 2x / 4x smaller storage of
// bf16 / int8 converts directly into speedup. The cubic shapes are
// compute-bound on this substrate and document that dtype storage does NOT
// help when the packing already amortizes the traffic.

void BM_MatmulBf16(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Bf16Tensor a = Bf16Tensor::from_float(Tensor::randn({n, n}, rng));
  const Bf16Tensor b = Bf16Tensor::from_float(Tensor::randn({n, n}, rng));
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul_bf16(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulBf16)->Arg(256)->UseRealTime();

void BM_MatmulInt8(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const QuantizedTensor a =
      caraml::tensor::quantize_per_tensor(Tensor::randn({n, n}, rng));
  const QuantizedTensor b =
      caraml::tensor::quantize_per_channel_rows(Tensor::randn({n, n}, rng));
  Tensor c({n, n});
  for (auto _ : state) {
    c.fill(0.0f);  // gemm_i8 accumulates into C
    caraml::tensor::detail::gemm_i8(true, n, n, n, a.data.data(), n,
                                    b.data.data(), n, a.scales[0],
                                    b.scales.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulInt8)->Arg(256)->UseRealTime();

// fp32 anchor of the Wide pairs: 8 decode rows against an [n, n] weight,
// matmul_nt like every Linear forward.
void BM_MatmulWide(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({8, n}, rng);
  const Tensor w = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul_nt(a, w);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 8 * n * n);
}
BENCHMARK(BM_MatmulWide)->Arg(2048)->Arg(4096)->UseRealTime();

void BM_MatmulBf16Wide(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Bf16Tensor a = Bf16Tensor::from_float(Tensor::randn({8, n}, rng));
  const Bf16Tensor w = Bf16Tensor::from_float(Tensor::randn({n, n}, rng));
  for (auto _ : state) {
    Tensor c = caraml::tensor::matmul_nt_bf16(a, w);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 8 * n * n);
}
BENCHMARK(BM_MatmulBf16Wide)->Arg(2048)->Arg(4096)->UseRealTime();

void BM_MatmulInt8Wide(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a_f32 = Tensor::randn({8, n}, rng);
  const QuantizedTensor w =
      caraml::tensor::quantize_per_channel_rows(Tensor::randn({n, n}, rng));
  Tensor c({8, n});
  for (auto _ : state) {
    // Activations quantize per forward in the inference path — that pass is
    // part of what the Wide pair measures (it is O(m·k) next to O(m·k·n)).
    const QuantizedTensor a = caraml::tensor::quantize_per_tensor(a_f32);
    c.fill(0.0f);
    caraml::tensor::detail::gemm_i8(true, 8, n, n, a.data.data(), n,
                                    w.data.data(), n, a.scales[0],
                                    w.scales.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 8 * n * n);
}
BENCHMARK(BM_MatmulInt8Wide)->Arg(2048)->Arg(4096)->UseRealTime();

void BM_Conv2d(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(1);
  const Tensor input = Tensor::randn({4, channels, 16, 16}, rng);
  const Tensor weight = Tensor::randn({channels, channels, 3, 3}, rng);
  caraml::tensor::Conv2dArgs args;
  args.stride = 1;
  args.padding = 1;
  for (auto _ : state) {
    Tensor out = caraml::tensor::conv2d(input, weight, args);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2d)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

void BM_Conv2dBackward(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(1);
  const Tensor input = Tensor::randn({4, channels, 16, 16}, rng);
  const Tensor weight = Tensor::randn({channels, channels, 3, 3}, rng);
  caraml::tensor::Conv2dArgs args;
  args.stride = 1;
  args.padding = 1;
  const Tensor out = caraml::tensor::conv2d(input, weight, args);
  const Tensor grad = Tensor::randn(out.shape(), rng);
  for (auto _ : state) {
    Tensor dw = caraml::tensor::conv2d_backward_weight(grad, input,
                                                       weight.shape(), args);
    Tensor dx = caraml::tensor::conv2d_backward_input(grad, weight,
                                                      input.shape(), args);
    benchmark::DoNotOptimize(dw.data());
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16)->Arg(32)->UseRealTime();

// resnet_train shapes: a batch of 64 32x32 feature maps with 16 channels.
// Pointwise 1x1 convs are 7 of the 13 convs in ResNetConfig::small_bottleneck
// and take the no-unfold path; forward plus both gradients per iteration.
void BM_Conv2dPointwise(benchmark::State& state) {
  Rng rng(1);
  const Tensor input = Tensor::randn({64, 16, 32, 32}, rng);
  const Tensor weight = Tensor::randn({16, 16, 1, 1}, rng);
  const caraml::tensor::Conv2dArgs args;
  const Tensor grad = Tensor::randn(input.shape(), rng);
  for (auto _ : state) {
    Tensor out = caraml::tensor::conv2d(input, weight, args);
    Tensor dw = caraml::tensor::conv2d_backward_weight(grad, input,
                                                       weight.shape(), args);
    Tensor dx = caraml::tensor::conv2d_backward_input(grad, weight,
                                                      input.shape(), args);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2dPointwise)->UseRealTime();

void BM_BatchNorm2dForward(benchmark::State& state) {
  Rng rng(1);
  const Tensor input = Tensor::randn({64, 16, 32, 32}, rng);
  caraml::nn::BatchNorm2d norm(16);
  for (auto _ : state) {
    Tensor out = norm.forward(input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BatchNorm2dForward)->UseRealTime();

void BM_BatchNorm2dBackward(benchmark::State& state) {
  Rng rng(1);
  const Tensor input = Tensor::randn({64, 16, 32, 32}, rng);
  const Tensor grad = Tensor::randn(input.shape(), rng);
  caraml::nn::BatchNorm2d norm(16);
  norm.forward(input);
  for (auto _ : state) {
    Tensor dx = norm.backward(grad);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_BatchNorm2dBackward)->UseRealTime();

void BM_SoftmaxRows(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn({rows, 512}, rng);
  for (auto _ : state) {
    Tensor out = caraml::tensor::softmax_rows(a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * 512);
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(512)->UseRealTime();

void BM_Gelu(benchmark::State& state) {
  Rng rng(1);
  const Tensor a = Tensor::randn({256, 256}, rng);
  for (auto _ : state) {
    Tensor out = caraml::tensor::gelu(a);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Gelu)->UseRealTime();

void BM_GeluBackward(benchmark::State& state) {
  Rng rng(1);
  const Tensor a = Tensor::randn({256, 256}, rng);
  const Tensor g = Tensor::randn({256, 256}, rng);
  for (auto _ : state) {
    Tensor out = caraml::tensor::gelu_backward(a, g);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GeluBackward)->UseRealTime();

// --- causal attention: fused streaming kernel vs dense head loop ------------
//
// GPT-style shape: B=4, H=8, C=256 (head_dim 32), T from the benchmark arg.
// items_per_second is tokens/s (B*T per pass) — the unit the scaling gate
// tracks across thread counts. The head-loop variants reproduce the dense
// per-(b, h) composition (slice copies, [T, T] scores, softmax, [T, T]·V)
// that the fused kernel replaces, as the perf oracle for the ≥2x target.

constexpr std::int64_t kAttnBatch = 4;
constexpr std::int64_t kAttnHeads = 8;
constexpr std::int64_t kAttnEmbed = 256;

Tensor attention_head_slice(const Tensor& qkv, std::int64_t b, std::int64_t h,
                            std::int64_t which, std::int64_t time,
                            std::int64_t embed, std::int64_t head_dim) {
  Tensor out({time, head_dim});
  const std::int64_t base_col = which * embed + h * head_dim;
  for (std::int64_t t = 0; t < time; ++t) {
    const float* src = qkv.data() + (b * time + t) * 3 * embed + base_col;
    float* dst = out.data() + t * head_dim;
    for (std::int64_t j = 0; j < head_dim; ++j) dst[j] = src[j];
  }
  return out;
}

// Dense head-loop forward; fills heads_out and (when non-null) the per-pair
// attention matrices the dense backward consumes.
void head_loop_forward(const Tensor& qkv, std::int64_t time,
                       Tensor* heads_out, std::vector<Tensor>* att_cache) {
  const std::int64_t hd = kAttnEmbed / kAttnHeads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  caraml::parallel_for_range(
      0, static_cast<std::size_t>(kAttnBatch * kAttnHeads), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b = static_cast<std::int64_t>(idx) / kAttnHeads;
          const std::int64_t h = static_cast<std::int64_t>(idx) % kAttnHeads;
          const Tensor q =
              attention_head_slice(qkv, b, h, 0, time, kAttnEmbed, hd);
          const Tensor k =
              attention_head_slice(qkv, b, h, 1, time, kAttnEmbed, hd);
          const Tensor v =
              attention_head_slice(qkv, b, h, 2, time, kAttnEmbed, hd);
          Tensor scores = caraml::tensor::matmul_nt(q, k);
          for (std::int64_t i = 0; i < time; ++i) {
            for (std::int64_t j = 0; j < time; ++j) {
              if (j > i) {
                scores[i * time + j] = -1e30f;
              } else {
                scores[i * time + j] *= scale;
              }
            }
          }
          Tensor att = caraml::tensor::softmax_rows(scores);
          Tensor y = caraml::tensor::matmul(att, v);
          if (att_cache != nullptr) (*att_cache)[idx] = std::move(att);
          for (std::int64_t t = 0; t < time; ++t) {
            float* dst =
                heads_out->data() + (b * time + t) * kAttnEmbed + h * hd;
            const float* src = y.data() + t * hd;
            for (std::int64_t j = 0; j < hd; ++j) dst[j] = src[j];
          }
        }
      });
}

void head_loop_backward(const Tensor& qkv, const std::vector<Tensor>& att,
                        const Tensor& d_heads, std::int64_t time,
                        Tensor* d_qkv) {
  const std::int64_t hd = kAttnEmbed / kAttnHeads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  caraml::parallel_for_range(
      0, static_cast<std::size_t>(kAttnBatch * kAttnHeads), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b = static_cast<std::int64_t>(idx) / kAttnHeads;
          const std::int64_t h = static_cast<std::int64_t>(idx) % kAttnHeads;
          const Tensor q =
              attention_head_slice(qkv, b, h, 0, time, kAttnEmbed, hd);
          const Tensor k =
              attention_head_slice(qkv, b, h, 1, time, kAttnEmbed, hd);
          const Tensor v =
              attention_head_slice(qkv, b, h, 2, time, kAttnEmbed, hd);
          Tensor dy({time, hd});
          for (std::int64_t t = 0; t < time; ++t) {
            const float* src =
                d_heads.data() + (b * time + t) * kAttnEmbed + h * hd;
            float* dst = dy.data() + t * hd;
            for (std::int64_t j = 0; j < hd; ++j) dst[j] = src[j];
          }
          Tensor datt = caraml::tensor::matmul_nt(dy, v);
          Tensor dv = caraml::tensor::matmul_tn(att[idx], dy);
          Tensor dscores =
              caraml::tensor::softmax_rows_backward(att[idx], datt);
          for (std::int64_t i = 0; i < time; ++i) {
            for (std::int64_t j = 0; j < time; ++j) {
              if (j > i) {
                dscores[i * time + j] = 0.0f;
              } else {
                dscores[i * time + j] *= scale;
              }
            }
          }
          Tensor dq = caraml::tensor::matmul(dscores, k);
          Tensor dk = caraml::tensor::matmul_tn(dscores, q);
          for (std::int64_t t = 0; t < time; ++t) {
            float* dst = d_qkv->data() + (b * time + t) * 3 * kAttnEmbed;
            for (std::int64_t j = 0; j < hd; ++j) {
              dst[h * hd + j] += dq[t * hd + j];
              dst[kAttnEmbed + h * hd + j] += dk[t * hd + j];
              dst[2 * kAttnEmbed + h * hd + j] += dv[t * hd + j];
            }
          }
        }
      });
}

void BM_AttentionForward(benchmark::State& state) {
  const std::int64_t time = state.range(0);
  Rng rng(1);
  const Tensor qkv = Tensor::randn({kAttnBatch * time, 3 * kAttnEmbed}, rng);
  Tensor heads_out({kAttnBatch * time, kAttnEmbed});
  Tensor lse({kAttnBatch * kAttnHeads, time});
  for (auto _ : state) {
    caraml::tensor::fused::causal_attention_forward(
        qkv.data(), kAttnBatch, time, kAttnEmbed, kAttnHeads,
        heads_out.data(), lse.data());
    benchmark::DoNotOptimize(heads_out.data());
  }
  state.SetItemsProcessed(state.iterations() * kAttnBatch * time);
}
BENCHMARK(BM_AttentionForward)->Arg(256)->UseRealTime();

void BM_AttentionBackward(benchmark::State& state) {
  const std::int64_t time = state.range(0);
  Rng rng(1);
  const Tensor qkv = Tensor::randn({kAttnBatch * time, 3 * kAttnEmbed}, rng);
  const Tensor d_heads =
      Tensor::randn({kAttnBatch * time, kAttnEmbed}, rng);
  Tensor heads_out({kAttnBatch * time, kAttnEmbed});
  Tensor lse({kAttnBatch * kAttnHeads, time});
  caraml::tensor::fused::causal_attention_forward(
      qkv.data(), kAttnBatch, time, kAttnEmbed, kAttnHeads, heads_out.data(),
      lse.data());
  Tensor d_qkv({kAttnBatch * time, 3 * kAttnEmbed});
  for (auto _ : state) {
    d_qkv.fill(0.0f);  // the kernel accumulates
    caraml::tensor::fused::causal_attention_backward(
        qkv.data(), heads_out.data(), d_heads.data(), lse.data(), kAttnBatch,
        time, kAttnEmbed, kAttnHeads, d_qkv.data());
    benchmark::DoNotOptimize(d_qkv.data());
  }
  state.SetItemsProcessed(state.iterations() * kAttnBatch * time);
}
BENCHMARK(BM_AttentionBackward)->Arg(256)->UseRealTime();

void BM_AttentionHeadLoopForward(benchmark::State& state) {
  const std::int64_t time = state.range(0);
  Rng rng(1);
  const Tensor qkv = Tensor::randn({kAttnBatch * time, 3 * kAttnEmbed}, rng);
  Tensor heads_out({kAttnBatch * time, kAttnEmbed});
  for (auto _ : state) {
    head_loop_forward(qkv, time, &heads_out, nullptr);
    benchmark::DoNotOptimize(heads_out.data());
  }
  state.SetItemsProcessed(state.iterations() * kAttnBatch * time);
}
BENCHMARK(BM_AttentionHeadLoopForward)->Arg(256)->UseRealTime();

void BM_AttentionHeadLoopBackward(benchmark::State& state) {
  const std::int64_t time = state.range(0);
  Rng rng(1);
  const Tensor qkv = Tensor::randn({kAttnBatch * time, 3 * kAttnEmbed}, rng);
  const Tensor d_heads =
      Tensor::randn({kAttnBatch * time, kAttnEmbed}, rng);
  Tensor heads_out({kAttnBatch * time, kAttnEmbed});
  std::vector<Tensor> att(
      static_cast<std::size_t>(kAttnBatch * kAttnHeads));
  head_loop_forward(qkv, time, &heads_out, &att);
  Tensor d_qkv({kAttnBatch * time, 3 * kAttnEmbed});
  for (auto _ : state) {
    d_qkv.fill(0.0f);
    head_loop_backward(qkv, att, d_heads, time, &d_qkv);
    benchmark::DoNotOptimize(d_qkv.data());
  }
  state.SetItemsProcessed(state.iterations() * kAttnBatch * time);
}
BENCHMARK(BM_AttentionHeadLoopBackward)->Arg(256)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
