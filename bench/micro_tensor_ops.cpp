// google-benchmark microbenchmarks of the CPU tensor substrate: the GEMM,
// conv2d, BatchNorm and softmax kernels that execute the real (CPU) training
// path.
//
// All benchmarks use wall time (UseRealTime): the benchmark thread computes
// one share of each parallel region and the pool's helpers the rest, so its
// CPU time undercounts the work. items_per_second for the GEMMs is FLOPs
// (2*m*n*k).
//
// scripts/bench_perf.py consumes --benchmark_format=json output from this
// binary. Two committed baselines gate regressions: BENCH_tensor.json records
// single-thread numbers (CARAML_NUM_THREADS=1) and BENCH_tensor_mt.json
// 8-thread numbers; `bench_perf.py scaling` additionally gates the MT/ST
// speedup of every benchmark present in both, so threading regressions that
// leave single-thread time intact still fail CI.
#include <benchmark/benchmark.h>

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
// the decode case (8 rows against a square weight): every dtype streams op(B)
// once per call on the same skinny path, so the pair measures what the 2x /
// 4x smaller storage of bf16 / int8 buys net of widening cost. The cubic
// shapes are compute-bound on this substrate and document that dtype storage
// does NOT help when the packing already amortizes the traffic.

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

// --- causal attention: fused streaming kernel --------------------------------
//
// GPT-style shape: B=4, H=8, C=256 (head_dim 32), T from the benchmark arg.
// items_per_second is tokens/s (B*T per pass) — the unit the scaling gate
// tracks across thread counts.

constexpr std::int64_t kAttnBatch = 4;
constexpr std::int64_t kAttnHeads = 8;
constexpr std::int64_t kAttnEmbed = 256;

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

}  // namespace

// An empty region over 64 indices: what every parallel kernel pays to open
// a region on the global pool, wake its helpers and wait for them to leave.
void BM_ParallelRegion(benchmark::State& state) {
  for (auto _ : state) {
    caraml::parallel_for_range(0, 64, 1, [](std::size_t lo, std::size_t hi) {
      benchmark::DoNotOptimize(lo + hi);
    });
  }
}
BENCHMARK(BM_ParallelRegion)->UseRealTime();

BENCHMARK_MAIN();
