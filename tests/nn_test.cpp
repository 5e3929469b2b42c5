#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "attention_oracle.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gpt.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/resnet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caraml::nn {
namespace {

using tensor::Tensor;

// Check d(sum(module(x)))/dx and d/dparams against central finite differences.
// The module is re-run for each probe, so it must be deterministic.
void check_gradients(Module& module, const Tensor& input, float eps = 1e-2f,
                     float tol = 5e-2f, int param_stride = 7,
                     int input_stride = 5) {
  // Analytic gradients.
  module.zero_grad();
  const Tensor out = module.forward(input);
  const Tensor ones = Tensor::ones(out.shape());
  const Tensor dinput = module.backward(ones);

  auto loss_at = [&](const Tensor& x) {
    return tensor::sum(module.forward(x));
  };

  // Input gradient.
  if (dinput.numel() > 0) {
    for (std::int64_t i = 0; i < input.numel(); i += input_stride) {
      Tensor xp = input, xm = input;
      xp[i] += eps;
      xm[i] -= eps;
      const float fd = (loss_at(xp) - loss_at(xm)) / (2.0f * eps);
      ASSERT_NEAR(dinput[i], fd, tol) << "input grad, index " << i;
    }
  }

  // Parameter gradients (captured before the probe runs overwrite them...
  // probes do not call backward, so grads are intact).
  for (Parameter* p : module.parameters()) {
    for (std::int64_t i = 0; i < p->numel(); i += param_stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float up = loss_at(input);
      p->value[i] = saved - eps;
      const float down = loss_at(input);
      p->value[i] = saved;
      const float fd = (up - down) / (2.0f * eps);
      ASSERT_NEAR(p->grad[i], fd, tol)
          << "param " << p->name << ", index " << i;
    }
  }
}

// --- Linear -----------------------------------------------------------------------

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value = Tensor({3, 2}, {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  layer.bias()->value = Tensor({3}, {0.5f, -0.5f, 0.0f});
  const Tensor x({1, 2}, {2.0f, 3.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 2.5f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear layer(4, 3, rng, true, 0.5f);
  const Tensor x = Tensor::randn({5, 4}, rng);
  check_gradients(layer, x, 1e-2f, 2e-2f, 3, 2);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  Linear layer(4, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  EXPECT_EQ(layer.bias(), nullptr);
}

TEST(Linear, ShapeMismatchThrows) {
  Rng rng(4);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 3})), Error);
}

TEST(Linear, GeluEpilogueGradientsMatchFiniteDifference) {
  Rng rng(31);
  Linear layer(6, 5, rng, true, 0.5f);
  layer.set_gelu();
  const Tensor x = Tensor::randn({4, 6}, rng, 0.5f);
  check_gradients(layer, x, 1e-2f, 5e-2f, 3, 1);
}

TEST(Linear, DropoutEpilogueMasksScalesAndRoutesGradient) {
  // Two layers with identical weights; one applies a 0.5 inverted-dropout
  // epilogue. Kept outputs must equal exactly twice the plain output, and
  // backward must route gradient only through kept slots.
  Rng rng_a(32), rng_b(32), rng_x(33);
  Linear plain(6, 5, rng_a, true, 0.5f);
  Linear dropped(6, 5, rng_b, true, 0.5f);
  dropped.set_dropout(0.5f, 99);

  const Tensor x = Tensor::randn({40, 6}, rng_x, 0.5f);
  const Tensor base = plain.forward(x);
  const Tensor out = dropped.forward(x);
  std::int64_t kept = 0;
  Tensor mask({40, 5});
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      mask[i] = 0.0f;
    } else {
      ASSERT_EQ(out[i], base[i] * 2.0f) << "at flat index " << i;
      mask[i] = 2.0f;
      ++kept;
    }
  }
  // 200 Bernoulli(0.5) draws: the kept fraction concentrates around half.
  EXPECT_GT(kept, 60);
  EXPECT_LT(kept, 140);

  dropped.zero_grad();
  const Tensor ones = Tensor::ones(out.shape());
  const Tensor dx = dropped.backward(ones);
  const Tensor dx_want = tensor::matmul(mask, dropped.weight().value);
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    ASSERT_NEAR(dx[i], dx_want[i], 1e-5f) << "input grad at " << i;
  }
  // Bias gradient is the column sum of the masked incoming gradient.
  for (std::int64_t j = 0; j < 5; ++j) {
    float col = 0.0f;
    for (std::int64_t i = 0; i < 40; ++i) col += mask[i * 5 + j];
    EXPECT_NEAR(dropped.bias()->grad[j], col, 1e-4f) << "bias grad " << j;
  }
}

// --- Embedding --------------------------------------------------------------------

TEST(Embedding, LooksUpRows) {
  Rng rng(5);
  Embedding embed(10, 4, rng);
  const Tensor ids({2}, {3.0f, 7.0f});
  const Tensor out = embed.forward(ids);
  for (std::int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out[j], embed.weight().value[3 * 4 + j]);
    EXPECT_FLOAT_EQ(out[4 + j], embed.weight().value[7 * 4 + j]);
  }
}

TEST(Embedding, BackwardAccumulatesPerToken) {
  Rng rng(6);
  Embedding embed(10, 2, rng);
  const Tensor ids({3}, {1.0f, 1.0f, 2.0f});  // token 1 appears twice
  embed.forward(ids);
  const Tensor g({3, 2}, {1.0f, 1.0f, 1.0f, 1.0f, 5.0f, 5.0f});
  embed.backward(g);
  EXPECT_FLOAT_EQ(embed.weight().grad[1 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(embed.weight().grad[2 * 2 + 0], 5.0f);
  EXPECT_FLOAT_EQ(embed.weight().grad[0], 0.0f);
}

TEST(Embedding, OutOfRangeTokenThrows) {
  Rng rng(7);
  Embedding embed(10, 2, rng);
  EXPECT_THROW(embed.forward(Tensor({1}, {10.0f})), Error);
}

// --- LayerNorm --------------------------------------------------------------------

TEST(LayerNorm, NormalizesRows) {
  LayerNorm layer(4);
  const Tensor x({2, 4}, {1.0f, 2.0f, 3.0f, 4.0f, -2.0f, 0.0f, 2.0f, 4.0f});
  const Tensor y = layer.forward(x);
  for (std::int64_t r = 0; r < 2; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) mean += y[r * 4 + c];
    mean /= 4.0;
    for (std::int64_t c = 0; c < 4; ++c) {
      var += (y[r * 4 + c] - mean) * (y[r * 4 + c] - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradientsMatchFiniteDifference) {
  Rng rng(8);
  LayerNorm layer(6);
  layer.gamma().value = Tensor::randn({6}, rng, 0.3f);
  for (std::int64_t i = 0; i < 6; ++i) layer.gamma().value[i] += 1.0f;
  const Tensor x = Tensor::randn({4, 6}, rng);
  check_gradients(layer, x, 1e-2f, 3e-2f, 2, 1);
}

// --- activations as modules ---------------------------------------------------------

TEST(GeluModule, GradientsMatchFiniteDifference) {
  Rng rng(9);
  Gelu layer;
  const Tensor x = Tensor::randn({3, 5}, rng);
  check_gradients(layer, x, 1e-2f, 2e-2f, 1, 1);
}

TEST(ReluModule, GradientsAwayFromKink) {
  Relu layer;
  const Tensor x({4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  check_gradients(layer, x, 1e-3f, 1e-2f, 1, 1);
}

// --- attention ----------------------------------------------------------------------

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(10);
  CausalSelfAttention attn(8, 2, rng);
  const Tensor x = Tensor::randn({2, 5, 8}, rng, 0.5f);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, CausalMaskBlocksFuture) {
  // Changing a future token must not change earlier outputs.
  Rng rng(11);
  CausalSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({1, 4, 8}, rng, 0.5f);
  const Tensor y1 = attn.forward(x);
  // Perturb the last time step.
  for (std::int64_t j = 0; j < 8; ++j) x[3 * 8 + j] += 10.0f;
  const Tensor y2 = attn.forward(x);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1[t * 8 + j], y2[t * 8 + j], 1e-5)
          << "t=" << t << " j=" << j;
    }
  }
}

TEST(Attention, GradientsMatchFiniteDifference) {
  Rng rng(12);
  CausalSelfAttention attn(4, 2, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f);
  check_gradients(attn, x, 1e-2f, 5e-2f, 11, 1);
}

TEST(Attention, HeadDivisibilityEnforced) {
  Rng rng(13);
  EXPECT_THROW(CausalSelfAttention(10, 3, rng), Error);
}

// fp64 x · W^T + b over rows of x [N, in], W [out, in].
Tensor linear_fp64(const Tensor& x, const Tensor& w, const Tensor& b) {
  const std::int64_t n = x.dim(0), in = x.dim(1), out_dim = w.dim(0);
  Tensor y({n, out_dim});
  for (std::int64_t r = 0; r < n; ++r) {
    for (std::int64_t o = 0; o < out_dim; ++o) {
      double acc = b[o];
      for (std::int64_t i = 0; i < in; ++i) {
        acc += static_cast<double>(x[r * in + i]) * w[o * in + i];
      }
      y[r * out_dim + o] = static_cast<float>(acc);
    }
  }
  return y;
}

// fp64 backward of linear_fp64 for the incoming gradient g [N, out]: returns
// dx and writes dw / db.
Tensor linear_backward_fp64(const Tensor& x, const Tensor& w, const Tensor& g,
                            Tensor& dw, Tensor& db) {
  const std::int64_t n = x.dim(0), in = x.dim(1), out_dim = w.dim(0);
  Tensor dx({n, in});
  dw = Tensor({out_dim, in});
  db = Tensor({out_dim});
  for (std::int64_t o = 0; o < out_dim; ++o) {
    double bias_acc = 0.0;
    for (std::int64_t r = 0; r < n; ++r) bias_acc += g[r * out_dim + o];
    db[o] = static_cast<float>(bias_acc);
    for (std::int64_t i = 0; i < in; ++i) {
      double acc = 0.0;
      for (std::int64_t r = 0; r < n; ++r) {
        acc += static_cast<double>(g[r * out_dim + o]) * x[r * in + i];
      }
      dw[o * in + i] = static_cast<float>(acc);
    }
  }
  for (std::int64_t r = 0; r < n; ++r) {
    for (std::int64_t i = 0; i < in; ++i) {
      double acc = 0.0;
      for (std::int64_t o = 0; o < out_dim; ++o) {
        acc += static_cast<double>(g[r * out_dim + o]) * w[o * in + i];
      }
      dx[r * in + i] = static_cast<float>(acc);
    }
  }
  return dx;
}

// |got - want| within rel_tol of want's largest magnitude.
void expect_close_rel(const Tensor& got, const Tensor& want, float rel_tol,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const float scale = tensor::max_abs(want);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], rel_tol * scale) << what << " at " << i;
  }
}

TEST(Attention, MatchesFp64Oracle) {
  // The module (QKV projection, fused attention, output projection) against
  // the same chain in double precision on the shared attention oracle: the
  // output, the input gradient and all four parameter gradients. T = 70
  // crosses the fused kernel's kAttentionBlock tile boundary; 12 (b, h)
  // pairs exercise the parallel dispatch.
  const tensor::AttentionShape s{3, 4, 70, 24};
  Rng rng(21), rng_x(22);
  CausalSelfAttention attn(s.embed, s.heads, rng);
  const auto params = attn.parameters();  // qkv_w, qkv_b, proj_w, proj_b
  ASSERT_EQ(params.size(), 4u);
  // Weights far above the 0.02 init scale, so the softmax rows are peaked
  // rather than near-uniform and every term of the chain shows in the output.
  for (Parameter* p : params) p->value = Tensor::randn(p->value.shape(), rng);

  const Tensor x = Tensor::randn({s.batch, s.time, s.embed}, rng_x, 0.5f);
  const Tensor x_flat = x.reshape({s.batch * s.time, s.embed});
  const Tensor qkv = linear_fp64(x_flat, params[0]->value, params[1]->value);
  const Tensor heads = tensor::naive_causal_attention(qkv, s);
  const Tensor want_y = linear_fp64(heads, params[2]->value, params[3]->value);

  attn.zero_grad();
  const Tensor y = attn.forward(x);
  expect_close_rel(y.reshape(want_y.shape()), want_y, 2e-5f, "output");

  const Tensor g = Tensor::randn(y.shape(), rng_x);
  const Tensor g_flat = g.reshape(want_y.shape());
  Tensor want_dw_proj, want_db_proj, want_dw_qkv, want_db_qkv;
  const Tensor d_heads = linear_backward_fp64(
      heads, params[2]->value, g_flat, want_dw_proj, want_db_proj);
  const Tensor d_qkv = tensor::naive_causal_attention_backward(qkv, d_heads, s);
  const Tensor want_dx = linear_backward_fp64(
      x_flat, params[0]->value, d_qkv, want_dw_qkv, want_db_qkv);

  const Tensor dx = attn.backward(g);
  expect_close_rel(dx.reshape(want_dx.shape()), want_dx, 2e-5f, "input grad");
  expect_close_rel(params[0]->grad, want_dw_qkv, 2e-5f, "qkv weight grad");
  expect_close_rel(params[1]->grad, want_db_qkv, 2e-5f, "qkv bias grad");
  expect_close_rel(params[2]->grad, want_dw_proj, 2e-5f, "proj weight grad");
  expect_close_rel(params[3]->grad, want_db_proj, 2e-5f, "proj bias grad");
}

// --- transformer block / GPT ----------------------------------------------------------

TEST(TransformerBlock, GradientsMatchFiniteDifference) {
  Rng rng(14);
  TransformerBlock block(4, 2, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f);
  check_gradients(block, x, 1e-2f, 6e-2f, 13, 1);
}

TEST(Gpt, ForwardShape) {
  Rng rng(15);
  GptModelConfig config;
  config.vocab_size = 50;
  config.block_size = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.embed_dim = 16;
  GptModel model(config, rng);
  const Tensor tokens({2, 6}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  const Tensor logits = model.forward(tokens);
  EXPECT_EQ(logits.dim(0), 12);
  EXPECT_EQ(logits.dim(1), 50);
}

TEST(Gpt, SequenceLongerThanBlockThrows) {
  Rng rng(16);
  GptModelConfig config;
  config.block_size = 4;
  GptModel model(config, rng);
  EXPECT_THROW(model.forward(Tensor({1, 5})), Error);
}

TEST(Gpt, ParameterCountIsPlausible) {
  Rng rng(17);
  GptModelConfig config;
  config.vocab_size = 100;
  config.block_size = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.embed_dim = 32;
  GptModel model(config, rng);
  // embeddings 100*32 + pos 16*32 + head 100*32 + 2 blocks of ~12*32^2.
  const std::int64_t params = model.num_parameters();
  EXPECT_GT(params, 30000);
  EXPECT_LT(params, 50000);
}

TEST(Gpt, TrainingReducesLoss) {
  Rng rng(18);
  GptModelConfig config;
  config.vocab_size = 16;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  GptModel model(config, rng);
  Adam optimizer(model.parameters(), 1e-2f);

  // A fixed periodic sequence the model can memorize.
  Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t t = 0; t < 8; ++t) {
      tokens[b * 8 + t] = static_cast<float>((b + t) % 4);
      targets[static_cast<std::size_t>(b * 8 + t)] = (b + t + 1) % 4;
    }
  }
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    optimizer.zero_grad();
    const float loss = model.train_step(tokens, targets);
    optimizer.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.5f);
}

// --- loss ----------------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  const Tensor logits = Tensor::zeros({3, 8});
  const LossResult result = softmax_cross_entropy(logits, {0, 3, 7});
  EXPECT_NEAR(result.loss, std::log(8.0f), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(19);
  const Tensor logits = Tensor::randn({4, 6}, rng);
  const LossResult result = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) {
      total += result.grad_logits[r * 6 + c];
    }
    EXPECT_NEAR(total, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(20);
  const Tensor logits = Tensor::randn({2, 4}, rng);
  const std::vector<std::int64_t> targets = {1, 3};
  const LossResult result = softmax_cross_entropy(logits, targets);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float fd = (softmax_cross_entropy(lp, targets).loss -
                      softmax_cross_entropy(lm, targets).loss) /
                     (2.0f * eps);
    EXPECT_NEAR(result.grad_logits[i], fd, 1e-3);
  }
}

TEST(Loss, TargetOutOfRangeThrows) {
  const Tensor logits = Tensor::zeros({1, 4});
  EXPECT_THROW(softmax_cross_entropy(logits, {4}), Error);
}

TEST(Loss, AccuracyComputation) {
  const Tensor logits({2, 3}, {0.0f, 5.0f, 0.0f, 9.0f, 0.0f, 0.0f});
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 2}), 0.5);
}

// --- conv modules -----------------------------------------------------------------------

TEST(Conv2dModule, GradientsMatchFiniteDifference) {
  Rng rng(21);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  check_gradients(layer, x, 1e-2f, 6e-2f, 5, 3);
}

TEST(BatchNorm, NormalizesPerChannel) {
  BatchNorm2d layer(2);
  Rng rng(22);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 2.0f);
  const Tensor y = layer.forward(x);
  for (std::int64_t ch = 0; ch < 2; ++ch) {
    double mean = 0.0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 9; ++i) mean += y[(n * 2 + ch) * 9 + i];
    }
    EXPECT_NEAR(mean / 36.0, 0.0, 1e-4);
  }
}

TEST(BatchNorm, RunningStatsUpdated) {
  BatchNorm2d layer(1, 1e-5f, 0.5f);
  const Tensor x = Tensor::full({2, 1, 2, 2}, 4.0f);
  layer.forward(x);
  // Running mean moves halfway from 0 toward 4.
  EXPECT_NEAR(layer.running_mean()[0], 2.0f, 1e-5);
}

TEST(BatchNorm, GradientsMatchFiniteDifference) {
  Rng rng(23);
  BatchNorm2d layer(2);
  const Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  check_gradients(layer, x, 1e-2f, 6e-2f, 1, 1);
}

// Forward output, running statistics and all three gradients against fp64
// loops, at a shape whose per-channel reduction spans many planes.
TEST(BatchNorm, MatchesFp64Reference) {
  const std::int64_t n = 16, c = 6, h = 16, w = 16, plane = h * w;
  const double count = static_cast<double>(n * plane);
  const float eps = 1e-5f, momentum = 0.1f;
  Rng rng(24);
  BatchNorm2d layer(c, eps, momentum);
  Parameter& gamma = *layer.parameters()[0];
  Parameter& beta = *layer.parameters()[1];
  gamma.value = Tensor::randn({c}, rng);
  beta.value = Tensor::randn({c}, rng);
  Tensor x = Tensor::randn({n, c, h, w}, rng, 2.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] += static_cast<float>((i / plane) % c);  // a distinct mean per channel
  }
  const Tensor g = Tensor::randn(x.shape(), rng);
  const Tensor y = layer.forward(x);
  const Tensor dx = layer.backward(g);

  for (std::int64_t ch = 0; ch < c; ++ch) {
    const auto at = [&](std::int64_t img, std::int64_t i) {
      return (img * c + ch) * plane + i;
    };
    double mean = 0.0, var = 0.0, sum_g = 0.0, sum_g_xhat = 0.0;
    for (std::int64_t img = 0; img < n; ++img) {
      for (std::int64_t i = 0; i < plane; ++i) mean += x[at(img, i)];
    }
    mean /= count;
    for (std::int64_t img = 0; img < n; ++img) {
      for (std::int64_t i = 0; i < plane; ++i) {
        var += (x[at(img, i)] - mean) * (x[at(img, i)] - mean);
      }
    }
    var /= count;
    const double inv_std = 1.0 / std::sqrt(var + eps);
    for (std::int64_t img = 0; img < n; ++img) {
      for (std::int64_t i = 0; i < plane; ++i) {
        const double xhat = (x[at(img, i)] - mean) * inv_std;
        sum_g += g[at(img, i)];
        sum_g_xhat += g[at(img, i)] * xhat;
      }
    }
    EXPECT_NEAR(layer.running_mean()[ch], momentum * mean, 1e-5);
    EXPECT_NEAR(layer.running_var()[ch], (1 - momentum) + momentum * var,
                1e-5);
    EXPECT_NEAR(gamma.grad[ch], sum_g_xhat, 1e-3);
    EXPECT_NEAR(beta.grad[ch], sum_g, 1e-3);
    for (std::int64_t img = 0; img < n; ++img) {
      for (std::int64_t i = 0; i < plane; ++i) {
        const double xhat = (x[at(img, i)] - mean) * inv_std;
        ASSERT_NEAR(y[at(img, i)], gamma.value[ch] * xhat + beta.value[ch],
                    1e-4)
            << "channel " << ch << " image " << img << " element " << i;
        const double want_dx =
            gamma.value[ch] * inv_std *
            (g[at(img, i)] - sum_g / count - xhat * sum_g_xhat / count);
        ASSERT_NEAR(dx[at(img, i)], want_dx, 1e-4)
            << "channel " << ch << " image " << img << " element " << i;
      }
    }
  }
}

TEST(MaxPoolModule, RoundTrip) {
  Rng rng(24);
  MaxPool2d layer(2);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  const Tensor y = layer.forward(x);
  const Tensor g = Tensor::ones(y.shape());
  const Tensor dx = layer.backward(g);
  EXPECT_NEAR(tensor::sum(dx), 4.0f, 1e-5);
}

// --- residual blocks / ResNet -------------------------------------------------------------

TEST(ResidualBlock, BasicBlockGradients) {
  Rng rng(25);
  ResidualBlock block(2, 2, 1, /*bottleneck=*/false, rng);
  const Tensor x = Tensor::randn({1, 2, 4, 4}, rng, 0.7f);
  check_gradients(block, x, 1e-2f, 8e-2f, 9, 5);
}

TEST(ResidualBlock, BottleneckWithProjection) {
  Rng rng(26);
  ResidualBlock block(4, 2, 2, /*bottleneck=*/true, rng);
  EXPECT_EQ(block.out_channels(), 8);
  const Tensor x = Tensor::randn({1, 4, 6, 6}, rng);
  const Tensor y = block.forward(x);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 3);  // stride 2
  const Tensor dx = block.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(ResNet, ForwardShapeAndParams) {
  Rng rng(27);
  ResNet model(nn::ResNetConfig::tiny(10), rng);
  const Tensor images = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor logits = model.forward(images);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
  EXPECT_GT(model.num_parameters(), 1000);
}

TEST(ResNet, TrainingReducesLossOnSeparableData) {
  Rng rng(28);
  ResNet model(nn::ResNetConfig::tiny(2), rng);
  Sgd optimizer(model.parameters(), 0.05f, 0.9f);
  // Class 0: all -1 images, class 1: all +1.
  Tensor images({8, 3, 8, 8});
  std::vector<std::int64_t> labels(8);
  for (std::int64_t i = 0; i < 8; ++i) {
    const float v = i % 2 == 0 ? -1.0f : 1.0f;
    labels[static_cast<std::size_t>(i)] = i % 2;
    for (std::int64_t j = 0; j < 3 * 64; ++j) images[i * 3 * 64 + j] = v;
  }
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 20; ++step) {
    optimizer.zero_grad();
    const float loss = model.train_step(images, labels);
    optimizer.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(ResNet, BottleneckVariantRuns) {
  Rng rng(29);
  ResNet model(nn::ResNetConfig::small_bottleneck(4), rng);
  const Tensor images = Tensor::randn({1, 3, 16, 16}, rng);
  EXPECT_EQ(model.forward(images).dim(1), 4);
}

// --- optimizers -----------------------------------------------------------------------------

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 by hand-feeding gradients.
  Parameter w("w", Tensor({3}, {5.0f, -4.0f, 2.0f}));
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  Sgd optimizer({&w}, 0.1f, 0.0f);
  for (int step = 0; step < 200; ++step) {
    optimizer.zero_grad();
    for (std::int64_t i = 0; i < 3; ++i) w.grad[i] = w.value[i] - target[i];
    optimizer.step();
  }
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(w.value[i], 1.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Parameter slow("s", Tensor({1}, {10.0f}));
  Parameter fast("f", Tensor({1}, {10.0f}));
  Sgd plain({&slow}, 0.01f, 0.0f);
  Sgd momentum({&fast}, 0.01f, 0.9f);
  for (int step = 0; step < 50; ++step) {
    plain.zero_grad();
    momentum.zero_grad();
    slow.grad[0] = slow.value[0];
    fast.grad[0] = fast.value[0];
    plain.step();
    momentum.step();
  }
  EXPECT_LT(std::fabs(fast.value[0]), std::fabs(slow.value[0]));
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Parameter w("w", Tensor({1}, {1.0f}));
  Sgd optimizer({&w}, 0.1f, 0.0f, 0.5f);
  optimizer.zero_grad();  // gradient zero, decay only
  optimizer.step();
  EXPECT_NEAR(w.value[0], 1.0f - 0.1f * 0.5f, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter w("w", Tensor({2}, {8.0f, -8.0f}));
  Adam optimizer({&w}, 0.3f);
  for (int step = 0; step < 300; ++step) {
    optimizer.zero_grad();
    for (std::int64_t i = 0; i < 2; ++i) w.grad[i] = w.value[i];
    optimizer.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-2);
  EXPECT_NEAR(w.value[1], 0.0f, 1e-2);
  EXPECT_EQ(optimizer.step_count(), 300);
}

// Scalar copy of the original Adam loop, kept as the oracle for the
// parallel, vectorized Adam::step: same per-element operations in the same
// order, so the two must agree bit for bit.
struct AdamReference {
  float lr, beta1, beta2, eps, weight_decay;
  std::int64_t t = 0;
  std::vector<std::vector<float>> m, v;

  void step(std::vector<Parameter>& params) {
    ++t;
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    m.resize(params.size());
    v.resize(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      Parameter& p = params[i];
      m[i].resize(static_cast<std::size_t>(p.numel()), 0.0f);
      v[i].resize(static_cast<std::size_t>(p.numel()), 0.0f);
      for (std::int64_t j = 0; j < p.numel(); ++j) {
        const auto k = static_cast<std::size_t>(j);
        float g = p.grad[j];
        if (weight_decay != 0.0f) g += weight_decay * p.value[j];
        m[i][k] = beta1 * m[i][k] + (1.0f - beta1) * g;
        v[i][k] = beta2 * v[i][k] + (1.0f - beta2) * g * g;
        const float m_hat = m[i][k] / bc1;
        const float v_hat = v[i][k] / bc2;
        p.value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    }
  }
};

TEST(Adam, StepMatchesScalarReferenceExactly) {
  for (const float weight_decay : {0.0f, 0.01f}) {
    // Sizes below, at and well above the parallel grain (16K elements).
    Rng rng(17);
    std::vector<Parameter> got, want;
    for (const std::int64_t n : {3, 16384, 100003}) {
      got.emplace_back("p", Tensor::randn({n}, rng));
      want.emplace_back("p", got.back().value);
    }
    got[0].value[0] = -0.0f;  // a zero gradient must keep the sign of zero
    want[0].value[0] = -0.0f;
    std::vector<Parameter*> ptrs;
    for (Parameter& p : got) ptrs.push_back(&p);
    Adam adam(ptrs, 1e-2f, 0.9f, 0.999f, 1e-8f, weight_decay);
    AdamReference reference{1e-2f, 0.9f, 0.999f, 1e-8f,
                            weight_decay, 0, {}, {}};
    for (int step = 0; step < 3; ++step) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        got[i].grad = Tensor::randn(got[i].value.shape(), rng);
        got[i].grad[0] = 0.0f;
        want[i].grad = got[i].grad;
      }
      adam.step();
      reference.step(want);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(got[i].value.data(), want[i].value.data(),
                              static_cast<std::size_t>(got[i].numel()) *
                                  sizeof(float)),
                  0)
            << "weight_decay " << weight_decay << ", step " << step
            << ", param " << i;
      }
    }
  }
}

// Reductions must not depend on how rows, elements, images or channels were
// split over threads. The pool reads CARAML_NUM_THREADS once at static init,
// so (as in FusedAttention.DeterministicAcrossThreadCounts) each thread count
// runs in a child process that re-runs `test` with `dump_env` set and dumps
// raw bytes; the parent asserts the dumps are byte-identical.
void expect_identical_dumps_across_thread_counts(const std::string& dump_env,
                                                 const std::string& test) {
  // Resolve our own binary path up front: /proc/self/exe inside the
  // system() shell would name the shell, not this test.
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    const std::string path = ::testing::TempDir() + "caraml_nn_dump_" +
                             dump_env + "_" + std::to_string(threads) + ".bin";
    const std::string cmd = "CARAML_NUM_THREADS=" + std::to_string(threads) +
                            " " + dump_env + "=" + path + " '" + exe +
                            "' --gtest_filter=" + test + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << "child failed: " << cmd;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    dumps.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(dumps.back().empty());
  }
  // EXPECT_TRUE, not EXPECT_EQ: the dumps are megabytes of raw floats.
  EXPECT_TRUE(dumps[0] == dumps[1]) << "1-thread and 2-thread outputs differ";
  EXPECT_TRUE(dumps[0] == dumps[2]) << "1-thread and 8-thread outputs differ";
}

void write_tensor(std::ofstream& out, const Tensor& t) {
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

TEST(TrainingStep, DeterministicAcrossThreadCounts) {
  const char* dump_path = std::getenv("CARAML_NN_DUMP");
  if (dump_path == nullptr) {
    expect_identical_dumps_across_thread_counts(
        "CARAML_NN_DUMP", "TrainingStep.DeterministicAcrossThreadCounts");
    return;
  }
  Rng rng(91);
  Linear linear(256, 512, rng, true, 0.05f);
  linear.set_gelu();
  LayerNorm norm(512);
  const Tensor x = Tensor::randn({384, 256}, rng);
  const Tensor y = linear.forward(x);
  const Tensor z = norm.forward(y);
  const Tensor dy = norm.backward(Tensor::randn(z.shape(), rng));
  const Tensor dx = linear.backward(dy);
  std::vector<Parameter*> params = linear.parameters();
  for (Parameter* p : norm.parameters()) params.push_back(p);
  std::ofstream out(dump_path, std::ios::binary);
  for (const Tensor* t : {&y, &z, &dy, &dx}) write_tensor(out, *t);
  for (const Parameter* p : params) write_tensor(out, p->grad);
  Adam adam(params, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.01f);
  adam.step();
  for (const Parameter* p : params) write_tensor(out, p->value);
  ASSERT_TRUE(out.good());
}

// The conv and BatchNorm kernels split work over images (conv forward and
// input gradient), fixed image groups (conv weight gradient) and channels
// (BatchNorm): one small_bottleneck train step plus an SGD step, and a
// standalone strided conv + BatchNorm for the running statistics.
TEST(TrainingStep, ResNetDeterministicAcrossThreadCounts) {
  const char* dump_path = std::getenv("CARAML_RESNET_DUMP");
  if (dump_path == nullptr) {
    expect_identical_dumps_across_thread_counts(
        "CARAML_RESNET_DUMP",
        "TrainingStep.ResNetDeterministicAcrossThreadCounts");
    return;
  }
  Rng rng(92);
  ResNet model(ResNetConfig::small_bottleneck(10), rng);
  const Tensor images = Tensor::randn({12, 3, 16, 16}, rng);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < images.dim(0); ++i) labels.push_back(i % 10);
  const Tensor logits = model.forward(images);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  const Tensor dimages = model.backward(loss.grad_logits);

  Conv2d conv(3, 16, 3, 2, 1, rng);
  BatchNorm2d norm(16);
  const Tensor features = norm.forward(conv.forward(images));
  const Tensor dfeatures =
      conv.backward(norm.backward(Tensor::randn(features.shape(), rng)));

  std::vector<Parameter*> params = model.parameters();
  for (Parameter* p : conv.parameters()) params.push_back(p);
  for (Parameter* p : norm.parameters()) params.push_back(p);
  std::ofstream out(dump_path, std::ios::binary);
  for (const Tensor* t : {&logits, &dimages, &features, &dfeatures,
                          &norm.running_mean(), &norm.running_var()}) {
    write_tensor(out, *t);
  }
  for (const Parameter* p : params) write_tensor(out, p->grad);
  Sgd sgd(params, 0.05f, 0.9f);
  sgd.step();
  for (const Parameter* p : params) write_tensor(out, p->value);
  ASSERT_TRUE(out.good());
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Parameter w("w", Tensor({2}, {0.0f, 0.0f}));
  w.grad = Tensor({2}, {3.0f, 4.0f});  // norm 5
  const double norm = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(w.grad[0], 0.6f, 1e-5);
  EXPECT_NEAR(w.grad[1], 0.8f, 1e-5);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter w("w", Tensor({2}, {0.0f, 0.0f}));
  w.grad = Tensor({2}, {0.3f, 0.4f});
  clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(w.grad[0], 0.3f, 1e-6);
}

// --- Sequential ---------------------------------------------------------------------------

TEST(Sequential, ChainsModules) {
  Rng rng(30);
  auto sequential = std::make_shared<Sequential>();
  sequential->add(std::make_shared<Linear>(4, 8, rng));
  sequential->add(std::make_shared<Gelu>());
  sequential->add(std::make_shared<Linear>(8, 2, rng));
  EXPECT_EQ(sequential->size(), 3u);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor y = sequential->forward(x);
  EXPECT_EQ(y.dim(1), 2);
  const Tensor dx = sequential->backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(sequential->parameters().size(), 4u);
}

TEST(Sequential, GradientsMatchFiniteDifference) {
  Rng rng(31);
  Sequential sequential;
  sequential.add(std::make_shared<Linear>(3, 5, rng, true, 0.5f));
  sequential.add(std::make_shared<Gelu>());
  sequential.add(std::make_shared<Linear>(5, 2, rng, true, 0.5f));
  const Tensor x = Tensor::randn({2, 3}, rng);
  check_gradients(sequential, x, 1e-2f, 4e-2f, 3, 1);
}

// --- compute dtypes -----------------------------------------------------------------------

TEST(LinearDtype, Bf16ForwardTracksFp32) {
  Rng rng(40);
  Linear layer(24, 16, rng, true, 0.5f);
  const Tensor x = Tensor::randn({9, 24}, rng);
  const Tensor y32 = layer.forward(x);
  layer.set_compute_dtype(tensor::DType::kBf16);
  EXPECT_EQ(layer.compute_dtype(), tensor::DType::kBf16);
  const Tensor y16 = layer.forward(x);
  ASSERT_EQ(y16.shape(), y32.shape());
  // bf16 carries ~3 decimal digits; with k = 24 the relative drift of each
  // dot product stays well under 2^-7.
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(y32[i]));
  }
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    ASSERT_NEAR(y16[i], y32[i], 0x1p-7f * absmax) << "flat index " << i;
  }
}

TEST(LinearDtype, Bf16GradientsTrackFp32) {
  Rng rng(41);
  Linear layer(12, 10, rng, true, 0.5f);
  layer.set_gelu();
  const Tensor x = Tensor::randn({7, 12}, rng);
  const Tensor g = Tensor::randn({7, 10}, rng);
  layer.forward(x);
  const Tensor dx32 = layer.backward(g);
  Tensor dw32 = layer.weight().grad;  // copy before the bf16 pass accumulates
  layer.zero_grad();
  layer.set_compute_dtype(tensor::DType::kBf16);
  layer.forward(x);
  const Tensor dx16 = layer.backward(g);
  const Tensor& dw16 = layer.weight().grad;
  float dw_absmax = 0.0f, dx_absmax = 0.0f;
  for (std::int64_t i = 0; i < dw32.numel(); ++i) {
    dw_absmax = std::max(dw_absmax, std::fabs(dw32[i]));
  }
  for (std::int64_t i = 0; i < dx32.numel(); ++i) {
    dx_absmax = std::max(dx_absmax, std::fabs(dx32[i]));
  }
  for (std::int64_t i = 0; i < dw32.numel(); ++i) {
    ASSERT_NEAR(dw16[i], dw32[i], 0x1p-6f * dw_absmax) << "dW index " << i;
  }
  for (std::int64_t i = 0; i < dx32.numel(); ++i) {
    ASSERT_NEAR(dx16[i], dx32[i], 0x1p-6f * dx_absmax) << "dX index " << i;
  }
}

TEST(LinearDtype, Int8ForwardTracksFp32AndBackwardRefuses) {
  Rng rng(42);
  Linear layer(32, 12, rng, true, 0.5f);
  const Tensor x = Tensor::randn({6, 32}, rng);
  const Tensor y32 = layer.forward(x);
  layer.set_compute_dtype(tensor::DType::kI8);
  const Tensor y8 = layer.forward(x);
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(y32[i]));
  }
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    // int8 quantization noise: ~k * step_a * step_b accumulated, a few
    // percent of the output scale on random activations.
    ASSERT_NEAR(y8[i], y32[i], 0.05f * absmax + 1e-4f) << "flat index " << i;
  }
  EXPECT_THROW(layer.backward(Tensor::ones(y8.shape())), Error);
}

TEST(LinearDtype, Int8CalibrationPinsActivationScale) {
  Rng rng(43);
  Linear layer(16, 8, rng, true, 0.5f);
  layer.set_compute_dtype(tensor::DType::kI8);
  const Tensor sample = Tensor::randn({32, 16}, rng);
  layer.calibrate_int8(sample);
  // A calibrated layer must produce identical outputs for an input subrange
  // regardless of what else sits in the batch (per-forward dynamic scales
  // would differ between the two batches).
  Tensor small({1, 16});
  for (std::int64_t j = 0; j < 16; ++j) small[j] = sample[j];
  const Tensor y_alone = layer.forward(small);
  const Tensor y_batch = layer.forward(sample);
  for (std::int64_t j = 0; j < 8; ++j) {
    ASSERT_EQ(y_alone[j], y_batch[j]) << "col " << j;
  }
}

TEST(LinearDtype, Int8RejectsDropoutEpilogue) {
  Rng rng(44);
  Linear layer(8, 8, rng);
  layer.set_dropout(0.5f, 123);
  EXPECT_THROW(layer.set_compute_dtype(tensor::DType::kI8), Error);
  layer.set_dropout(0.0f, 123);  // clears the epilogue
  layer.set_compute_dtype(tensor::DType::kI8);
  EXPECT_EQ(layer.compute_dtype(), tensor::DType::kI8);
}

TEST(AttentionDtype, RejectsInt8AndAcceptsBf16) {
  Rng rng(45);
  CausalSelfAttention attn(16, 2, rng);
  EXPECT_THROW(attn.set_compute_dtype(tensor::DType::kI8), Error);
  attn.set_compute_dtype(tensor::DType::kBf16);
  const Tensor x = Tensor::randn({2, 8, 16}, rng);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  const Tensor dx = attn.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(GptDtype, Bf16TrainStepReducesLossAndInt8RefusesTraining) {
  GptModelConfig config;
  config.vocab_size = 48;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  Rng rng(46);
  GptModel model(config, rng);
  model.set_compute_dtype(tensor::DType::kBf16);
  EXPECT_EQ(model.compute_dtype(), tensor::DType::kBf16);
  Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t i = 0; i < 16; ++i) {
    tokens[i] = static_cast<float>(i % 7);
    targets[static_cast<std::size_t>(i)] = (i + 1) % 7;
  }
  Sgd sgd(model.parameters(), 0.05f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 12; ++step) {
    sgd.zero_grad();
    const float loss = model.train_step(tokens, targets);
    ASSERT_TRUE(std::isfinite(loss)) << "step " << step;
    if (step == 0) first = loss;
    last = loss;
    sgd.step();
  }
  EXPECT_LT(last, first);

  model.set_compute_dtype(tensor::DType::kI8);
  EXPECT_THROW(model.train_step(tokens, targets), Error);
}

TEST(GptDtype, Int8GenerationMatchesFp32Greedy) {
  GptModelConfig config;
  config.vocab_size = 32;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  Rng rng(47);
  GptModel model(config, rng);
  Rng gen_rng(1);
  const auto ids32 = model.generate({3, 1, 4}, 8, 0.0f, gen_rng);
  model.set_compute_dtype(tensor::DType::kI8);
  Rng gen_rng2(1);
  const auto ids8 = model.generate({3, 1, 4}, 8, 0.0f, gen_rng2);
  // Greedy decoding of an untrained-but-deterministic model: the int8 logit
  // noise is far below typical logit gaps, so the argmax sequence matches.
  EXPECT_EQ(ids32, ids8);
  // And flipping back restores the fp32 path exactly.
  model.set_compute_dtype(tensor::DType::kF32);
  Rng gen_rng3(1);
  EXPECT_EQ(model.generate({3, 1, 4}, 8, 0.0f, gen_rng3), ids32);
}

}  // namespace
}  // namespace caraml::nn
