#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "attention_oracle.hpp"
#include "tensor/activations.hpp"
#include "tensor/fused.hpp"
#include "tensor/gemm.hpp"
#include "tensor/reference.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caraml::tensor {
namespace {

// Naive reference GEMM.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

// Naive reference conv2d (NCHW, OCHW weights).
Tensor naive_conv2d(const Tensor& input, const Tensor& weight,
                    const Conv2dArgs& args) {
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t o = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const std::int64_t oh = (h + 2 * args.padding - kh) / args.stride + 1;
  const std::int64_t ow = (w + 2 * args.padding - kw) / args.stride + 1;
  Tensor out({n, o, oh, ow});
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = oy * args.stride + ky - args.padding;
                const std::int64_t ix = ox * args.stride + kx - args.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(
                           input[((img * c + ic) * h + iy) * w + ix]) *
                       weight[((oc * c + ic) * kh + ky) * kw + kx];
              }
            }
          }
          out[((img * o + oc) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

// --- construction / shape ---------------------------------------------------------

TEST(Tensor, ZerosAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(1), 3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[2], 2.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0}), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::arange(6);
  Tensor r = t.reshape({2, 3});
  EXPECT_EQ(r.at({1, 0}), 3.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, Transpose2d) {
  Tensor t = Tensor::arange(6).reshape({2, 3});
  Tensor tt = t.transpose2d();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.at({2, 1}), t.at({1, 2}));
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng a(3), b(3);
  const Tensor x = Tensor::randn({16}, a);
  const Tensor y = Tensor::randn({16}, b);
  expect_close(x, y, 0.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), Error);
}

// --- elementwise ------------------------------------------------------------------

TEST(Elementwise, AddSubMulScale) {
  const Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {3.0f, 5.0f});
  expect_close(add(a, b), Tensor({2}, {4.0f, 7.0f}));
  expect_close(sub(b, a), Tensor({2}, {2.0f, 3.0f}));
  expect_close(mul(a, b), Tensor({2}, {3.0f, 10.0f}));
  expect_close(scale(a, 2.0f), Tensor({2}, {2.0f, 4.0f}));
}

TEST(Elementwise, ShapeMismatchThrows) {
  EXPECT_THROW(add(Tensor({2}), Tensor({3})), Error);
}

TEST(Elementwise, Axpy) {
  Tensor y({2}, {1.0f, 1.0f});
  axpy(y, 2.0f, Tensor({2}, {3.0f, 4.0f}));
  expect_close(y, Tensor({2}, {7.0f, 9.0f}));
}

TEST(Elementwise, ReluAndBackward) {
  const Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  expect_close(relu(x), Tensor({4}, {0.0f, 0.0f, 2.0f, 0.0f}));
  const Tensor g({4}, {1.0f, 1.0f, 1.0f, 1.0f});
  expect_close(relu_backward(x, g), Tensor({4}, {0.0f, 0.0f, 1.0f, 0.0f}));
}

TEST(Elementwise, GeluValues) {
  const Tensor x({3}, {-2.0f, 0.0f, 2.0f});
  const Tensor y = gelu(x);
  EXPECT_NEAR(y[0], -0.0454f, 1e-3);
  EXPECT_NEAR(y[1], 0.0f, 1e-6);
  EXPECT_NEAR(y[2], 1.9546f, 1e-3);
}

TEST(Elementwise, GeluGradientMatchesFiniteDifference) {
  Rng rng(5);
  const Tensor x = Tensor::randn({32}, rng);
  const Tensor ones = Tensor::ones({32});
  const Tensor grad = gelu_backward(x, ones);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float fd = (gelu(xp)[i] - gelu(xm)[i]) / (2.0f * eps);
    EXPECT_NEAR(grad[i], fd, 2e-3) << "index " << i;
  }
}

// fp64 oracle for the tanh-GELU formula and its derivative, evaluated at the
// exact float input.
double gelu_oracle(double x) {
  const double c = std::sqrt(2.0 / M_PI);
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}

double gelu_grad_oracle(double x) {
  const double c = std::sqrt(2.0 / M_PI);
  const double t = std::tanh(c * (x + 0.044715 * x * x * x));
  return 0.5 * (1.0 + t) +
         0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x);
}

// gelu/gelu_backward run on the branchless fast_tanh; over a dense grid on
// [-12, 12] they stay within fixed absolute bounds of the fp64 formula (the
// float result's own rounding at |x| = 12 is ~5e-7).
TEST(Elementwise, GeluMatchesFp64OracleOnDenseGrid) {
  constexpr std::int64_t kPoints = 240001;  // step 1e-4
  Tensor x({kPoints});
  for (std::int64_t i = 0; i < kPoints; ++i) {
    x[i] = static_cast<float>(-12.0 + 1e-4 * static_cast<double>(i));
  }
  const Tensor y = gelu(x);
  const Tensor dy = gelu_backward(x, Tensor::ones({kPoints}));
  double worst = 0.0, worst_grad = 0.0;
  for (std::int64_t i = 0; i < kPoints; ++i) {
    worst = std::max(worst, std::fabs(y[i] - gelu_oracle(x[i])));
    worst_grad =
        std::max(worst_grad, std::fabs(dy[i] - gelu_grad_oracle(x[i])));
  }
  EXPECT_LE(worst, 1e-6);
  EXPECT_LE(worst_grad, 4e-6);
}

TEST(Elementwise, GeluNonFiniteInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({3}, {std::numeric_limits<float>::quiet_NaN(), inf, -inf});
  const Tensor y = gelu(x);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(y[1], inf);
  EXPECT_TRUE(std::isnan(y[2]));  // -inf * (1 + tanh(-inf)) = -inf * 0
  const Tensor dy = gelu_backward(x, Tensor::ones({3}));
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isnan(dy[i])) << "index " << i;  // inf * sech^2 = inf * 0
  }
}

// Distance in representable floats between two finite floats of equal sign.
std::int64_t ulp_distance(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  return std::abs(static_cast<std::int64_t>(ia) - ib);
}

TEST(FastExp, WithinFewUlpOfStdExp) {
  std::int64_t worst = 0;
  for (double x = -87.0; x <= 88.0; x += 1e-3) {
    const float xf = static_cast<float>(x);
    worst = std::max(worst, ulp_distance(detail::fast_exp(xf), std::exp(xf)));
  }
  EXPECT_LE(worst, 2);
  EXPECT_TRUE(
      std::isnan(detail::fast_exp(std::numeric_limits<float>::quiet_NaN())));
}

// --- reductions -------------------------------------------------------------------

TEST(Reductions, SumMeanMaxAbs) {
  const Tensor t({4}, {1.0f, -2.0f, 3.0f, -4.0f});
  EXPECT_FLOAT_EQ(sum(t), -2.0f);
  EXPECT_FLOAT_EQ(mean(t), -0.5f);
  EXPECT_FLOAT_EQ(max_abs(t), 4.0f);
}

TEST(Reductions, ArgmaxRows) {
  const Tensor t({2, 3}, {1.0f, 5.0f, 2.0f, 9.0f, 0.0f, 3.0f});
  const auto idx = argmax_rows(t);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

// --- matmul ------------------------------------------------------------------------

class MatmulSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(42);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  expect_close(matmul(a, b), naive_matmul(a, b),
               1e-3f * static_cast<float>(k));
}

TEST_P(MatmulSizes, NtEqualsTransposedOperand) {
  const auto [m, k, n] = GetParam();
  Rng rng(43);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor bt = Tensor::randn({n, k}, rng);
  expect_close(matmul_nt(a, bt), matmul(a, bt.transpose2d()),
               1e-3f * static_cast<float>(k));
}

TEST_P(MatmulSizes, TnEqualsTransposedOperand) {
  const auto [m, k, n] = GetParam();
  Rng rng(44);
  const Tensor at = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  expect_close(matmul_tn(at, b), matmul(at.transpose2d(), b),
               1e-3f * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Tensor, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(17, 31, 13),
                      std::make_tuple(64, 32, 96),
                      std::make_tuple(128, 64, 128)));

TEST(Matmul, InnerDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({4, 2})), Error);
  EXPECT_THROW(matmul_nt(Tensor({2, 3}), Tensor({4, 4})), Error);
  EXPECT_THROW(matmul_tn(Tensor({3, 2}), Tensor({4, 4})), Error);
}

TEST(Matmul, IdentityIsNoOp) {
  Rng rng(7);
  const Tensor a = Tensor::randn({5, 5}, rng);
  Tensor eye({5, 5});
  for (int i = 0; i < 5; ++i) eye[i * 5 + i] = 1.0f;
  expect_close(matmul(a, eye), a);
}

// --- softmax -----------------------------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  Rng rng(9);
  const Tensor x = Tensor::randn({7, 11}, rng, 3.0f);
  const Tensor y = softmax_rows(x);
  for (std::int64_t r = 0; r < 7; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 11; ++c) total += y[r * 11 + c];
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor x({1, 3}, {1000.0f, 1001.0f, 999.0f});
  const Tensor y = softmax_rows(x);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_GT(y[1], y[0]);
}

TEST(Softmax, BackwardMatchesFiniteDifference) {
  Rng rng(13);
  const Tensor x = Tensor::randn({2, 5}, rng);
  const Tensor g = Tensor::randn({2, 5}, rng);
  const Tensor y = softmax_rows(x);
  const Tensor dx = softmax_rows_backward(y, g);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const Tensor yp = softmax_rows(xp), ym = softmax_rows(xm);
    double fd = 0.0;
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      fd += static_cast<double>(yp[j] - ym[j]) / (2.0 * eps) * g[j];
    }
    EXPECT_NEAR(dx[i], fd, 2e-3) << "index " << i;
  }
}

// --- conv2d ------------------------------------------------------------------------

struct ConvCase {
  int n, c, h, o, k, stride, padding;
};

// Covers every per-image branch of the conv kernels: pointwise 1x1 (no
// unfold), strided 1x1 and padded/strided kxk (unfold + col2im), and a batch
// with more images than pool chunks and than dW reduction groups.
const ConvCase kConvCases[] = {
    {1, 1, 5, 1, 3, 1, 1},   {2, 3, 8, 4, 3, 1, 1},  {1, 2, 9, 3, 3, 2, 1},
    {2, 4, 7, 2, 1, 1, 0},   {1, 3, 12, 5, 7, 2, 3}, {3, 2, 6, 2, 3, 3, 0},
    {3, 16, 8, 12, 1, 1, 0},  // pointwise 1x1 s1 p0
    {2, 8, 8, 16, 1, 2, 0},   // strided 1x1 (projection shortcut)
    {2, 4, 8, 8, 3, 2, 1},    // 3x3 s2 p1
    {37, 3, 6, 4, 3, 1, 1},   // batch larger than the pool
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, MatchesNaiveReference) {
  const ConvCase p = GetParam();
  Rng rng(21);
  const Tensor input = Tensor::randn({p.n, p.c, p.h, p.h}, rng);
  const Tensor weight = Tensor::randn({p.o, p.c, p.k, p.k}, rng);
  Conv2dArgs args;
  args.stride = p.stride;
  args.padding = p.padding;
  expect_close(conv2d(input, weight, args), naive_conv2d(input, weight, args),
               1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Tensor, ConvSweep, ::testing::ValuesIn(kConvCases));

// Direct fp64 loops for both conv gradients: dinput[n,c,y,x] and
// dweight[o,c,ky,kx] summed straight from grad_out, no unfold.
void naive_conv2d_backward(const Tensor& grad_out, const Tensor& input,
                           const Tensor& weight, const Conv2dArgs& args,
                           Tensor* dinput, Tensor* dweight) {
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t o = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const std::int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  std::vector<double> dx(static_cast<std::size_t>(input.numel()), 0.0);
  std::vector<double> dw(static_cast<std::size_t>(weight.numel()), 0.0);
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const double g = grad_out[((img * o + oc) * oh + oy) * ow + ox];
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = oy * args.stride + ky - args.padding;
                const std::int64_t ix = ox * args.stride + kx - args.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const std::int64_t in_flat = ((img * c + ic) * h + iy) * w + ix;
                const std::int64_t w_flat = ((oc * c + ic) * kh + ky) * kw + kx;
                dx[static_cast<std::size_t>(in_flat)] += g * weight[w_flat];
                dw[static_cast<std::size_t>(w_flat)] += g * input[in_flat];
              }
            }
          }
        }
      }
    }
  }
  *dinput = Tensor(input.shape());
  *dweight = Tensor(weight.shape());
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    (*dinput)[i] = static_cast<float>(dx[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    (*dweight)[i] = static_cast<float>(dw[static_cast<std::size_t>(i)]);
  }
}

TEST(Conv2d, BackwardMatchesReference) {
  for (const ConvCase& p : kConvCases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << p.n << " c=" << p.c << " h=" << p.h << " o=" << p.o
                 << " k=" << p.k << " stride=" << p.stride
                 << " padding=" << p.padding);
    Rng rng(22);
    const Tensor input = Tensor::randn({p.n, p.c, p.h, p.h}, rng);
    const Tensor weight = Tensor::randn({p.o, p.c, p.k, p.k}, rng);
    Conv2dArgs args;
    args.stride = p.stride;
    args.padding = p.padding;
    const Tensor grad = Tensor::randn(conv2d(input, weight, args).shape(), rng);
    Tensor want_dx, want_dw;
    naive_conv2d_backward(grad, input, weight, args, &want_dx, &want_dw);
    const Tensor dx =
        conv2d_backward_input(grad, weight, input.shape(), args);
    const Tensor dw =
        conv2d_backward_weight(grad, input, weight.shape(), args);
    expect_close(dx, want_dx, 1e-4f * std::max(1.0f, max_abs(want_dx)));
    expect_close(dw, want_dw, 1e-4f * std::max(1.0f, max_abs(want_dw)));
  }
}

TEST(Conv2d, BackwardInputMatchesFiniteDifference) {
  Rng rng(23);
  const Tensor input = Tensor::randn({1, 2, 5, 5}, rng);
  const Tensor weight = Tensor::randn({3, 2, 3, 3}, rng);
  Conv2dArgs args;
  args.stride = 1;
  args.padding = 1;
  const Tensor out = conv2d(input, weight, args);
  const Tensor g = Tensor::ones(out.shape());
  const Tensor dinput = conv2d_backward_input(g, weight, input.shape(), args);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < input.numel(); i += 7) {
    Tensor ip = input, im = input;
    ip[i] += eps;
    im[i] -= eps;
    const float fd =
        (sum(conv2d(ip, weight, args)) - sum(conv2d(im, weight, args))) /
        (2.0f * eps);
    EXPECT_NEAR(dinput[i], fd, 5e-2) << "index " << i;
  }
}

TEST(Conv2d, BackwardWeightMatchesFiniteDifference) {
  Rng rng(25);
  const Tensor input = Tensor::randn({2, 2, 4, 4}, rng);
  const Tensor weight = Tensor::randn({2, 2, 3, 3}, rng);
  Conv2dArgs args;
  args.stride = 1;
  args.padding = 1;
  const Tensor out = conv2d(input, weight, args);
  const Tensor g = Tensor::ones(out.shape());
  const Tensor dweight =
      conv2d_backward_weight(g, input, weight.shape(), args);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < weight.numel(); i += 5) {
    Tensor wp = weight, wm = weight;
    wp[i] += eps;
    wm[i] -= eps;
    const float fd =
        (sum(conv2d(input, wp, args)) - sum(conv2d(input, wm, args))) /
        (2.0f * eps);
    EXPECT_NEAR(dweight[i], fd, 5e-2) << "index " << i;
  }
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2dArgs args;
  EXPECT_THROW(conv2d(Tensor({1, 3, 4, 4}), Tensor({2, 4, 3, 3}), args),
               Error);
}

TEST(Im2col, ShapeAndContent) {
  // 1x1x3x3 input, 2x2 kernel, stride 1, no padding -> 4 patches of 4.
  Tensor input = Tensor::arange(9).reshape({1, 1, 3, 3});
  Conv2dArgs args;
  const Tensor cols = im2col(input, 2, 2, args);
  // Per-image layout [N, C*kh*kw, OH*OW]: one row per tap, one column per
  // output pixel.
  ASSERT_EQ(cols.shape(), Shape({1, 4, 4}));
  // First patch (column 0): rows 0-1, cols 0-1 -> {0, 1, 3, 4}.
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[4], 1.0f);
  EXPECT_EQ(cols[8], 3.0f);
  EXPECT_EQ(cols[12], 4.0f);
}

// --- pooling ------------------------------------------------------------------------

TEST(MaxPool, ForwardAndIndices) {
  Tensor input = Tensor::arange(16).reshape({1, 1, 4, 4});
  std::vector<std::int64_t> indices;
  const Tensor out = maxpool2d(input, 2, &indices);
  ASSERT_EQ(out.numel(), 4);
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[3], 15.0f);
  EXPECT_EQ(indices[3], 15);
}

TEST(MaxPool, NegativeInfinityAndNanWindows) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Two images of one 2x4 plane, so two 2x2 windows each. Image 1's first
  // window is all -inf; its second holds a NaN in its last slot, after larger
  // finite values.
  Tensor input({2, 1, 2, 4});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(i);
  }
  for (const std::int64_t i : {8, 9, 12, 13}) input[i] = -inf;
  input[15] = nan;
  std::vector<std::int64_t> indices;
  const Tensor out = maxpool2d(input, 2, &indices);
  ASSERT_EQ(out.shape(), Shape({2, 1, 1, 2}));
  EXPECT_EQ(out[1], 7.0f);
  EXPECT_EQ(out[2], -inf);
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(indices[2], 8);   // the window's own first element
  EXPECT_EQ(indices[3], 15);  // the NaN

  Tensor g(out.shape());
  g[2] = 2.0f;
  g[3] = 3.0f;
  const Tensor dinput = maxpool2d_backward(g, input.shape(), indices);
  EXPECT_EQ(dinput[0], 0.0f);  // image 0 receives nothing
  EXPECT_EQ(dinput[8], 2.0f);
  EXPECT_EQ(dinput[10], 0.0f);
  EXPECT_EQ(dinput[15], 3.0f);
  EXPECT_EQ(sum(dinput), 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor input = Tensor::arange(16).reshape({1, 1, 4, 4});
  std::vector<std::int64_t> indices;
  const Tensor out = maxpool2d(input, 2, &indices);
  const Tensor g = Tensor::ones(out.shape());
  const Tensor dinput = maxpool2d_backward(g, input.shape(), indices);
  EXPECT_EQ(dinput[5], 1.0f);
  EXPECT_EQ(dinput[0], 0.0f);
  EXPECT_NEAR(sum(dinput), 4.0f, 1e-6);
}

// --- kernel equivalence vs reference namespace ------------------------------
//
// The optimized GEMM packs into MR=6 x NR=16 tiles with MC/KC/NC cache
// blocking; prime and degenerate dimensions exercise every ragged-edge path
// (partial tiles in m and n, partial KC slices, m=1, k=1) in both the direct
// and the blocked/packed regimes.

void expect_close_rel(const Tensor& got, const Tensor& want,
                      float rel_tol = 1e-4f) {
  ASSERT_EQ(got.shape(), want.shape());
  const float scale = std::max(1.0f, max_abs(want));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], rel_tol * scale) << "at flat index " << i;
  }
}

struct GemmShape {
  std::int64_t m, k, n;
};

class GemmEquivalence : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmEquivalence, MatmulMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(42);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  expect_close_rel(matmul(a, b), reference::matmul(a, b));
}

TEST_P(GemmEquivalence, MatmulNtMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(43);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({n, k}, rng);
  expect_close_rel(matmul_nt(a, b), reference::matmul_nt(a, b));
}

TEST_P(GemmEquivalence, MatmulTnMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(44);
  const Tensor a = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  expect_close_rel(matmul_tn(a, b), reference::matmul_tn(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    PartialTileShapes, GemmEquivalence,
    ::testing::Values(GemmShape{1, 1, 1},      // single element
                      GemmShape{17, 19, 23},   // primes, direct path
                      GemmShape{6, 16, 16},    // exact single tile
                      GemmShape{97, 101, 103},  // primes, blocked path
                      GemmShape{1, 300, 200},  // m=1: skinny stream (NN/NT),
                                               // blocked (TN)
                      GemmShape{64, 1, 700},   // k=1 through the blocked path
                      GemmShape{129, 257, 65},  // ragged tiles + partial KC
                      GemmShape{5, 2048, 3},   // deep k, tiny m/n
                      GemmShape{8, 600, 40},   // skinny stream, ragged chunk
                      GemmShape{12, 257, 1030},  // skinny at kGemmSkinnyRows,
                                                 // many column chunks
                      GemmShape{997, 64, 48}),  // tall m: many parallel chunks
                                                // with MR-rounded grains
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_k" +
             std::to_string(info.param.k) + "_n" + std::to_string(info.param.n);
    });

// The skinny NN path keeps column strips of C in registers across slices of
// k, but every element must still sum C + a0*b0 + a1*b1 + ... in k order and
// independently of its neighbours. So accumulating k in two calls, or the
// columns in two calls, must reproduce a single call bit for bit, for every
// row count the path takes and split points off the strip and slice grid.
TEST(GemmSkinny, NnSumsEachElementInKOrderFromC) {
  using caraml::tensor::detail::gemm;
  const std::int64_t k = 300, n = 203, k_split = 21, n_split = 37;
  for (std::int64_t m = 1; m <= caraml::tensor::detail::kGemmSkinnyRows; ++m) {
    Rng rng(static_cast<std::uint64_t>(m));
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor c0 = Tensor::randn({m, n}, rng);
    Tensor whole = c0;
    gemm(false, false, m, n, k, a.data(), k, b.data(), n, whole.data(), n);
    Tensor by_k = c0;
    gemm(false, false, m, n, k_split, a.data(), k, b.data(), n, by_k.data(), n);
    gemm(false, false, m, n, k - k_split, a.data() + k_split, k,
         b.data() + k_split * n, n, by_k.data(), n);
    Tensor by_n = c0;
    gemm(false, false, m, n_split, k, a.data(), k, b.data(), n, by_n.data(), n);
    gemm(false, false, m, n - n_split, k, a.data(), k, b.data() + n_split, n,
         by_n.data() + n_split, n);
    SCOPED_TRACE("m=" + std::to_string(m));
    EXPECT_EQ(std::memcmp(whole.data(), by_k.data(), sizeof(float) * m * n), 0);
    EXPECT_EQ(std::memcmp(whole.data(), by_n.data(), sizeof(float) * m * n), 0);
  }
}

TEST(KernelEquivalence, SoftmaxMatchesReference) {
  Rng rng(7);
  const Tensor a = Tensor::randn({37, 53}, rng, 3.0f);
  expect_close_rel(softmax_rows(a), reference::softmax_rows(a));
}

TEST(KernelEquivalence, Conv2dMatchesReference) {
  Rng rng(8);
  const Tensor input = Tensor::randn({2, 3, 9, 7}, rng);
  const Tensor weight = Tensor::randn({5, 3, 3, 3}, rng);
  Conv2dArgs args;
  args.stride = 2;
  args.padding = 1;
  expect_close_rel(conv2d(input, weight, args),
                   reference::conv2d(input, weight, args));
}

// --- NaN/Inf propagation ----------------------------------------------------
//
// Regression test for the old zero-skip "optimization" (`if (a == 0)
// continue`): 0 * NaN is NaN and 0 * Inf is NaN, so a zero operand must not
// short-circuit the multiply.

TEST(GemmNanPropagation, ZeroTimesNanIsNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float poison : {nan, inf}) {
    Tensor a({2, 3});  // all zeros
    Tensor b({3, 2});  // all zeros
    b[0] = poison;     // b(0, 0)
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c[0])) << "matmul dropped 0*" << poison;
    EXPECT_FALSE(std::isnan(c[1]));

    Tensor bt({2, 3});  // matmul_nt: b stored [n, k]
    bt[0] = poison;     // bt(0, 0)
    const Tensor c_nt = matmul_nt(a, bt);
    EXPECT_TRUE(std::isnan(c_nt[0])) << "matmul_nt dropped 0*" << poison;
    EXPECT_FALSE(std::isnan(c_nt[3]));

    Tensor at({3, 2});  // matmul_tn: a stored [k, m]
    Tensor bn({3, 2});
    bn[0] = poison;  // bn(0, 0)
    const Tensor c_tn = matmul_tn(at, bn);
    EXPECT_TRUE(std::isnan(c_tn[0])) << "matmul_tn dropped 0*" << poison;
    EXPECT_FALSE(std::isnan(c_tn[1]));
  }
}

TEST(GemmNanPropagation, NanInputPoisonsBlockedPath) {
  // Large enough to take the blocked/packed kernel, not the direct loop.
  const std::int64_t n = 96;
  Rng rng(11);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  a[5 * n + 7] = std::numeric_limits<float>::quiet_NaN();
  const Tensor c = matmul(a, b);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isnan(c[5 * n + j])) << "column " << j;
  }
  EXPECT_FALSE(std::isnan(c[0]));
}

// --- workspace --------------------------------------------------------------

TEST(WorkspaceTest, SlabIsReusedAcrossTakes) {
  Workspace workspace;
  const float* first = nullptr;
  {
    Workspace::Buffer buffer = workspace.take(1000);
    ASSERT_GE(buffer.size(), 1000u);
    first = buffer.data();
    EXPECT_EQ(workspace.idle_slabs(), 0u);
  }
  EXPECT_EQ(workspace.idle_slabs(), 1u);
  {
    // A smaller request must reuse the parked slab, not allocate a new one.
    Workspace::Buffer buffer = workspace.take(500);
    EXPECT_EQ(buffer.data(), first);
    EXPECT_EQ(workspace.idle_slabs(), 0u);
  }
  EXPECT_EQ(workspace.idle_slabs(), 1u);
}

TEST(WorkspaceTest, TakeZeroedClearsRecycledContents) {
  Workspace workspace;
  {
    Workspace::Buffer buffer = workspace.take(64);
    for (std::size_t i = 0; i < 64; ++i) buffer.data()[i] = 3.0f;
  }
  Workspace::Buffer buffer = workspace.take_zeroed(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(buffer.data()[i], 0.0f);
}

TEST(WorkspaceTest, BestFitPrefersSmallestSufficientSlab) {
  Workspace workspace;
  const float* small = nullptr;
  {
    Workspace::Buffer big = workspace.take(4096);
    Workspace::Buffer little = workspace.take(128);
    small = little.data();
  }
  EXPECT_EQ(workspace.idle_slabs(), 2u);
  Workspace::Buffer buffer = workspace.take(100);
  EXPECT_EQ(buffer.data(), small);
}

TEST(WorkspaceTest, LocalIsPerThreadSingleton) {
  Workspace& a = Workspace::local();
  Workspace& b = Workspace::local();
  EXPECT_EQ(&a, &b);
}

// --- softmax degenerate shapes ----------------------------------------------

TEST(Softmax, ZeroColumnInputThrows) {
  EXPECT_THROW(softmax_rows(Tensor({3, 0})), Error);
  EXPECT_THROW(softmax_rows_backward(Tensor({3, 0}), Tensor({3, 0})), Error);
}

// --- GEMM epilogue -----------------------------------------------------------
//
// The fused epilogue must be bit-identical to running the separate passes
// (bias add, gelu, mask multiply) over the finished GEMM output: it applies
// the very same scalar operations, merely during the write-back. Shapes cover
// the direct path, and a blocked shape with several KC slices and several
// parallel row chunks (the epilogue must fire exactly once per element, on
// the final KC slice only).

struct EpilogueCase {
  std::int64_t m, k, n;
};

class GemmEpilogueEquivalence : public ::testing::TestWithParam<EpilogueCase> {
};

TEST_P(GemmEpilogueEquivalence, BiasGeluMaskMatchSeparatePasses) {
  const auto [m, k, n] = GetParam();
  Rng rng(314);
  const Tensor x = Tensor::randn({m, k}, rng);
  const Tensor w = Tensor::randn({n, k}, rng);  // used transposed (nt)
  const Tensor bias = Tensor::randn({n}, rng);
  Tensor mask({m, n});
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = rng.next_double() < 0.25 ? 0.0f : 4.0f / 3.0f;
  }

  // Separate passes: GEMM, then bias, then gelu, then mask.
  Tensor want = matmul_nt(x, w);
  Tensor want_pre({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      want_pre[i * n + j] = want[i * n + j] + bias[j];
    }
  }
  Tensor want_out = gelu(want_pre);
  for (std::int64_t i = 0; i < want_out.numel(); ++i) want_out[i] *= mask[i];

  Tensor got(Shape{m, n});
  Tensor got_pre(Shape{m, n});
  detail::GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.gelu = true;
  epilogue.dropout_mask = mask.data();
  epilogue.pre_activation = got_pre.data();
  detail::gemm(false, true, m, n, k, x.data(), k, w.data(), k, got.data(), n,
               epilogue);

  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want_out[i]) << "output at flat index " << i;
    ASSERT_EQ(got_pre[i], want_pre[i]) << "pre-activation at flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, GemmEpilogueEquivalence,
    ::testing::Values(EpilogueCase{7, 9, 11},     // direct path
                      EpilogueCase{150, 300, 80},  // blocked: 2 KC slices,
                                                   // several row chunks
                      EpilogueCase{1, 1, 1}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.m) + "_k" +
             std::to_string(info.param.k) + "_n" + std::to_string(info.param.n);
    });

TEST(GemmEpilogueTest, AppliedToInitialValueWhenKIsZero) {
  const std::int64_t m = 3, n = 5;
  Tensor c(Shape{m, n});  // zeros
  const Tensor bias({n}, {1.0f, -2.0f, 0.5f, 3.0f, -0.25f});
  detail::GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  detail::gemm(false, false, m, n, 0, nullptr, 1, nullptr, 1, c.data(), n,
               epilogue);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[i * n + j], bias[j]);
    }
  }
}

TEST(FusedLinearOps, MatchUnfusedComposition) {
  Rng rng(99);
  const Tensor x = Tensor::randn({13, 10}, rng);
  const Tensor w = Tensor::randn({7, 10}, rng);
  const Tensor bias = Tensor::randn({7}, rng);

  Tensor want = matmul_nt(x, w);
  for (std::int64_t i = 0; i < 13; ++i) {
    for (std::int64_t j = 0; j < 7; ++j) want[i * 7 + j] += bias[j];
  }
  expect_close(fused::linear(x, w, &bias), want, 0.0f);

  Tensor pre;
  const Tensor got_gelu =
      fused::linear(x, w, &bias, {.gelu = true, .pre = &pre});
  expect_close(pre, want, 0.0f);
  expect_close(got_gelu, gelu(want), 0.0f);

  Tensor mask({13, 7});
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = i % 3 == 0 ? 0.0f : 1.5f;
  }
  expect_close(fused::linear(x, w, &bias, {.dropout_mask = &mask}),
               mul(want, mask), 0.0f);
}

// --- fused causal attention vs naive oracle ---------------------------------
//
// The oracle (attention_oracle.hpp) reads the same packed qkv layout the
// fused kernel consumes. Shapes cover T == 1, prime T below one tile, T
// crossing the kAttentionBlock boundary with a ragged last tile, few and many
// (b, h) pairs relative to the pool, and prime head_dim.

class FusedAttentionEquivalence
    : public ::testing::TestWithParam<AttentionShape> {};

TEST_P(FusedAttentionEquivalence, ForwardMatchesNaiveOracle) {
  const AttentionShape s = GetParam();
  Rng rng(2024);
  const Tensor qkv = Tensor::randn({s.batch * s.time, 3 * s.embed}, rng);
  Tensor heads_out({s.batch * s.time, s.embed});
  Tensor lse({s.batch * s.heads, s.time});
  fused::causal_attention_forward(qkv.data(), s.batch, s.time, s.embed,
                                  s.heads, heads_out.data(), lse.data());
  expect_close_rel(heads_out, naive_causal_attention(qkv, s), 2e-5f);
}

TEST_P(FusedAttentionEquivalence, BackwardMatchesNaiveOracle) {
  const AttentionShape s = GetParam();
  Rng rng(2025);
  const Tensor qkv = Tensor::randn({s.batch * s.time, 3 * s.embed}, rng);
  const Tensor d_heads = Tensor::randn({s.batch * s.time, s.embed}, rng);
  Tensor heads_out({s.batch * s.time, s.embed});
  Tensor lse({s.batch * s.heads, s.time});
  fused::causal_attention_forward(qkv.data(), s.batch, s.time, s.embed,
                                  s.heads, heads_out.data(), lse.data());
  Tensor d_qkv({s.batch * s.time, 3 * s.embed});
  fused::causal_attention_backward(qkv.data(), heads_out.data(),
                                   d_heads.data(), lse.data(), s.batch, s.time,
                                   s.embed, s.heads, d_qkv.data());
  expect_close_rel(d_qkv, naive_causal_attention_backward(qkv, d_heads, s),
                   5e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedAttentionEquivalence,
    ::testing::Values(AttentionShape{1, 1, 1, 8},    // T == 1, one pair
                      AttentionShape{2, 4, 13, 28},  // prime T, prime head_dim
                      AttentionShape{3, 5, 70, 40},  // ragged second tile,
                                                     // 15 (b, h) pairs
                      AttentionShape{1, 2, 130, 64}),  // three tiles per row
    [](const auto& info) {
      return "b" + std::to_string(info.param.batch) + "_h" +
             std::to_string(info.param.heads) + "_t" +
             std::to_string(info.param.time) + "_c" +
             std::to_string(info.param.embed);
    });

TEST(FusedAttention, MaskedNanIsErasedUnmaskedNanPoisonsItsRow) {
  // A NaN in key row T-1 makes score (i, T-1) NaN for every query row i, but
  // that slot is causally masked for all i < T-1: the mask overwrite must
  // erase it there, and only the final row (where the slot is live) may go
  // NaN.
  const AttentionShape s{1, 2, 37, 16};
  const std::int64_t hd = s.embed / s.heads;
  Rng rng(5);
  Tensor qkv = Tensor::randn({s.batch * s.time, 3 * s.embed}, rng);
  qkv[(s.time - 1) * 3 * s.embed + s.embed + 0 * hd] =
      std::numeric_limits<float>::quiet_NaN();  // K row T-1, head 0
  Tensor heads_out({s.batch * s.time, s.embed});
  Tensor lse({s.batch * s.heads, s.time});
  fused::causal_attention_forward(qkv.data(), s.batch, s.time, s.embed,
                                  s.heads, heads_out.data(), lse.data());
  for (std::int64_t t = 0; t < s.time - 1; ++t) {
    for (std::int64_t c = 0; c < s.embed; ++c) {
      EXPECT_FALSE(std::isnan(heads_out[t * s.embed + c]))
          << "row " << t << " col " << c;
    }
  }
  for (std::int64_t c = 0; c < hd; ++c) {
    EXPECT_TRUE(std::isnan(heads_out[(s.time - 1) * s.embed + c]))
        << "head-0 col " << c;
  }
  for (std::int64_t c = hd; c < s.embed; ++c) {
    EXPECT_FALSE(std::isnan(heads_out[(s.time - 1) * s.embed + c]))
        << "head-1 col " << c;
  }
}

// The thread pool reads CARAML_NUM_THREADS once at static init, so varying it
// requires subprocesses: each child recomputes the same fused forward +
// backward and dumps the raw bytes; the parent asserts all dumps are
// byte-identical. (Per-(b, h) tile order is fixed and the GEMM accumulates
// each C element in a chunking-independent order, so the outputs must not
// depend on how pairs were distributed over threads.)
TEST(FusedAttention, DeterministicAcrossThreadCounts) {
  const AttentionShape s{2, 3, 70, 24};
  const char* dump_path = std::getenv("CARAML_ATTENTION_DUMP");
  if (dump_path != nullptr) {
    Rng rng(77);
    const Tensor qkv = Tensor::randn({s.batch * s.time, 3 * s.embed}, rng);
    const Tensor d_heads = Tensor::randn({s.batch * s.time, s.embed}, rng);
    Tensor heads_out({s.batch * s.time, s.embed});
    Tensor lse({s.batch * s.heads, s.time});
    fused::causal_attention_forward(qkv.data(), s.batch, s.time, s.embed,
                                    s.heads, heads_out.data(), lse.data());
    Tensor d_qkv({s.batch * s.time, 3 * s.embed});
    fused::causal_attention_backward(qkv.data(), heads_out.data(),
                                     d_heads.data(), lse.data(), s.batch,
                                     s.time, s.embed, s.heads, d_qkv.data());
    std::ofstream out(dump_path, std::ios::binary);
    const auto write_tensor = [&out](const Tensor& t) {
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.numel() * sizeof(float)));
    };
    write_tensor(heads_out);
    write_tensor(lse);
    write_tensor(d_qkv);
    ASSERT_TRUE(out.good());
    return;
  }

  // Resolve our own binary path up front: /proc/self/exe inside the
  // system() shell would name the shell, not this test.
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    const std::string path = ::testing::TempDir() + "caraml_att_dump_" +
                             std::to_string(threads) + ".bin";
    const std::string cmd =
        "CARAML_NUM_THREADS=" + std::to_string(threads) +
        " CARAML_ATTENTION_DUMP=" + path + " '" + exe +
        "' --gtest_filter=FusedAttention.DeterministicAcrossThreadCounts"
        " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << "child failed: " << cmd;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    dumps.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(dumps.back().empty());
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "1-thread and 2-thread outputs differ";
  EXPECT_EQ(dumps[0], dumps[2]) << "1-thread and 8-thread outputs differ";
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor input = Tensor::arange(8).reshape({1, 2, 2, 2});
  const Tensor out = global_avg_pool(input);
  ASSERT_EQ(out.dim(1), 2);
  EXPECT_FLOAT_EQ(out[0], 1.5f);   // mean of 0..3
  EXPECT_FLOAT_EQ(out[1], 5.5f);   // mean of 4..7
  const Tensor g({1, 2}, {4.0f, 8.0f});
  const Tensor dinput = global_avg_pool_backward(g, input.shape());
  EXPECT_FLOAT_EQ(dinput[0], 1.0f);
  EXPECT_FLOAT_EQ(dinput[7], 2.0f);
}

}  // namespace
}  // namespace caraml::tensor
