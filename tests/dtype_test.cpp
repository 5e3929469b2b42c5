// Quantization-error suite for the bf16 / int8 GEMM paths.
//
// Methodology: naive per-element *relative* error is the wrong yardstick for
// a dot product — cancellation can make |ref| arbitrarily small while the
// roundoff is governed by the magnitudes that cancelled. Every kernel here is
// therefore checked against the standard forward-error bound of fp32
// accumulation,
//
//   bf16:  |c_ij - ref_ij| <= k * eps32 * sum_p |a_ip| |b_pj|
//   int8:  |c_ij - ref_ij| <= (nslices + 2) * eps32 * s_a * s_bj
//                              * (sum_p |qa_ip| |qb_pj| + 1)
//
// where ref is an fp64-accumulated oracle over the *rounded* (bf16-widened /
// quantized) inputs — the rounding of the inputs is the representation's
// contract, not kernel error, so the oracle sees the same inputs the kernel
// does. The int8 integer accumulation is exact; its fp32 error enters only
// through the per-KC-slice dequant chain, hence the nslices factor.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/fused.hpp"
#include "tensor/gemm.hpp"
#include "tensor/quant.hpp"
#include "tensor/reference.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caraml::tensor {
namespace {

constexpr double kEps32 = 1.1920928955078125e-07;  // 2^-23

float bits_to_float(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// --- dtype tag ---------------------------------------------------------------

TEST(DType, NamesRoundTrip) {
  for (DType d : {DType::kF32, DType::kBf16, DType::kI8}) {
    const auto parsed = dtype_from_string(dtype_name(d));
    ASSERT_TRUE(parsed.has_value()) << dtype_name(d);
    EXPECT_EQ(*parsed, d);
  }
  EXPECT_FALSE(dtype_from_string("fp16").has_value());
  EXPECT_FALSE(dtype_from_string("").has_value());
  EXPECT_EQ(dtype_bytes(DType::kF32), 4u);
  EXPECT_EQ(dtype_bytes(DType::kBf16), 2u);
  EXPECT_EQ(dtype_bytes(DType::kI8), 1u);
}

// --- bf16 conversions --------------------------------------------------------

TEST(Bf16, RoundTripIsExactForRepresentableValues) {
  // Every value whose mantissa fits in 7 bits round-trips bit-exactly,
  // including the smallest normal (2^-126), bf16 subnormals, and infinities.
  const float representable[] = {0.0f,       -0.0f,      1.0f,
                                 -1.0f,      0.15625f,   -2.5f,
                                 1.984375f,
                                 bits_to_float(0x7f000000u),  // 2^127
                                 1.17549435e-38f,             // 2^-126
                                 bits_to_float(0x00010000u),  // bf16 subnormal
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity()};
  for (const float f : representable) {
    const float back = bf16_to_float(float_to_bf16(f));
    std::uint32_t fb, bb;
    std::memcpy(&fb, &f, 4);
    std::memcpy(&bb, &back, 4);
    EXPECT_EQ(fb, bb) << "value " << f;
  }
}

TEST(Bf16, RoundsToNearestEven) {
  // 0x3f800000 = 1.0. Low half 0x8000 is an exact tie: round to even
  // (mantissa LSB of the bf16 stays 0 -> stays 1.0). 0x8001 rounds up.
  EXPECT_EQ(float_to_bf16(bits_to_float(0x3f808000u)), 0x3f80u);
  EXPECT_EQ(float_to_bf16(bits_to_float(0x3f808001u)), 0x3f81u);
  // 0x3f818000: tie with odd bf16 LSB -> rounds up to even 0x3f82.
  EXPECT_EQ(float_to_bf16(bits_to_float(0x3f818000u)), 0x3f82u);
  // Just below the tie rounds down.
  EXPECT_EQ(float_to_bf16(bits_to_float(0x3f817fffu)), 0x3f81u);
  // Rounding can carry into the exponent: 1.9999999 -> 2.0.
  EXPECT_EQ(float_to_bf16(1.9999999f), 0x4000u);
}

TEST(Bf16, NaNStaysNaNAndInfinityStaysExact) {
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(qnan))));
  // A NaN whose payload lives entirely in the truncated low 16 bits must not
  // collapse to Inf: the quiet bit is forced.
  const float sneaky_nan = bits_to_float(0x7f800001u);
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(sneaky_nan))));
  // Inf must stay Inf (no carry out of an all-ones exponent).
  EXPECT_EQ(float_to_bf16(std::numeric_limits<float>::infinity()), 0x7f80u);
}

TEST(Bf16, BulkConvertersMatchScalar) {
  Rng rng(42);
  Tensor x = Tensor::randn({1009}, rng);  // prime, exercises any tail path
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[1] = -0.0f;
  x[2] = 1e-41f;  // fp32 subnormal
  std::vector<bf16_t> bulk(static_cast<std::size_t>(x.numel()));
  float_to_bf16_n(x.data(), bulk.data(), x.numel());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(bulk[static_cast<std::size_t>(i)], float_to_bf16(x[i]))
        << "index " << i;
  }
  std::vector<float> widened(bulk.size());
  bf16_to_float_n(bulk.data(), widened.data(), x.numel());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float scalar = bf16_to_float(bulk[static_cast<std::size_t>(i)]);
    std::uint32_t wb, sb;
    std::memcpy(&wb, &widened[static_cast<std::size_t>(i)], 4);
    std::memcpy(&sb, &scalar, 4);
    ASSERT_EQ(wb, sb) << "index " << i;
  }
}

TEST(Bf16, TensorSidecarRoundTrips) {
  Rng rng(3);
  const Tensor x = Tensor::randn({7, 11}, rng);
  const Bf16Tensor bx = Bf16Tensor::from_float(x);
  EXPECT_EQ(bx.dim(0), 7);
  EXPECT_EQ(bx.numel(), 77);
  const Tensor widened = bx.to_float();
  // Widen(round(x)) differs from x by at most half a bf16 ULP = 2^-8 rel.
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_NEAR(widened[i], x[i], std::fabs(x[i]) * 0x1p-8f + 1e-38f);
  }
  // And a second round trip is exact (idempotent rounding).
  const Bf16Tensor again = Bf16Tensor::from_float(widened);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(again.data()[i], bx.data()[i]);
  }
}

// --- quantization ------------------------------------------------------------

TEST(Quant, PerTensorRoundTripWithinHalfStep) {
  Rng rng(11);
  Tensor x = Tensor::randn({23, 17}, rng, 3.0f);
  const QuantizedTensor q = quantize_per_tensor(x);
  ASSERT_EQ(q.scales.size(), 1u);
  const Tensor back = dequantize(q);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_LE(std::fabs(back[i] - x[i]), 0.5f * q.scales[0] * 1.0001f)
        << "index " << i;
  }
}

TEST(Quant, AllZeroTensorQuantizesToZero) {
  const Tensor x({4, 4});
  const QuantizedTensor q = quantize_per_tensor(x);
  EXPECT_GT(q.scales[0], 0.0f);  // floored, no 0/0
  for (const std::int8_t v : q.data) EXPECT_EQ(v, 0);
  const Tensor back = dequantize(q);
  for (std::int64_t i = 0; i < back.numel(); ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(Quant, PerChannelIsolatesLargeMagnitudeRows) {
  // One row of magnitude ~1e4 next to rows of magnitude ~1: per-tensor
  // quantization would leave the small rows ~0.4 absolute error; per-channel
  // keeps each row's error within half its own step.
  Rng rng(5);
  Tensor w = Tensor::randn({4, 64}, rng);
  for (std::int64_t j = 0; j < 64; ++j) w[j] *= 1e4f;
  const QuantizedTensor q = quantize_per_channel_rows(w);
  ASSERT_TRUE(q.per_channel());
  ASSERT_EQ(q.scales.size(), 4u);
  const Tensor back = dequantize(q);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t j = 0; j < 64; ++j) {
      ASSERT_LE(std::fabs(back[r * 64 + j] - w[r * 64 + j]),
                0.5f * q.scales[static_cast<std::size_t>(r)] * 1.0001f)
          << "row " << r << " col " << j;
    }
  }
  // The small rows' scales must not be inflated by the big row.
  EXPECT_LT(q.scales[1], 0.1f);
  EXPECT_GT(q.scales[0], 10.0f);
}

TEST(Quant, CalibratedScaleSaturatesOutOfRangeValues) {
  const Tensor x({1, 4}, {0.5f, -0.5f, 10.0f, -10.0f});
  const QuantizedTensor q = quantize_with_scale(x, 1.0f / 127.0f);
  EXPECT_EQ(q.data[2], 127);   // 10.0 clamps
  EXPECT_EQ(q.data[3], -127);  // symmetric clamp, never -128
  EXPECT_NEAR(dequantize(q)[0], 0.5f, 0.5f / 127.0f);
}

// --- bf16 GEMM vs fp64 oracle ------------------------------------------------

enum class Variant { kNN, kNT, kTN };

// Checks one bf16 matmul variant against the fp64 oracle of the widened
// operands, element by element against the analytic bound.
void check_bf16(Variant variant, std::int64_t m, std::int64_t n,
                std::int64_t k, const Tensor& a_f32, const Tensor& b_f32) {
  const Bf16Tensor a = Bf16Tensor::from_float(a_f32);
  const Bf16Tensor b = Bf16Tensor::from_float(b_f32);
  const Tensor wa = a.to_float();
  const Tensor wb = b.to_float();
  Tensor c, ref;
  switch (variant) {
    case Variant::kNN:
      c = matmul_bf16(a, b);
      ref = reference::matmul(wa, wb);
      break;
    case Variant::kNT:
      c = matmul_nt_bf16(a, b);
      ref = reference::matmul_nt(wa, wb);
      break;
    case Variant::kTN:
      c = matmul_tn_bf16(a, b);
      ref = reference::matmul_tn(wa, wb);
      break;
  }
  ASSERT_EQ(c.dim(0), m);
  ASSERT_EQ(c.dim(1), n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double mag = 0.0;  // sum_p |a_ip| |b_pj| over the widened operands
      for (std::int64_t p = 0; p < k; ++p) {
        double av, bv;
        switch (variant) {
          case Variant::kNN:
            av = wa[i * k + p];
            bv = wb[p * n + j];
            break;
          case Variant::kNT:
            av = wa[i * k + p];
            bv = wb[j * k + p];
            break;
          case Variant::kTN:
            av = wa[p * m + i];
            bv = wb[p * n + j];
            break;
        }
        mag += std::fabs(av) * std::fabs(bv);
      }
      const double bound =
          static_cast<double>(std::max<std::int64_t>(k, 1)) * kEps32 * mag +
          1e-38;
      ASSERT_LE(std::fabs(static_cast<double>(c[i * n + j]) - ref[i * n + j]),
                bound)
          << "(" << i << "," << j << ") m=" << m << " n=" << n << " k=" << k;
    }
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};

// Degenerate, prime, micro-tile-edge, packed, and skinny-streaming shapes.
const GemmShape kBf16Shapes[] = {
    {1, 1, 1},   {1, 7, 3},    {5, 1, 4},    {6, 16, 1},  {7, 17, 9},
    {17, 19, 23}, {12, 32, 64}, {37, 41, 29}, {73, 33, 70},  // > MC rows
    {8, 40, 600},                                            // skinny path
};

TEST(Bf16Gemm, MatchesOracleWithinAnalyticBound) {
  for (const GemmShape& s : kBf16Shapes) {
    Rng rng(static_cast<std::uint64_t>(s.m * 1000003 + s.n * 1009 + s.k));
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor bt = Tensor::randn({s.n, s.k}, rng);
    const Tensor at = Tensor::randn({s.k, s.m}, rng);
    check_bf16(Variant::kNN, s.m, s.n, s.k, a, b);
    check_bf16(Variant::kNT, s.m, s.n, s.k, a, bt);
    check_bf16(Variant::kTN, s.m, s.n, s.k, at, b);
  }
}

TEST(Bf16Gemm, SurvivesAdversarialMagnitudes) {
  // Exponents spanning ~20 decades plus subnormals: the bound (which scales
  // with the magnitudes) must still hold. The exponent range is capped so the
  // products stay inside fp32 (an fp32 GEMM overflows identically — that is
  // not a bf16 defect).
  const GemmShape s{23, 29, 31};
  Rng rng(99);
  Tensor a = Tensor::randn({s.m, s.k}, rng);
  Tensor b = Tensor::randn({s.k, s.n}, rng);
  Rng exp_rng(100);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a[i] *= std::pow(10.0f, static_cast<float>(exp_rng.next_double() * 20 - 10));
  }
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b[i] *= std::pow(10.0f, static_cast<float>(exp_rng.next_double() * 20 - 10));
  }
  a[0] = 1e-41f;  // subnormal operands
  b[0] = 1e-40f;
  check_bf16(Variant::kNN, s.m, s.n, s.k, a, b);
}

TEST(Bf16Gemm, PackedPathBitIdenticalToFp32OnRepresentableInputs) {
  // Shared-driver contract: for inputs already exactly representable in bf16
  // the bf16 GEMM performs the identical fp32 arithmetic as the fp32 GEMM on
  // the direct, skinny-NN and packed paths, so the outputs must agree bit for
  // bit (not just to tolerance). Each shape pins one dispatch path. The one
  // per-type kernel is the skinny NT dot: bf16's widening unpack interleaves
  // the vector lanes, so its fold order differs from fp32's, and skinny NT
  // is left out below.
  struct Case {
    std::int64_t m, n, k;
    const char* path;
  };
  const Case cases[] = {
      {64, 40, 48, "packed"},     // m > kGemmSkinnyRows, above the direct cap
      {7, 9, 17, "direct"},       // m*n*k <= kGemmDirectThreshold
      {8, 40, 600, "skinny"},     // m <= kGemmSkinnyRows (TN stays packed)
      {12, 1030, 257, "skinny"},  // many column chunks, ragged dot tail
  };
  Rng rng(7);
  for (const Case& s : cases) {
    const auto representable = [&](Shape shape) {
      Tensor t = Tensor::randn(std::move(shape), rng);
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = bf16_to_float(float_to_bf16(t[i]));
      }
      return t;
    };
    const Tensor a = representable({s.m, s.k});
    const Tensor b = representable({s.k, s.n});
    const Tensor bt = representable({s.n, s.k});
    const Tensor at = representable({s.k, s.m});
    const auto bf = [](const Tensor& t) { return Bf16Tensor::from_float(t); };
    const auto expect_same_bits = [&](const Tensor& c_f32,
                                      const Tensor& c_bf16,
                                      const char* variant) {
      ASSERT_EQ(c_f32.numel(), c_bf16.numel());
      for (std::int64_t i = 0; i < c_f32.numel(); ++i) {
        const float f32_val = c_f32[i], bf16_val = c_bf16[i];
        std::uint32_t fb, bb;
        std::memcpy(&fb, &f32_val, 4);
        std::memcpy(&bb, &bf16_val, 4);
        ASSERT_EQ(fb, bb) << s.path << " " << variant << " " << s.m << "x"
                          << s.n << "x" << s.k << " flat index " << i;
      }
    };
    expect_same_bits(matmul(a, b), matmul_bf16(bf(a), bf(b)), "NN");
    expect_same_bits(matmul_tn(at, b), matmul_tn_bf16(bf(at), bf(b)), "TN");
    if (std::string(s.path) != "skinny") {
      expect_same_bits(matmul_nt(a, bt), matmul_nt_bf16(bf(a), bf(bt)), "NT");
    }
  }
}

// --- int8 GEMM vs exact-integer oracle --------------------------------------

void check_i8(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
              std::uint64_t seed, bool wild_scales) {
  Rng rng(seed);
  std::vector<std::int8_t> qa(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> qb(static_cast<std::size_t>(k * n));
  for (auto& v : qa) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.next_double() * 254) -
                                 127);
  }
  for (auto& v : qb) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.next_double() * 254) -
                                 127);
  }
  const float scale_a = 0.013f;
  std::vector<float> scale_b(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    // wild_scales stresses the per-channel dequant: scales spanning 1e-3..1e3.
    scale_b[static_cast<std::size_t>(j)] =
        wild_scales
            ? std::pow(10.0f, static_cast<float>(rng.next_double() * 6 - 3))
            : 0.02f + 0.001f * static_cast<float>(j % 7);
  }
  Tensor c({m, n});
  detail::gemm_i8(trans_b, m, n, k, qa.data(), k, qb.data(),
                  trans_b ? k : n, scale_a, scale_b.data(), c.data(), n);
  const Tensor ref =
      reference::matmul_i8(trans_b, m, n, k, qa.data(), qb.data(), scale_a,
                           scale_b.data());
  const std::int64_t nslices = (k + detail::kGemmKC - 1) / detail::kGemmKC;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double qmag = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const double bv = trans_b ? qb[static_cast<std::size_t>(j * k + p)]
                                  : qb[static_cast<std::size_t>(p * n + j)];
        qmag += std::fabs(static_cast<double>(
                    qa[static_cast<std::size_t>(i * k + p)])) *
                std::fabs(bv);
      }
      const double bound = static_cast<double>(nslices + 2) * kEps32 *
                           scale_a * scale_b[static_cast<std::size_t>(j)] *
                           (qmag + 1.0);
      ASSERT_LE(std::fabs(static_cast<double>(c[i * n + j]) - ref[i * n + j]),
                bound)
          << "(" << i << "," << j << ") m=" << m << " n=" << n << " k=" << k
          << " trans_b=" << trans_b;
    }
  }
}

TEST(Int8Gemm, MatchesOracleWithinAnalyticBound) {
  const GemmShape shapes[] = {
      {1, 1, 1},    {4, 5, 6},     {17, 19, 23},  {6, 16, 128},
      {33, 40, 25}, {8, 33, 400},  // skinny path
      {64, 96, 600},               // packed path, 3 KC slices
  };
  std::uint64_t seed = 1;
  for (const GemmShape& s : shapes) {
    for (const bool trans_b : {false, true}) {
      check_i8(trans_b, s.m, s.n, s.k, seed++, false);
    }
  }
}

TEST(Int8Gemm, PerChannelScaleStress) {
  check_i8(true, 29, 31, 300, 77, true);
  check_i8(false, 64, 80, 520, 78, true);
}

TEST(Int8Gemm, ZeroInnerDimensionLeavesOutputUntouched) {
  Tensor c = Tensor::full({3, 4}, 5.0f);
  const std::vector<float> scale_b(4, 1.0f);
  detail::gemm_i8(false, 3, 4, 0, nullptr, 0, nullptr, 4, 1.0f,
                  scale_b.data(), c.data(), 4);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 5.0f);
}

// --- fused epilogue composition ---------------------------------------------

TEST(FusedDtype, Bf16BiasEpilogueMatchesPostHocAdd) {
  Rng rng(21);
  const Bf16Tensor x = Bf16Tensor::from_float(Tensor::randn({19, 33}, rng));
  const Bf16Tensor w = Bf16Tensor::from_float(Tensor::randn({27, 33}, rng));
  const Tensor bias = Tensor::randn({27}, rng);
  const Tensor fused_out = fused::linear(x, w, &bias);
  const Tensor plain = matmul_nt_bf16(x, w);
  for (std::int64_t i = 0; i < 19; ++i) {
    for (std::int64_t j = 0; j < 27; ++j) {
      // The epilogue adds the bias to the final fp32 accumulator — the same
      // fp32 add a post-hoc pass would do, so equality is exact.
      ASSERT_EQ(fused_out[i * 27 + j], plain[i * 27 + j] + bias[j]);
    }
  }
}

TEST(FusedDtype, Bf16GeluCapturesPreActivation) {
  Rng rng(22);
  const Bf16Tensor x = Bf16Tensor::from_float(Tensor::randn({11, 24}, rng));
  const Bf16Tensor w = Bf16Tensor::from_float(Tensor::randn({16, 24}, rng));
  const Tensor bias = Tensor::randn({16}, rng);
  Tensor pre;
  const Tensor out = fused::linear(x, w, &bias, {.gelu = true, .pre = &pre});
  const Tensor plain = matmul_nt_bf16(x, w);
  for (std::int64_t i = 0; i < pre.numel(); ++i) {
    ASSERT_EQ(pre[i], plain[i] + bias[i % 16]);
  }
  const Tensor expected = gelu(pre);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_NEAR(out[i], expected[i], 1e-6f) << "flat index " << i;
  }
}

TEST(FusedDtype, Int8LinearMatchesDequantReference) {
  Rng rng(23);
  const Tensor xf = Tensor::randn({13, 40}, rng);
  const Tensor wf = Tensor::randn({21, 40}, rng);
  const Tensor bias = Tensor::randn({21}, rng);
  const QuantizedTensor qx = quantize_per_tensor(xf);
  const QuantizedTensor qw = quantize_per_channel_rows(wf);
  const Tensor out = fused::linear(qx, qw, &bias);
  const Tensor ref = reference::matmul_i8(
      true, 13, 21, 40, qx.data.data(), qw.data.data(), qx.scales[0],
      qw.scales.data());
  for (std::int64_t i = 0; i < 13; ++i) {
    for (std::int64_t j = 0; j < 21; ++j) {
      const double bound = 3.0 * kEps32 * qx.scales[0] *
                               qw.scales[static_cast<std::size_t>(j)] * 127.0 *
                               127.0 * 40.0 +
                           kEps32 * std::fabs(bias[j]) + 1e-30;
      ASSERT_NEAR(out[i * 21 + j], ref[i * 21 + j] + bias[j], bound);
    }
  }
}

TEST(FusedDtype, Int8RejectsMismatchedQuantizationModes) {
  Rng rng(24);
  const QuantizedTensor qx = quantize_per_tensor(Tensor::randn({4, 8}, rng));
  const QuantizedTensor qw_per_tensor =
      quantize_per_tensor(Tensor::randn({6, 8}, rng));
  EXPECT_THROW(fused::linear(qx, qw_per_tensor, nullptr), Error);
  const QuantizedTensor qx_per_channel =
      quantize_per_channel_rows(Tensor::randn({4, 8}, rng));
  const QuantizedTensor qw =
      quantize_per_channel_rows(Tensor::randn({6, 8}, rng));
  EXPECT_THROW(fused::linear(qx_per_channel, qw, nullptr), Error);
}

TEST(FusedDtype, Int8RejectsDropout) {
  Rng rng(25);
  const QuantizedTensor qx = quantize_per_tensor(Tensor::randn({4, 8}, rng));
  const QuantizedTensor qw =
      quantize_per_channel_rows(Tensor::randn({6, 8}, rng));
  const Tensor mask = Tensor::ones({4, 6});
  EXPECT_THROW(fused::linear(qx, qw, nullptr, {.dropout_mask = &mask}), Error);
}

// --- determinism across thread counts ---------------------------------------

// Same subprocess pattern as FusedAttention.DeterministicAcrossThreadCounts:
// the pool reads CARAML_NUM_THREADS once at static init. Each child computes
// bf16 packed + skinny, int8 packed + skinny and fp32 skinny NN + NT GEMMs
// and dumps raw bytes; the parent asserts the dumps are byte-identical. The
// kernels guarantee this
// by construction: packed paths split only the row dimension (each C element
// is accumulated by exactly one thread in a fixed KC-slice order), streaming
// paths give each thread a disjoint column range.
TEST(DtypeGemm, DeterministicAcrossThreadCounts) {
  const char* dump_path = std::getenv("CARAML_DTYPE_DUMP");
  if (dump_path != nullptr) {
    Rng rng(123);
    // bf16 packed: m crosses two MC chunks; skinny: m = 8 streaming rows.
    const Bf16Tensor a1 =
        Bf16Tensor::from_float(Tensor::randn({150, 130}, rng));
    const Bf16Tensor b1 =
        Bf16Tensor::from_float(Tensor::randn({130, 140}, rng));
    const Tensor c1 = matmul_bf16(a1, b1);
    const Bf16Tensor a2 = Bf16Tensor::from_float(Tensor::randn({8, 500}, rng));
    const Bf16Tensor b2 =
        Bf16Tensor::from_float(Tensor::randn({300, 500}, rng));
    const Tensor c2 = matmul_nt_bf16(a2, b2);
    // int8 packed (3 KC slices) and skinny.
    const QuantizedTensor qa1 =
        quantize_per_tensor(Tensor::randn({64, 600}, rng));
    const QuantizedTensor qb1 =
        quantize_per_channel_rows(Tensor::randn({96, 600}, rng));
    Tensor c3({64, 96});
    detail::gemm_i8(true, 64, 96, 600, qa1.data.data(), 600, qb1.data.data(),
                    600, qa1.scales[0], qb1.scales.data(), c3.data(), 96);
    const QuantizedTensor qa2 =
        quantize_per_tensor(Tensor::randn({4, 400}, rng));
    const QuantizedTensor qb2 =
        quantize_per_channel_rows(Tensor::randn({120, 400}, rng));
    Tensor c4({4, 120});
    detail::gemm_i8(true, 4, 120, 400, qa2.data.data(), 400, qb2.data.data(),
                    400, qa2.scales[0], qb2.scales.data(), c4.data(), 120);
    // fp32 skinny streams, each split over several column chunks.
    const Tensor c5 =
        matmul(Tensor::randn({8, 600}, rng), Tensor::randn({600, 300}, rng));
    const Tensor c6 = matmul_nt(Tensor::randn({12, 257}, rng),
                                Tensor::randn({1030, 257}, rng));
    std::ofstream out(dump_path, std::ios::binary);
    const Tensor* outputs[] = {&c1, &c2, &c3, &c4, &c5, &c6};
    for (const Tensor* t : outputs) {
      out.write(reinterpret_cast<const char*>(t->data()),
                static_cast<std::streamsize>(t->numel() * sizeof(float)));
    }
    ASSERT_TRUE(out.good());
    return;
  }

  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';

  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 8}) {
    const std::string path = ::testing::TempDir() + "caraml_dtype_dump_" +
                             std::to_string(threads) + ".bin";
    const std::string cmd =
        "CARAML_NUM_THREADS=" + std::to_string(threads) +
        " CARAML_DTYPE_DUMP=" + path + " '" + exe +
        "' --gtest_filter=DtypeGemm.DeterministicAcrossThreadCounts"
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

}  // namespace
}  // namespace caraml::tensor
