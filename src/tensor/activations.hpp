// Scalar math shared by the elementwise kernels (tensor.cpp), the GEMM
// epilogue hook (gemm.cpp) and the fused attention softmax (fused.cpp). One
// definition keeps the fused bias+GELU write-back bit-identical to the
// separate gelu() pass. Everything here is branch- and call-free so the loops
// that inline it auto-vectorize (given -fno-trapping-math, see
// CMakeLists.txt).
#pragma once

#include <cstdint>
#include <cstring>

namespace caraml::tensor::detail {

// Branchless single-precision exp (Cephes-style: Cody-Waite range reduction
// to [-ln2/2, ln2/2], degree-5 polynomial, 2^n reconstruction through the
// exponent bits). libm's scalar expf is ~28% of the fused attention forward
// at T = 256. Accuracy is a few ulp over [-87, 88]; inputs outside saturate
// at exp(-87) / exp(88) instead of 0 / inf. NaN propagates: the clamps use
// comparisons that are false for NaN, and NaN times any reconstruction scale
// stays NaN, so an unmasked NaN score still poisons its row exactly like
// std::exp would.
inline float fast_exp(float x) {
  x = x > 88.0f ? 88.0f : x;    // below inf-overflow threshold
  x = x < -87.0f ? -87.0f : x;  // stays in normal range (no denormal stalls)
  const float z = x * 1.44269504f;  // x / ln2
  const float t = z + 12582912.0f;  // 1.5·2^23: forces round-to-nearest-int
  std::int32_t n_bits;
  std::memcpy(&n_bits, &t, sizeof(n_bits));
  n_bits -= 0x4B400000;  // low mantissa bits of t hold n + bias pattern
  const float n = t - 12582912.0f;
  float f = x - n * 0.693359375f;  // Cody-Waite split of ln2
  f -= n * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * f + 1.3981999507e-3f;
  p = p * f + 8.3334519073e-3f;
  p = p * f + 4.1665795894e-2f;
  p = p * f + 1.6666665459e-1f;
  p = p * f + 5.0000001201e-1f;
  const float r = 1.0f + f + f * f * p;
  const std::int32_t e_bits = (n_bits + 127) << 23;  // bits of 2^n
  float pow2n;
  std::memcpy(&pow2n, &e_bits, sizeof(e_bits));
  return r * pow2n;
}

// tanh(u) = 1 - 2/(exp(2u) + 1) on top of fast_exp. libm's tanhf is a scalar
// call of ~20 ns that never vectorizes; this form is. The absolute error is
// about one ulp of 1 (the subtraction from 1 dominates near 0, where GELU
// scales it by x/2). Saturation is exact: fast_exp clamps, so tanh(±large)
// and tanh(±inf) round to exactly ±1; tanh(NaN) is NaN.
inline float fast_tanh(float u) {
  return 1.0f - 2.0f / (fast_exp(2.0f * u) + 1.0f);
}

// tanh-approximation GELU, as used by GPT-style models.
inline float gelu_scalar(float x) {
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = c * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + fast_tanh(inner));
}

inline float gelu_grad_scalar(float x) {
  const float c = 0.7978845608028654f;
  const float x3 = x * x * x;
  const float inner = c * (x + 0.044715f * x3);
  const float t = fast_tanh(inner);
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * c * (1.0f + 3.0f * 0.044715f * x * x);
}

}  // namespace caraml::tensor::detail
