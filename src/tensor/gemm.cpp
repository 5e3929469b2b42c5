#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "tensor/activations.hpp"
#include "tensor/workspace.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace caraml::tensor::detail {
namespace {

constexpr int MR = kGemmMR;
constexpr int NR = kGemmNR;

// int8 dequantization scales (see gemm_i8); the fp32-accumulating storage
// types ignore them.
struct Scales {
  float a = 1.0f;
  const float* b = nullptr;  // [n], per output column
};

// Widen one stored element to the fp32 the float kernels compute in. For
// float it is the identity and compiles away.
inline float to_f32(float x) { return x; }
inline float to_f32(std::uint16_t x) {
  const std::uint32_t bits = static_cast<std::uint32_t>(x) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

#if defined(__GNUC__) || defined(__clang__)

// 8-wide float vector with scalar (4-byte) alignment so loads/stores work on
// arbitrarily offset C rows and packed panels.
typedef float v8f __attribute__((vector_size(32), aligned(4)));
typedef std::int32_t v8i __attribute__((vector_size(32), aligned(4)));

// Eight consecutive stored elements widened to an accumulator vector (the
// skinny NN strips): fp32 as is, bf16 into the high half of each fp32 lane,
// int8 sign-extended to int32.
inline v8f load8(const float* p) { return *reinterpret_cast<const v8f*>(p); }
inline v8f load8(const std::uint16_t* p) {
  typedef std::uint16_t v8u16 __attribute__((vector_size(16), aligned(2)));
  typedef std::uint32_t v8u32 __attribute__((vector_size(32)));
  const v8u32 bits =
      __builtin_convertvector(*reinterpret_cast<const v8u16*>(p), v8u32) << 16;
  return reinterpret_cast<v8f>(bits);
}
inline v8i load8(const std::int8_t* p) {
#if defined(__AVX2__)
  // GCC lowers the generic byte widening below to eight scalar loads.
  return reinterpret_cast<v8i>(_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
#else
  typedef std::int8_t v8i8 __attribute__((vector_size(8), aligned(1)));
  return __builtin_convertvector(*reinterpret_cast<const v8i8*>(p), v8i);
#endif
}

// Rank-kc update of an MR x NR tile of C. The 12 accumulators are *named*
// vector variables, not an array: an acc[MR*NR] aggregate exceeds the
// compiler's scalar-replacement budget and gets spilled to the stack on
// every k-iteration, which is the difference between ~1 and ~25 GFLOP/s.
// `ap` is an MR-wide packed A panel (column-major micro-panel: ap[p*MR+i]),
// `bp` an NR-wide packed B panel (bp[p*NR+j]); both are zero-padded, so the
// hot loop is branch-free. rows/cols clip the C write-back for edge tiles.
void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float* __restrict c,
                  std::int64_t ldc, int rows, int cols) {
  v8f c00{}, c01{}, c10{}, c11{}, c20{}, c21{};
  v8f c30{}, c31{}, c40{}, c41{}, c50{}, c51{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_col = ap + p * MR;
    const v8f b0 = *reinterpret_cast<const v8f*>(bp + p * NR);
    const v8f b1 = *reinterpret_cast<const v8f*>(bp + p * NR + 8);
    c00 += a_col[0] * b0;
    c01 += a_col[0] * b1;
    c10 += a_col[1] * b0;
    c11 += a_col[1] * b1;
    c20 += a_col[2] * b0;
    c21 += a_col[2] * b1;
    c30 += a_col[3] * b0;
    c31 += a_col[3] * b1;
    c40 += a_col[4] * b0;
    c41 += a_col[4] * b1;
    c50 += a_col[5] * b0;
    c51 += a_col[5] * b1;
  }
  if (rows == MR && cols == NR) {
    v8f* r0 = reinterpret_cast<v8f*>(c);
    v8f* r1 = reinterpret_cast<v8f*>(c + ldc);
    v8f* r2 = reinterpret_cast<v8f*>(c + 2 * ldc);
    v8f* r3 = reinterpret_cast<v8f*>(c + 3 * ldc);
    v8f* r4 = reinterpret_cast<v8f*>(c + 4 * ldc);
    v8f* r5 = reinterpret_cast<v8f*>(c + 5 * ldc);
    r0[0] += c00;
    r0[1] += c01;
    r1[0] += c10;
    r1[1] += c11;
    r2[0] += c20;
    r2[1] += c21;
    r3[0] += c30;
    r3[1] += c31;
    r4[0] += c40;
    r4[1] += c41;
    r5[0] += c50;
    r5[1] += c51;
  } else {
    float acc[MR * NR];
    *reinterpret_cast<v8f*>(acc + 0 * NR) = c00;
    *reinterpret_cast<v8f*>(acc + 0 * NR + 8) = c01;
    *reinterpret_cast<v8f*>(acc + 1 * NR) = c10;
    *reinterpret_cast<v8f*>(acc + 1 * NR + 8) = c11;
    *reinterpret_cast<v8f*>(acc + 2 * NR) = c20;
    *reinterpret_cast<v8f*>(acc + 2 * NR + 8) = c21;
    *reinterpret_cast<v8f*>(acc + 3 * NR) = c30;
    *reinterpret_cast<v8f*>(acc + 3 * NR + 8) = c31;
    *reinterpret_cast<v8f*>(acc + 4 * NR) = c40;
    *reinterpret_cast<v8f*>(acc + 4 * NR + 8) = c41;
    *reinterpret_cast<v8f*>(acc + 5 * NR) = c50;
    *reinterpret_cast<v8f*>(acc + 5 * NR + 8) = c51;
    for (int i = 0; i < rows; ++i) {
      float* __restrict c_row = c + i * ldc;
      const float* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < cols; ++j) c_row[j] += acc_row[j];
    }
  }
}

#else  // portable fallback, relies on autovectorization

void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float* __restrict c,
                  std::int64_t ldc, int rows, int cols) {
  float acc[MR * NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_col = ap + p * MR;
    const float* __restrict b_row = bp + p * NR;
    for (int i = 0; i < MR; ++i) {
      const float a_val = a_col[i];
      float* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < NR; ++j) acc_row[j] += a_val * b_row[j];
    }
  }
  for (int i = 0; i < rows; ++i) {
    float* __restrict c_row = c + i * ldc;
    const float* __restrict acc_row = acc + i * NR;
    for (int j = 0; j < cols; ++j) c_row[j] += acc_row[j];
  }
}

#endif

#if defined(__AVX2__) && defined(__FMA__)

// MR x NR rank-kc int8 update with fused dequant, over int16 pair panels:
// element (p, j) sits at [p/2][j][p%2], exactly the operand shape of AVX2's
// pmaddwd (_mm256_madd_epi16), which multiplies 16 int16 lanes and adds
// adjacent products into 8 int32 lanes — two k-steps per instruction with
// exact int32 accumulation (int8 products are <= 127^2, so a pair sum can
// never overflow, let alone saturate). Accumulators are named (same
// scalar-replacement constraint as the fp32 kernel).
void micro_kernel_i8(std::int64_t kc2, const std::int16_t* __restrict ap,
                     const std::int16_t* __restrict bp, float* __restrict c,
                     std::int64_t ldc, int rows, int cols, float scale_a,
                     const float* __restrict scale_b) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  __m256i c40 = _mm256_setzero_si256(), c41 = _mm256_setzero_si256();
  __m256i c50 = _mm256_setzero_si256(), c51 = _mm256_setzero_si256();
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2 + 16));
    const std::int16_t* a_col = ap + p2 * MR * 2;
    std::int32_t pair;
    std::memcpy(&pair, a_col + 0, sizeof(pair));
    __m256i av = _mm256_set1_epi32(pair);
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(av, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 2, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(av, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 4, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(av, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 6, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(av, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 8, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c40 = _mm256_add_epi32(c40, _mm256_madd_epi16(av, b0));
    c41 = _mm256_add_epi32(c41, _mm256_madd_epi16(av, b1));
    std::memcpy(&pair, a_col + 10, sizeof(pair));
    av = _mm256_set1_epi32(pair);
    c50 = _mm256_add_epi32(c50, _mm256_madd_epi16(av, b0));
    c51 = _mm256_add_epi32(c51, _mm256_madd_epi16(av, b1));
  }
  if (rows == MR && cols == NR) {
    const __m256 vsa = _mm256_set1_ps(scale_a);
    const __m256 sb0 = _mm256_loadu_ps(scale_b);
    const __m256 sb1 = _mm256_loadu_ps(scale_b + 8);
    // Written out per row (no pointer-to-accumulator array: taking the
    // accumulators' addresses would let them spill out of registers).
    const auto store_row = [&](float* ci, __m256i lo, __m256i hi) {
      const __m256 d0 =
          _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(lo), vsa), sb0);
      const __m256 d1 =
          _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(hi), vsa), sb1);
      _mm256_storeu_ps(ci, _mm256_add_ps(_mm256_loadu_ps(ci), d0));
      _mm256_storeu_ps(ci + 8, _mm256_add_ps(_mm256_loadu_ps(ci + 8), d1));
    };
    store_row(c, c00, c01);
    store_row(c + ldc, c10, c11);
    store_row(c + 2 * ldc, c20, c21);
    store_row(c + 3 * ldc, c30, c31);
    store_row(c + 4 * ldc, c40, c41);
    store_row(c + 5 * ldc, c50, c51);
  } else {
    alignas(32) std::int32_t acc[MR * NR];
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 0 * NR), c00);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 0 * NR + 8), c01);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 1 * NR), c10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 1 * NR + 8), c11);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 2 * NR), c20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 2 * NR + 8), c21);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 3 * NR), c30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 3 * NR + 8), c31);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 4 * NR), c40);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 4 * NR + 8), c41);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 5 * NR), c50);
    _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 5 * NR + 8), c51);
    for (int i = 0; i < rows; ++i) {
      float* __restrict c_row = c + i * ldc;
      const std::int32_t* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < cols; ++j)
        c_row[j] += (static_cast<float>(acc_row[j]) * scale_a) * scale_b[j];
    }
  }
}

// k-direction dot of two fp32 or bf16 rows, fp32 accumulation. Reductions
// don't auto-vectorize without -ffast-math, so this is written with four
// explicit FMA chains (hiding the FMA latency) and a fixed fold order, so
// results are deterministic. load16 turns 16 stored elements into two fp32
// vectors. bf16 widens by unpacking halfwords into the *high* 16 bits of
// each 32-bit lane against zeros — one shuffle per 8 elements instead of a
// vpmovzxwd + vpslld pair. The unpack interleaves lanes ({0-3, 8-11} and
// {4-7, 12-15}), but a and b are permuted identically and every lane is
// summed, so the dot is unaffected; only its fold order differs from fp32's
// memory-order lanes (matching it would cost fp32 a third of its speed).
inline void load16(const std::uint16_t* p, __m256& lo, __m256& hi) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  lo = _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, v));
  hi = _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, v));
}
inline void load16(const float* p, __m256& lo, __m256& hi) {
  lo = _mm256_loadu_ps(p);
  hi = _mm256_loadu_ps(p + 8);
}

template <typename T>
float dot_f32(const T* __restrict a, const T* __restrict b, std::int64_t k) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  __m256 alo, ahi, blo, bhi;
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    load16(a + p, alo, ahi);
    load16(b + p, blo, bhi);
    acc0 = _mm256_fmadd_ps(alo, blo, acc0);
    acc1 = _mm256_fmadd_ps(ahi, bhi, acc1);
    load16(a + p + 16, alo, ahi);
    load16(b + p + 16, blo, bhi);
    acc2 = _mm256_fmadd_ps(alo, blo, acc2);
    acc3 = _mm256_fmadd_ps(ahi, bhi, acc3);
  }
  const __m256 accv = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                    _mm256_add_ps(acc2, acc3));
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(accv),
                        _mm256_extractf128_ps(accv, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  float acc = _mm_cvtss_f32(s);
  for (; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

// k-direction int8 dot with exact int32 accumulation: sign-extend 16 int8 to
// int16 (vpmovsxbw) and pmaddwd them — 16 multiply-adds per instruction,
// integer-exact so the fold order is free and results are trivially
// deterministic.
inline std::int32_t dot_i8(const std::int8_t* __restrict a,
                           const std::int8_t* __restrict b, std::int64_t k) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i a0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p)));
    const __m256i b0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a0, b0));
    const __m256i a1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + p + 16)));
    const __m256i b1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + p + 16)));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a1, b1));
  }
  const __m256i accv = _mm256_add_epi32(acc0, acc1);
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(accv),
                            _mm256_extracti128_si256(accv, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  std::int32_t acc = _mm_cvtsi128_si32(s);
  for (; p < k; ++p)
    acc += static_cast<std::int32_t>(a[p]) * static_cast<std::int32_t>(b[p]);
  return acc;
}

#else  // portable fallbacks over the same packed-pair layout

void micro_kernel_i8(std::int64_t kc2, const std::int16_t* __restrict ap,
                     const std::int16_t* __restrict bp, float* __restrict c,
                     std::int64_t ldc, int rows, int cols, float scale_a,
                     const float* __restrict scale_b) {
  std::int32_t acc[MR * NR] = {};
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const std::int16_t* __restrict a_col = ap + p2 * MR * 2;
    const std::int16_t* __restrict b_row = bp + p2 * NR * 2;
    for (int i = 0; i < MR; ++i) {
      const std::int32_t a0 = a_col[i * 2];
      const std::int32_t a1 = a_col[i * 2 + 1];
      std::int32_t* __restrict acc_row = acc + i * NR;
      for (int j = 0; j < NR; ++j)
        acc_row[j] += a0 * b_row[j * 2] + a1 * b_row[j * 2 + 1];
    }
  }
  for (int i = 0; i < rows; ++i) {
    float* __restrict c_row = c + i * ldc;
    const std::int32_t* __restrict acc_row = acc + i * NR;
    for (int j = 0; j < cols; ++j)
      c_row[j] += (static_cast<float>(acc_row[j]) * scale_a) * scale_b[j];
  }
}

template <typename T>
float dot_f32(const T* __restrict a, const T* __restrict b, std::int64_t k) {
  float acc = 0.0f;
  for (std::int64_t p = 0; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

inline std::int32_t dot_i8(const std::int8_t* __restrict a,
                           const std::int8_t* __restrict b, std::int64_t k) {
  std::int32_t acc = 0;
  for (std::int64_t p = 0; p < k; ++p)
    acc += static_cast<std::int32_t>(a[p]) * static_cast<std::int32_t>(b[p]);
  return acc;
}

#endif

// What differs between storage types; the driver below is written once over
// these. fp32 and bf16 widen to fp32 panels (k-step 1) and accumulate in
// place in C. int8 packs int16 pair panels (k-step 2, element (p, j) at
// [p/2][j][p%2]) and accumulates exactly in int32, then dequantizes into C
// as (float(acc) * scale_a) * scale_b[j].
template <typename T>
struct GemmTraits {
  using Acc = float;
  using Packed = float;
  static constexpr int kKP = 1;
  static constexpr std::int64_t kSkinnyMaxK =
      std::numeric_limits<std::int64_t>::max();
  static float widen(T x) { return to_f32(x); }
  static float dot(const T* a, const T* b, std::int64_t k) {
    return dot_f32(a, b, k);
  }
  static void kernel(std::int64_t kc, const float* ap, const float* bp,
                     float* c, std::int64_t ldc, int rows, int cols,
                     const Scales& /*scales*/, std::int64_t /*col0*/) {
    micro_kernel(kc, ap, bp, c, ldc, rows, cols);
  }
};

template <>
struct GemmTraits<std::int8_t> {
  using Acc = std::int32_t;
  using Packed = std::int16_t;
  static constexpr int kKP = 2;
  // The skinny path accumulates int32 over all of k; cap it where
  // k * 127^2 nears 2^31 (the blocked path slices at KC and has no limit).
  static constexpr std::int64_t kSkinnyMaxK = std::int64_t{1} << 17;
  static std::int32_t widen(std::int8_t x) { return x; }
  static std::int32_t dot(const std::int8_t* a, const std::int8_t* b,
                          std::int64_t k) {
    return dot_i8(a, b, k);
  }
  static void kernel(std::int64_t kc2, const std::int16_t* ap,
                     const std::int16_t* bp, float* c, std::int64_t ldc,
                     int rows, int cols, const Scales& scales,
                     std::int64_t col0) {
    micro_kernel_i8(kc2, ap, bp, c, ldc, rows, cols, scales.a,
                    scales.b + col0);
  }
};

// Accumulator for C rows [0, rows) x columns [col0, col0 + width). A float
// accumulator is C itself, so every element sums as C + a0*b0 + a1*b1 + ...;
// an int32 one is a zeroed workspace block that finish() dequantizes into C.
template <typename Acc>
class AccBlock {
 public:
  static constexpr bool kInPlace = std::is_same_v<Acc, float>;

  AccBlock(float* c, std::int64_t ldc, std::int64_t rows, std::int64_t col0,
           std::int64_t width, const Scales& scales)
      : c_(c + col0), ldc_(ldc), rows_(rows), width_(width), scales_(scales) {
    if constexpr (!kInPlace) {
      static_assert(sizeof(Acc) == sizeof(float));
      buf_ = Workspace::local().take(static_cast<std::size_t>(rows * width));
      std::memset(buf_.data(), 0, sizeof(Acc) * rows * width);
      scales_.b += col0;
    }
  }

  Acc* row(std::int64_t i) {
    if constexpr (kInPlace) {
      return c_ + i * ldc_;
    } else {
      return reinterpret_cast<Acc*>(buf_.data()) + i * width_;
    }
  }

  void finish() {
    if constexpr (!kInPlace) {
      for (std::int64_t i = 0; i < rows_; ++i) {
        float* __restrict c_row = c_ + i * ldc_;
        const Acc* __restrict acc_row = row(i);
        for (std::int64_t j = 0; j < width_; ++j)
          c_row[j] += (static_cast<float>(acc_row[j]) * scales_.a) *
                      scales_.b[j];
      }
    }
  }

 private:
  float* c_;
  std::int64_t ldc_, rows_, width_;
  Scales scales_;
  Workspace::Buffer buf_;
};

// Pack op(B)[pc:pc+kc, j0:j0+nc] into ceil(nc/NR) panels of NR columns,
// widening to the packed type once here so the micro-kernels need no storage
// awareness. Element (p, j) lands at [p/KP][j][p%KP] (panel stride
// ceil(kc/KP)*NR*KP); ragged columns and the k-tail are zero-padded.
template <typename T, typename P = typename GemmTraits<T>::Packed>
void pack_b(bool trans_b, const T* b, std::int64_t ldb, std::int64_t pc,
            std::int64_t j0, std::int64_t kc, std::int64_t nc, P* bp) {
  constexpr int KP = GemmTraits<T>::kKP;
  const std::int64_t kcp = (kc + KP - 1) / KP;
  const std::int64_t panels = (nc + NR - 1) / NR;
  for (std::int64_t pj = 0; pj < panels; ++pj) {
    const std::int64_t jc = j0 + pj * NR;
    const int cols = static_cast<int>(std::min<std::int64_t>(NR, j0 + nc - jc));
    P* __restrict dst = bp + pj * kcp * NR * KP;
    if (cols < NR || kc % KP != 0)
      std::memset(dst, 0, sizeof(P) * kcp * NR * KP);
    if (!trans_b) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const T* __restrict src = b + (pc + p) * ldb + jc;
        P* __restrict row = dst + (p / KP) * NR * KP + p % KP;
        for (int jj = 0; jj < cols; ++jj)
          row[jj * KP] = static_cast<P>(GemmTraits<T>::widen(src[jj]));
      }
    } else {
      // op(B)(p, j) = B[j, p]: one strided column write per source row.
      for (int jj = 0; jj < cols; ++jj) {
        const T* __restrict src = b + (jc + jj) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p)
          dst[(p / KP) * NR * KP + jj * KP + p % KP] =
              static_cast<P>(GemmTraits<T>::widen(src[p]));
      }
    }
  }
}

// Pack op(A)[i0:i0+mc, pc:pc+kc] into ceil(mc/MR) panels of MR rows, in the
// same [p/KP][i][p%KP] layout (panel stride ceil(kc/KP)*MR*KP).
template <typename T, typename P = typename GemmTraits<T>::Packed>
void pack_a(bool trans_a, const T* a, std::int64_t lda, std::int64_t i0,
            std::int64_t pc, std::int64_t mc, std::int64_t kc, P* ap) {
  constexpr int KP = GemmTraits<T>::kKP;
  const std::int64_t kcp = (kc + KP - 1) / KP;
  const std::int64_t panels = (mc + MR - 1) / MR;
  for (std::int64_t pi = 0; pi < panels; ++pi) {
    const std::int64_t ic = i0 + pi * MR;
    const int rows = static_cast<int>(std::min<std::int64_t>(MR, i0 + mc - ic));
    P* __restrict dst = ap + pi * kcp * MR * KP;
    if (rows < MR || kc % KP != 0)
      std::memset(dst, 0, sizeof(P) * kcp * MR * KP);
    if (!trans_a) {
      for (int ii = 0; ii < rows; ++ii) {
        const T* __restrict src = a + (ic + ii) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p)
          dst[(p / KP) * MR * KP + ii * KP + p % KP] =
              static_cast<P>(GemmTraits<T>::widen(src[p]));
      }
    } else {
      // op(A)(i, p) = A[p, i]: contiguous row reads.
      for (std::int64_t p = 0; p < kc; ++p) {
        const T* __restrict src = a + (pc + p) * lda + ic;
        P* __restrict col = dst + (p / KP) * MR * KP + p % KP;
        for (int ii = 0; ii < rows; ++ii)
          col[ii * KP] = static_cast<P>(GemmTraits<T>::widen(src[ii]));
      }
    }
  }
}

// Direct register-accumulating loops for matrices too small to amortize
// packing. Never skips zero operands: 0 * NaN must stay NaN. An int32
// accumulation over all of k is exact: the threshold bounds k * 127^2 far
// below 2^31.
template <typename T>
void gemm_direct(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, const T* __restrict a, std::int64_t lda,
                 const T* __restrict b, std::int64_t ldb, const Scales& scales,
                 float* c, std::int64_t ldc) {
  using Tr = GemmTraits<T>;
  using Acc = typename Tr::Acc;
  AccBlock<Acc> acc(c, ldc, m, 0, n, scales);
  if (!trans_a && !trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const T* __restrict a_row = a + i * lda;
      Acc* __restrict acc_row = acc.row(i);
      for (std::int64_t p = 0; p < k; ++p) {
        const Acc a_val = Tr::widen(a_row[p]);
        const T* __restrict b_row = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j)
          acc_row[j] += a_val * Tr::widen(b_row[j]);
      }
    }
  } else if (!trans_a && trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const T* __restrict a_row = a + i * lda;
      Acc* __restrict acc_row = acc.row(i);
      for (std::int64_t j = 0; j < n; ++j) {
        const T* __restrict b_row = b + j * ldb;
        Acc sum = 0;
        for (std::int64_t p = 0; p < k; ++p)
          sum += Tr::widen(a_row[p]) * Tr::widen(b_row[p]);
        acc_row[j] += sum;
      }
    }
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const T* __restrict a_row = a + p * lda;
      const T* __restrict b_row = b + p * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const Acc a_val = Tr::widen(a_row[i]);
        Acc* __restrict acc_row = acc.row(i);
        for (std::int64_t j = 0; j < n; ++j)
          acc_row[j] += a_val * Tr::widen(b_row[j]);
      }
    }
  }
  acc.finish();
}

// Apply the epilogue to the C block rows [row0, row0+rows) x cols
// [col0, col0+cols). Indices are absolute so bias/mask/pre line up with the
// full output. Each stage is its own branch-free pass over the row segment
// (in GemmEpilogue's order), so every pass vectorizes — the GELU pass
// included — and each element sees the same operations as a fused loop.
void apply_epilogue(const GemmEpilogue& ep, float* c, std::int64_t ldc,
                    std::int64_t row0, std::int64_t rows, std::int64_t col0,
                    std::int64_t cols) {
  const float* __restrict bias = ep.bias != nullptr ? ep.bias + col0 : nullptr;
  for (std::int64_t i = row0; i < row0 + rows; ++i) {
    float* __restrict c_row = c + i * ldc + col0;
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < cols; ++j) c_row[j] += bias[j];
    }
    if (ep.pre_activation != nullptr) {
      std::memcpy(ep.pre_activation + i * ldc + col0, c_row,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
    if (ep.gelu) {
      for (std::int64_t j = 0; j < cols; ++j) c_row[j] = gelu_scalar(c_row[j]);
    }
    if (ep.dropout_mask != nullptr) {
      const float* __restrict mask = ep.dropout_mask + i * ldc + col0;
      for (std::int64_t j = 0; j < cols; ++j) c_row[j] *= mask[j];
    }
  }
}

// Skinny NN rows: all M (<= kGemmSkinnyRows) rows of the accumulator block
// against `width` columns of B. An 8- or 16-column strip of every row stays
// in vector registers for a whole kSkinnyKB-deep slice of k, so each
// accumulator is loaded and stored once per slice instead of once per k
// step. Each element still sums C + a0*b0 + a1*b1 + ... in k order, bit for
// bit as the row-at-a-time loop that finishes the columns past the last full
// strip. Slicing k (rather than running a strip down all of it) keeps the
// number of B rows read at once, each its own prefetch stream, small.
constexpr std::int64_t kSkinnyKB = 16;

template <typename T, int M>
void skinny_nn_rows(std::int64_t k, const T* __restrict a, std::int64_t lda,
                    const T* __restrict b, std::int64_t ldb,
                    AccBlock<typename GemmTraits<T>::Acc>& acc,
                    std::int64_t width) {
  using Tr = GemmTraits<T>;
  using Acc = typename Tr::Acc;
  std::int64_t strips_end = 0;
#if defined(__GNUC__) || defined(__clang__)
  using V = decltype(load8(b));
  // Two vectors per row while 2*M accumulators leave registers for B.
  constexpr int NV = M <= kGemmSkinnyRows / 2 ? 2 : 1;
  constexpr int W = 8 * NV;
  strips_end = width / W * W;
  for (std::int64_t p0 = 0; p0 < k && strips_end > 0; p0 += kSkinnyKB) {
    const std::int64_t kb = std::min(kSkinnyKB, k - p0);
    // The slice of A, widened once for all strips.
    Acc a_wide[kSkinnyKB][M];
    for (std::int64_t p = 0; p < kb; ++p)
      for (int i = 0; i < M; ++i) a_wide[p][i] = Tr::widen(a[i * lda + p0 + p]);
    for (std::int64_t j0 = 0; j0 < strips_end; j0 += W) {
      V sum[M][NV];
      for (int i = 0; i < M; ++i)
        for (int v = 0; v < NV; ++v)
          sum[i][v] = *reinterpret_cast<const V*>(acc.row(i) + j0 + 8 * v);
      for (std::int64_t p = 0; p < kb; ++p) {
        const T* b_row = b + (p0 + p) * ldb + j0;
        V b_val[NV];
        for (int v = 0; v < NV; ++v) b_val[v] = load8(b_row + 8 * v);
        for (int i = 0; i < M; ++i)
          for (int v = 0; v < NV; ++v) sum[i][v] += a_wide[p][i] * b_val[v];
      }
      for (int i = 0; i < M; ++i)
        for (int v = 0; v < NV; ++v)
          *reinterpret_cast<V*>(acc.row(i) + j0 + 8 * v) = sum[i][v];
    }
  }
#endif
  for (std::int64_t p = 0; p < k && strips_end < width; ++p) {
    const T* __restrict b_row = b + p * ldb;
    for (int i = 0; i < M; ++i) {
      const Acc a_val = Tr::widen(a[i * lda + p]);
      Acc* __restrict acc_row = acc.row(i);
      for (std::int64_t j = strips_end; j < width; ++j)
        acc_row[j] += a_val * Tr::widen(b_row[j]);
    }
  }
}

template <typename T, std::size_t... R>
constexpr auto skinny_nn_table(std::index_sequence<R...>) {
  return std::array{&skinny_nn_rows<T, static_cast<int>(R) + 1>...};
}

// Skinny-m GEMM: stream op(B) in its storage type exactly once, widening on
// load — no packed panel is written or re-read, which halves the traffic of
// bandwidth-bound decode shapes. Workers own disjoint column ranges at least
// one 64-byte line of B wide, so each C element is produced by exactly one
// worker in a fixed order: bit-identical across thread counts.
template <typename T>
void gemm_skinny(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
                 const T* a, std::int64_t lda, const T* b, std::int64_t ldb,
                 const Scales& scales, float* c, std::int64_t ldc,
                 const GemmEpilogue& epilogue) {
  using Tr = GemmTraits<T>;
  using Acc = typename Tr::Acc;
  constexpr std::int64_t kLine = 64 / sizeof(T);
  // Column chunks of at least ~256K multiply-adds per task.
  std::int64_t grain = std::max<std::int64_t>(
      kLine, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, m * k));
  grain = ((grain + kLine - 1) / kLine) * kLine;
  parallel_for_range(
      0, static_cast<std::size_t>(n), static_cast<std::size_t>(grain),
      [&](std::size_t lo_s, std::size_t hi_s) {
        const std::int64_t lo = static_cast<std::int64_t>(lo_s);
        const std::int64_t width = static_cast<std::int64_t>(hi_s) - lo;
        AccBlock<Acc> acc(c, ldc, m, lo, width, scales);
        if (!trans_b) {
          static constexpr auto kRows = skinny_nn_table<T>(
              std::make_index_sequence<kGemmSkinnyRows>());
          kRows[m - 1](k, a, lda, b + lo, ldb, acc, width);
        } else {
          // op(B) row j is B[j, :]: one contiguous k-dot per output. A is at
          // most kGemmSkinnyRows rows and stays cache-hot across all j.
          for (std::int64_t j = 0; j < width; ++j) {
            const T* __restrict b_row = b + (lo + j) * ldb;
            for (std::int64_t i = 0; i < m; ++i)
              acc.row(i)[j] += Tr::dot(a + i * lda, b_row, k);
          }
        }
        acc.finish();
        if (!epilogue.empty())
          apply_epilogue(epilogue, c, ldc, 0, m, lo, width);
      });
}

// The three-level blocked driver (see the header comment). Panels hold
// GemmTraits<T>::Packed elements in the float workspace slabs; an int8
// micro-kernel dequantizes each KC slice, so accumulation across slices is
// fp32 for every storage type.
template <typename T>
void gemm_packed(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, const T* a, std::int64_t lda, const T* b,
                 std::int64_t ldb, const Scales& scales, float* c,
                 std::int64_t ldc, const GemmEpilogue& epilogue) {
  using Tr = GemmTraits<T>;
  using P = typename Tr::Packed;
  constexpr int KP = Tr::kKP;
  // Workspace floats holding `panels` zero-padded panels of `width` lanes.
  const auto slab = [](std::int64_t panels, std::int64_t width,
                       std::int64_t kcp) {
    return static_cast<std::size_t>(panels * width * kcp * KP * sizeof(P) /
                                    sizeof(float));
  };
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    const std::int64_t kcp = (kc + KP - 1) / KP;
    // The epilogue fires once per C element, after its final accumulation.
    const bool last_kc_slice = pc + kc == k;
    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
      const std::int64_t nc = std::min(kGemmNC, n - jc);
      const std::int64_t n_panels = (nc + NR - 1) / NR;
      Workspace::Buffer b_panel =
          Workspace::local().take(slab(n_panels, NR, kcp));
      P* b_packed = reinterpret_cast<P*>(b_panel.data());
      pack_b(trans_b, b, ldb, pc, jc, kc, nc, b_packed);

      // Chunk rows so each task runs at least ~256K multiply-adds. The grain
      // is rounded up to a multiple of MR so chunk boundaries (which
      // parallel_for_range keeps grain-aligned) never split a micro-panel:
      // a mid-panel boundary would push interior tiles down the scalar
      // ragged-edge write-back. The packed B panel is shared read-only
      // across workers.
      std::int64_t grain = std::max<std::int64_t>(
          MR, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, nc * kc));
      grain = ((grain + MR - 1) / MR) * MR;
      const P* bp = b_packed;
      parallel_for_range(
          0, static_cast<std::size_t>(m), static_cast<std::size_t>(grain),
          [&](std::size_t lo, std::size_t hi) {
            const std::int64_t chunk_rows = std::min(
                kGemmMC, static_cast<std::int64_t>(hi - lo));
            Workspace::Buffer a_panel = Workspace::local().take(
                slab((chunk_rows + MR - 1) / MR, MR, kcp));
            P* ap = reinterpret_cast<P*>(a_panel.data());
            for (std::int64_t ic = static_cast<std::int64_t>(lo);
                 ic < static_cast<std::int64_t>(hi); ic += kGemmMC) {
              const std::int64_t mc =
                  std::min(kGemmMC, static_cast<std::int64_t>(hi) - ic);
              pack_a(trans_a, a, lda, ic, pc, mc, kc, ap);
              const std::int64_t m_panels = (mc + MR - 1) / MR;
              for (std::int64_t pj = 0; pj < n_panels; ++pj) {
                const int cols = static_cast<int>(
                    std::min<std::int64_t>(NR, nc - pj * NR));
                for (std::int64_t pi = 0; pi < m_panels; ++pi) {
                  const int rows = static_cast<int>(
                      std::min<std::int64_t>(MR, mc - pi * MR));
                  Tr::kernel(kcp, ap + pi * kcp * MR * KP,
                             bp + pj * kcp * NR * KP,
                             c + (ic + pi * MR) * ldc + jc + pj * NR, ldc,
                             rows, cols, scales, jc + pj * NR);
                }
              }
              if (last_kc_slice && !epilogue.empty()) {
                // Fused write-back: the mc x nc block was just accumulated
                // and is still hot in this worker's cache.
                apply_epilogue(epilogue, c, ldc, ic, mc, jc, nc);
              }
            }
          });
    }
  }
}

// The one shape dispatch every storage type goes through.
template <typename T>
void gemm_dispatch(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   std::int64_t k, const T* a, std::int64_t lda, const T* b,
                   std::int64_t ldb, const Scales& scales, float* c,
                   std::int64_t ldc, const GemmEpilogue& epilogue) {
  CARAML_CHECK_MSG(!(trans_a && trans_b), "gemm: T·T is unsupported");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Nothing to accumulate, but the epilogue (e.g. a bias) still applies to
    // the caller-initialized C.
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  if (m * n * k <= kGemmDirectThreshold) {
    gemm_direct(trans_a, trans_b, m, n, k, a, lda, b, ldb, scales, c, ldc);
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
  } else if (!trans_a && m <= kGemmSkinnyRows &&
             k <= GemmTraits<T>::kSkinnyMaxK) {
    gemm_skinny(trans_b, m, n, k, a, lda, b, ldb, scales, c, ldc, epilogue);
  } else {
    gemm_packed(trans_a, trans_b, m, n, k, a, lda, b, ldb, scales, c, ldc,
                epilogue);
  }
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc,
          const GemmEpilogue& epilogue) {
  gemm_dispatch(trans_a, trans_b, m, n, k, a, lda, b, ldb, Scales{}, c, ldc,
                epilogue);
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc, const GemmEpilogue& epilogue) {
  gemm_dispatch(trans_a, trans_b, m, n, k, a, lda, b, ldb, Scales{}, c, ldc,
                epilogue);
}

void gemm_i8(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc, const GemmEpilogue& epilogue) {
  gemm_dispatch(false, trans_b, m, n, k, a, lda, b, ldb,
                Scales{scale_a, scale_b}, c, ldc, epilogue);
}

}  // namespace caraml::tensor::detail
