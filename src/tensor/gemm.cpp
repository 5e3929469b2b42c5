#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

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

// Widen one stored element to the fp32 the kernels compute in. The packing
// and direct loops are templated on the storage type and call this, so the
// fp32 and bf16 paths share one skeleton; for float it is the identity and
// compiles away, keeping the fp32 path bit-identical to its untemplated
// form.
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

// Pack op(B)[pc:pc+kc, j0:j0+nc] into ceil(nc/NR) panels of NR columns
// (panel stride kc*NR), zero-padding the ragged last panel. SrcT is float or
// bf16 bits; the packed panel is always fp32 (bf16 widens here, once, so the
// micro-kernel needs no dtype awareness).
template <typename SrcT>
void pack_b(bool trans_b, const SrcT* b, std::int64_t ldb, std::int64_t pc,
            std::int64_t j0, std::int64_t kc, std::int64_t nc, float* bp) {
  const std::int64_t panels = (nc + NR - 1) / NR;
  for (std::int64_t pj = 0; pj < panels; ++pj) {
    const std::int64_t jc = j0 + pj * NR;
    const int cols = static_cast<int>(std::min<std::int64_t>(NR, j0 + nc - jc));
    float* __restrict dst = bp + pj * kc * NR;
    if (!trans_b) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const SrcT* __restrict src = b + (pc + p) * ldb + jc;
        float* __restrict row = dst + p * NR;
        for (int jj = 0; jj < cols; ++jj) row[jj] = to_f32(src[jj]);
        for (int jj = cols; jj < NR; ++jj) row[jj] = 0.0f;
      }
    } else {
      // op(B)(p, j) = B[j, p]: one strided column write per source row.
      if (cols < NR) std::memset(dst, 0, sizeof(float) * kc * NR);
      for (int jj = 0; jj < cols; ++jj) {
        const SrcT* __restrict src = b + (jc + jj) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * NR + jj] = to_f32(src[p]);
      }
    }
  }
}

// Pack op(A)[i0:i0+mc, pc:pc+kc] into ceil(mc/MR) panels of MR rows
// (panel stride kc*MR), zero-padding the ragged last panel.
template <typename SrcT>
void pack_a(bool trans_a, const SrcT* a, std::int64_t lda, std::int64_t i0,
            std::int64_t pc, std::int64_t mc, std::int64_t kc, float* ap) {
  const std::int64_t panels = (mc + MR - 1) / MR;
  for (std::int64_t pi = 0; pi < panels; ++pi) {
    const std::int64_t ic = i0 + pi * MR;
    const int rows = static_cast<int>(std::min<std::int64_t>(MR, i0 + mc - ic));
    float* __restrict dst = ap + pi * kc * MR;
    if (!trans_a) {
      if (rows < MR) std::memset(dst, 0, sizeof(float) * kc * MR);
      for (int ii = 0; ii < rows; ++ii) {
        const SrcT* __restrict src = a + (ic + ii) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * MR + ii] = to_f32(src[p]);
      }
    } else {
      // op(A)(i, p) = A[p, i]: contiguous row reads.
      for (std::int64_t p = 0; p < kc; ++p) {
        const SrcT* __restrict src = a + (pc + p) * lda + ic;
        float* __restrict col = dst + p * MR;
        for (int ii = 0; ii < rows; ++ii) col[ii] = to_f32(src[ii]);
        for (int ii = rows; ii < MR; ++ii) col[ii] = 0.0f;
      }
    }
  }
}

// Direct register-accumulating loops for matrices too small to amortize
// packing. Never skips zero operands: 0 * NaN must stay NaN.
template <typename SrcT>
void gemm_direct(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, const SrcT* __restrict a, std::int64_t lda,
                 const SrcT* __restrict b, std::int64_t ldb,
                 float* __restrict c, std::int64_t ldc) {
  if (!trans_a && !trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const SrcT* __restrict a_row = a + i * lda;
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float a_val = to_f32(a_row[p]);
        const SrcT* __restrict b_row = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j)
          c_row[j] += a_val * to_f32(b_row[j]);
      }
    }
  } else if (!trans_a && trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      const SrcT* __restrict a_row = a + i * lda;
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const SrcT* __restrict b_row = b + j * ldb;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < k; ++p)
          acc += to_f32(a_row[p]) * to_f32(b_row[p]);
        c_row[j] += acc;
      }
    }
  } else {
    for (std::int64_t p = 0; p < k; ++p) {
      const SrcT* __restrict a_row = a + p * lda;
      const SrcT* __restrict b_row = b + p * ldb;
      for (std::int64_t i = 0; i < m; ++i) {
        const float a_val = to_f32(a_row[i]);
        float* __restrict c_row = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j)
          c_row[j] += a_val * to_f32(b_row[j]);
      }
    }
  }
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

// The shared three-level blocked driver (see the header comment). SrcT is
// float (the original fp32 path, bit-identical) or bf16 bits; all packing
// widens to fp32 so the one micro-kernel serves both.
template <typename SrcT>
void gemm_impl(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const SrcT* a, std::int64_t lda, const SrcT* b,
               std::int64_t ldb, float* c, std::int64_t ldc,
               const GemmEpilogue& epilogue) {
  CARAML_CHECK_MSG(!(trans_a && trans_b), "gemm: T·T is unsupported");
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Nothing to accumulate, but the epilogue (e.g. a bias) still applies to
    // the caller-initialized C.
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  if (m * n * k <= kGemmDirectThreshold) {
    gemm_direct(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc);
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }

  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    // The epilogue fires once per C element, after its final accumulation.
    const bool last_kc_slice = pc + kc == k;
    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
      const std::int64_t nc = std::min(kGemmNC, n - jc);
      const std::int64_t n_panels = (nc + NR - 1) / NR;
      Workspace::Buffer b_panel =
          Workspace::local().take(static_cast<std::size_t>(n_panels * kc * NR));
      pack_b(trans_b, b, ldb, pc, jc, kc, nc, b_panel.data());

      // Chunk rows so each task runs at least ~256K multiply-adds. The grain
      // is rounded up to a multiple of MR so chunk boundaries (which
      // parallel_for_range keeps grain-aligned) never split a micro-panel:
      // a mid-panel boundary would push interior tiles down the scalar
      // ragged-edge write-back. The packed B panel is shared read-only
      // across workers.
      std::int64_t grain = std::max<std::int64_t>(
          MR, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, nc * kc));
      grain = ((grain + MR - 1) / MR) * MR;
      const float* bp = b_panel.data();
      parallel_for_range(
          0, static_cast<std::size_t>(m), static_cast<std::size_t>(grain),
          [&](std::size_t lo, std::size_t hi) {
            const std::int64_t chunk_rows = std::min(
                kGemmMC, static_cast<std::int64_t>(hi - lo));
            Workspace::Buffer a_panel = Workspace::local().take(
                static_cast<std::size_t>(((chunk_rows + MR - 1) / MR) * kc *
                                         MR));
            for (std::int64_t ic = static_cast<std::int64_t>(lo);
                 ic < static_cast<std::int64_t>(hi); ic += kGemmMC) {
              const std::int64_t mc =
                  std::min(kGemmMC, static_cast<std::int64_t>(hi) - ic);
              pack_a(trans_a, a, lda, ic, pc, mc, kc, a_panel.data());
              const std::int64_t m_panels = (mc + MR - 1) / MR;
              for (std::int64_t pj = 0; pj < n_panels; ++pj) {
                const int cols = static_cast<int>(
                    std::min<std::int64_t>(NR, nc - pj * NR));
                for (std::int64_t pi = 0; pi < m_panels; ++pi) {
                  const int rows = static_cast<int>(
                      std::min<std::int64_t>(MR, mc - pi * MR));
                  micro_kernel(kc, a_panel.data() + pi * kc * MR,
                               bp + pj * kc * NR,
                               c + (ic + pi * MR) * ldc + jc + pj * NR, ldc,
                               rows, cols);
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

// --- bf16 skinny streaming path --------------------------------------------

#if defined(__GNUC__) || defined(__clang__)

typedef std::uint16_t v8u16 __attribute__((vector_size(16), aligned(2)));
typedef std::uint32_t v8u32 __attribute__((vector_size(32), aligned(4)));

// Widen 8 consecutive bf16 to a float vector (vpmovzxwd + vpslld).
inline v8f widen8(const std::uint16_t* p) {
  v8u16 h;
  std::memcpy(&h, p, sizeof(h));
  const v8u32 w = __builtin_convertvector(h, v8u32) << 16;
  v8f f;
  std::memcpy(&f, &w, sizeof(f));
  return f;
}

// k-direction dot product of two bf16 rows, fp32 accumulation. Reductions
// don't auto-vectorize without -ffast-math, so this is written with two
// explicit 8-wide partial accumulators; the fold order is fixed, so results
// are deterministic.
#if defined(__AVX2__) && defined(__FMA__)

inline float dot_bf16(const std::uint16_t* __restrict a,
                      const std::uint16_t* __restrict b, std::int64_t k) {
  // Widen by unpacking bf16 halfwords into the *high* 16 bits of each 32-bit
  // lane against zeros — exactly the bf16 -> fp32 widening, one shuffle per
  // 8 elements instead of a vpmovzxwd + vpslld pair. The unpack interleaves
  // lanes, but a and b are permuted identically and every lane is summed, so
  // the dot is unaffected. Four FMA chains hide the FMA latency.
  const __m256i zero = _mm256_setzero_si256();
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i av0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + p));
    const __m256i bv0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + p));
    acc0 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, av0)),
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, bv0)), acc0);
    acc1 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, av0)),
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, bv0)), acc1);
    const __m256i av1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + p + 16));
    const __m256i bv1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + p + 16));
    acc2 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, av1)),
        _mm256_castsi256_ps(_mm256_unpacklo_epi16(zero, bv1)), acc2);
    acc3 = _mm256_fmadd_ps(
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, av1)),
        _mm256_castsi256_ps(_mm256_unpackhi_epi16(zero, bv1)), acc3);
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

#else

inline float dot_bf16(const std::uint16_t* __restrict a,
                      const std::uint16_t* __restrict b, std::int64_t k) {
  // Two explicit 8-wide chains; reductions don't auto-vectorize without
  // -ffast-math.
  v8f acc0{}, acc1{};
  std::int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    acc0 += widen8(a + p) * widen8(b + p);
    acc1 += widen8(a + p + 8) * widen8(b + p + 8);
  }
  const v8f vs = acc0 + acc1;
  float acc = ((vs[0] + vs[4]) + (vs[1] + vs[5])) +
              ((vs[2] + vs[6]) + (vs[3] + vs[7]));
  for (; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

#endif

#else

inline float dot_bf16(const std::uint16_t* __restrict a,
                      const std::uint16_t* __restrict b, std::int64_t k) {
  float acc = 0.0f;
  for (std::int64_t p = 0; p < k; ++p) acc += to_f32(a[p]) * to_f32(b[p]);
  return acc;
}

#endif

// Skinny-m bf16 GEMM: stream op(B) in bf16 exactly once, widening on load —
// no packed panel is written or re-read, which is where the ~2x over fp32
// comes from on bandwidth-bound decode shapes. Workers own disjoint column
// ranges, so each C element is produced by exactly one worker in a fixed
// order: bit-identical across thread counts.
void gemm_bf16_skinny(bool trans_b, std::int64_t m, std::int64_t n,
                      std::int64_t k, const std::uint16_t* a, std::int64_t lda,
                      const std::uint16_t* b, std::int64_t ldb, float* c,
                      std::int64_t ldc, const GemmEpilogue& epilogue) {
  // Column chunks: at least ~256K multiply-adds per task, and at least a few
  // cache lines wide so adjacent workers don't split lines of B rows.
  std::int64_t grain = std::max<std::int64_t>(
      32, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, m * k));
  grain = ((grain + 31) / 32) * 32;
  parallel_for_range(
      0, static_cast<std::size_t>(n), static_cast<std::size_t>(grain),
      [&](std::size_t lo_s, std::size_t hi_s) {
        const std::int64_t lo = static_cast<std::int64_t>(lo_s);
        const std::int64_t hi = static_cast<std::int64_t>(hi_s);
        if (!trans_b) {
          for (std::int64_t p = 0; p < k; ++p) {
            const std::uint16_t* __restrict b_row = b + p * ldb;
            for (std::int64_t i = 0; i < m; ++i) {
              const float a_val = to_f32(a[i * lda + p]);
              float* __restrict c_row = c + i * ldc;
              for (std::int64_t j = lo; j < hi; ++j)
                c_row[j] += a_val * to_f32(b_row[j]);
            }
          }
        } else {
          // op(B) row j is B[j, :]: one contiguous k-dot per output. A is at
          // most kGemmSkinnyRows rows and stays cache-hot across all j.
          for (std::int64_t j = lo; j < hi; ++j) {
            const std::uint16_t* __restrict b_row = b + j * ldb;
            for (std::int64_t i = 0; i < m; ++i)
              c[i * ldc + j] += dot_bf16(a + i * lda, b_row, k);
          }
        }
        if (!epilogue.empty())
          apply_epilogue(epilogue, c, ldc, 0, m, lo, hi - lo);
      });
}

// --- int8 path --------------------------------------------------------------
//
// Same MC/KC/NC blocking as the fp32/bf16 driver, but panels are packed as
// int16 with consecutive-k *pairs* interleaved per column/row: element
// (p, j) lands at [p/2][j][p%2]. That is exactly the operand shape of
// AVX2's pmaddwd (_mm256_madd_epi16), which multiplies 16 int16 lanes and
// adds adjacent products into 8 int32 lanes — two k-steps per instruction
// with exact int32 accumulation (int8 products are <= 127^2, so a pair sum
// can never overflow, let alone saturate). The int32 tile accumulates over
// one KC slice, then dequantizes into fp32 C as
// (float(acc) * scale_a) * scale_b[j]; accumulation across KC slices is
// fp32, mirroring the other paths.

// Pack op(B)[pc:pc+kc, j0:j0+nc] as int16 pair panels of NR columns (panel
// stride kc2*NR*2 int16s, kc2 = ceil(kc/2)); ragged columns and the odd
// k-tail are zero-padded.
void pack_b_i8(bool trans_b, const std::int8_t* b, std::int64_t ldb,
               std::int64_t pc, std::int64_t j0, std::int64_t kc,
               std::int64_t nc, std::int16_t* bp) {
  const std::int64_t kc2 = (kc + 1) / 2;
  const std::int64_t panels = (nc + NR - 1) / NR;
  for (std::int64_t pj = 0; pj < panels; ++pj) {
    const std::int64_t jc = j0 + pj * NR;
    const int cols = static_cast<int>(std::min<std::int64_t>(NR, j0 + nc - jc));
    std::int16_t* __restrict dst = bp + pj * kc2 * NR * 2;
    if (cols < NR || (kc & 1) != 0)
      std::memset(dst, 0, sizeof(std::int16_t) * kc2 * NR * 2);
    if (!trans_b) {
      for (std::int64_t p = 0; p < kc; ++p) {
        const std::int8_t* __restrict src = b + (pc + p) * ldb + jc;
        std::int16_t* __restrict row = dst + (p / 2) * NR * 2 + (p & 1);
        for (int jj = 0; jj < cols; ++jj) row[jj * 2] = src[jj];
      }
    } else {
      for (int jj = 0; jj < cols; ++jj) {
        const std::int8_t* __restrict src = b + (jc + jj) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p)
          dst[(p / 2) * NR * 2 + jj * 2 + (p & 1)] = src[p];
      }
    }
  }
}

// Pack A[i0:i0+mc, pc:pc+kc] (never transposed) as int16 pair panels of MR
// rows (panel stride kc2*MR*2 int16s).
void pack_a_i8(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
               std::int64_t pc, std::int64_t mc, std::int64_t kc,
               std::int16_t* ap) {
  const std::int64_t kc2 = (kc + 1) / 2;
  const std::int64_t panels = (mc + MR - 1) / MR;
  for (std::int64_t pi = 0; pi < panels; ++pi) {
    const std::int64_t ic = i0 + pi * MR;
    const int rows = static_cast<int>(std::min<std::int64_t>(MR, i0 + mc - ic));
    std::int16_t* __restrict dst = ap + pi * kc2 * MR * 2;
    if (rows < MR || (kc & 1) != 0)
      std::memset(dst, 0, sizeof(std::int16_t) * kc2 * MR * 2);
    for (int ii = 0; ii < rows; ++ii) {
      const std::int8_t* __restrict src = a + (ic + ii) * lda + pc;
      for (std::int64_t p = 0; p < kc; ++p)
        dst[(p / 2) * MR * 2 + ii * 2 + (p & 1)] = src[p];
    }
  }
}

#if defined(__AVX2__)

// MR x NR rank-kc int8 update with fused dequant. Accumulators are named
// (same scalar-replacement constraint as the fp32 kernel); each pmaddwd
// retires two k-steps for all 8 columns of one half-tile.
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

#else  // portable fallback over the same packed-pair layout

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

#endif

#if defined(__AVX2__)

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

#else

inline std::int32_t dot_i8(const std::int8_t* __restrict a,
                           const std::int8_t* __restrict b, std::int64_t k) {
  std::int32_t acc = 0;
  for (std::int64_t p = 0; p < k; ++p)
    acc += static_cast<std::int32_t>(a[p]) * static_cast<std::int32_t>(b[p]);
  return acc;
}

#endif

// Direct int8 path for matrices under the packing threshold. The int32
// accumulation spans all of k in one go — exact as long as
// k * 127^2 < 2^31, which the threshold guarantees.
void gemm_i8_direct(bool trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, const std::int8_t* __restrict a,
                    std::int64_t lda, const std::int8_t* __restrict b,
                    std::int64_t ldb, float scale_a,
                    const float* __restrict scale_b, float* __restrict c,
                    std::int64_t ldc) {
  if (trans_b) {
    for (std::int64_t i = 0; i < m; ++i) {
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int32_t acc = dot_i8(a + i * lda, b + j * ldb, k);
        c_row[j] += (static_cast<float>(acc) * scale_a) * scale_b[j];
      }
    }
  } else {
    Workspace::Buffer buf =
        Workspace::local().take(static_cast<std::size_t>(n));
    std::int32_t* __restrict acc = reinterpret_cast<std::int32_t*>(buf.data());
    for (std::int64_t i = 0; i < m; ++i) {
      std::memset(acc, 0, sizeof(std::int32_t) * n);
      const std::int8_t* __restrict a_row = a + i * lda;
      for (std::int64_t p = 0; p < k; ++p) {
        const std::int32_t a_val = a_row[p];
        const std::int8_t* __restrict b_row = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j)
          acc[j] += a_val * static_cast<std::int32_t>(b_row[j]);
      }
      float* __restrict c_row = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j)
        c_row[j] += (static_cast<float>(acc[j]) * scale_a) * scale_b[j];
    }
  }
}

// Skinny-m int8 GEMM: stream op(B) once at 1 byte/element (see the bf16
// skinny path for the traffic argument and determinism invariant). Exact
// int32 accumulation over all of k; the caller bounds k so it cannot
// overflow.
void gemm_i8_skinny(bool trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, float scale_a,
                    const float* scale_b, float* c, std::int64_t ldc,
                    const GemmEpilogue& epilogue) {
  std::int64_t grain = std::max<std::int64_t>(
      64, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, m * k));
  grain = ((grain + 63) / 64) * 64;
  parallel_for_range(
      0, static_cast<std::size_t>(n), static_cast<std::size_t>(grain),
      [&](std::size_t lo_s, std::size_t hi_s) {
        const std::int64_t lo = static_cast<std::int64_t>(lo_s);
        const std::int64_t hi = static_cast<std::int64_t>(hi_s);
        if (!trans_b) {
          const std::int64_t width = hi - lo;
          Workspace::Buffer buf = Workspace::local().take(
              static_cast<std::size_t>(m * width));
          std::int32_t* __restrict acc =
              reinterpret_cast<std::int32_t*>(buf.data());
          std::memset(acc, 0, sizeof(std::int32_t) * m * width);
          for (std::int64_t p = 0; p < k; ++p) {
            const std::int8_t* __restrict b_row = b + p * ldb;
            for (std::int64_t i = 0; i < m; ++i) {
              const std::int32_t a_val = a[i * lda + p];
              std::int32_t* __restrict acc_row = acc + i * width;
              for (std::int64_t j = lo; j < hi; ++j)
                acc_row[j - lo] += a_val * static_cast<std::int32_t>(b_row[j]);
            }
          }
          for (std::int64_t i = 0; i < m; ++i) {
            float* __restrict c_row = c + i * ldc;
            const std::int32_t* __restrict acc_row = acc + i * width;
            for (std::int64_t j = lo; j < hi; ++j)
              c_row[j] += (static_cast<float>(acc_row[j - lo]) * scale_a) *
                          scale_b[j];
          }
        } else {
          for (std::int64_t j = lo; j < hi; ++j) {
            const std::int8_t* __restrict b_row = b + j * ldb;
            for (std::int64_t i = 0; i < m; ++i) {
              const std::int32_t acc = dot_i8(a + i * lda, b_row, k);
              c[i * ldc + j] +=
                  (static_cast<float>(acc) * scale_a) * scale_b[j];
            }
          }
        }
        if (!epilogue.empty())
          apply_epilogue(epilogue, c, ldc, 0, m, lo, hi - lo);
      });
}

// Blocked int8 driver: the gemm_impl loop structure with int16 pair panels
// and the pmaddwd micro-kernel. Dequant happens per KC slice inside the
// micro-kernel; the epilogue fires once after the last slice, cache-hot.
void gemm_i8_packed(bool trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, float scale_a,
                    const float* scale_b, float* c, std::int64_t ldc,
                    const GemmEpilogue& epilogue) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, k - pc);
    const std::int64_t kc2 = (kc + 1) / 2;
    const bool last_kc_slice = pc + kc == k;
    for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
      const std::int64_t nc = std::min(kGemmNC, n - jc);
      const std::int64_t n_panels = (nc + NR - 1) / NR;
      // int16 panels live in the float workspace slabs: 2 int16 per float.
      Workspace::Buffer b_panel = Workspace::local().take(
          static_cast<std::size_t>(n_panels * kc2 * NR));
      std::int16_t* bp16 = reinterpret_cast<std::int16_t*>(b_panel.data());
      pack_b_i8(trans_b, b, ldb, pc, jc, kc, nc, bp16);

      std::int64_t grain = std::max<std::int64_t>(
          MR, (4 * kGemmDirectThreshold) / std::max<std::int64_t>(1, nc * kc));
      grain = ((grain + MR - 1) / MR) * MR;
      const std::int16_t* bp = bp16;
      parallel_for_range(
          0, static_cast<std::size_t>(m), static_cast<std::size_t>(grain),
          [&](std::size_t lo, std::size_t hi) {
            const std::int64_t chunk_rows =
                std::min(kGemmMC, static_cast<std::int64_t>(hi - lo));
            Workspace::Buffer a_panel = Workspace::local().take(
                static_cast<std::size_t>(((chunk_rows + MR - 1) / MR) * kc2 *
                                         MR));
            std::int16_t* ap16 =
                reinterpret_cast<std::int16_t*>(a_panel.data());
            for (std::int64_t ic = static_cast<std::int64_t>(lo);
                 ic < static_cast<std::int64_t>(hi); ic += kGemmMC) {
              const std::int64_t mc =
                  std::min(kGemmMC, static_cast<std::int64_t>(hi) - ic);
              pack_a_i8(a, lda, ic, pc, mc, kc, ap16);
              const std::int64_t m_panels = (mc + MR - 1) / MR;
              for (std::int64_t pj = 0; pj < n_panels; ++pj) {
                const int cols = static_cast<int>(
                    std::min<std::int64_t>(NR, nc - pj * NR));
                for (std::int64_t pi = 0; pi < m_panels; ++pi) {
                  const int rows = static_cast<int>(
                      std::min<std::int64_t>(MR, mc - pi * MR));
                  micro_kernel_i8(kc2, ap16 + pi * kc2 * MR * 2,
                                  bp + pj * kc2 * NR * 2,
                                  c + (ic + pi * MR) * ldc + jc + pj * NR, ldc,
                                  rows, cols, scale_a,
                                  scale_b + jc + pj * NR);
                }
              }
              if (last_kc_slice && !epilogue.empty())
                apply_epilogue(epilogue, c, ldc, ic, mc, jc, nc);
            }
          });
    }
  }
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc,
          const GemmEpilogue& epilogue) {
  gemm_impl(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, epilogue);
}

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc) {
  gemm_impl(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, GemmEpilogue{});
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc, const GemmEpilogue& epilogue) {
  if (!trans_a && m > 0 && m <= kGemmSkinnyRows && n > 0 && k > 0 &&
      m * n * k > kGemmDirectThreshold) {
    gemm_bf16_skinny(trans_b, m, n, k, a, lda, b, ldb, c, ldc, epilogue);
    return;
  }
  gemm_impl(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, epilogue);
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc) {
  gemm_bf16(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, GemmEpilogue{});
}

void gemm_i8(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc, const GemmEpilogue& epilogue) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  if (m * n * k <= kGemmDirectThreshold) {
    gemm_i8_direct(trans_b, m, n, k, a, lda, b, ldb, scale_a, scale_b, c, ldc);
    if (!epilogue.empty()) apply_epilogue(epilogue, c, ldc, 0, m, 0, n);
    return;
  }
  // The skinny path accumulates int32 over all of k; cap it where
  // k * 127^2 nears 2^31 (the blocked path slices at KC and has no limit).
  if (m <= kGemmSkinnyRows && k <= (std::int64_t{1} << 17)) {
    gemm_i8_skinny(trans_b, m, n, k, a, lda, b, ldb, scale_a, scale_b, c, ldc,
                   epilogue);
    return;
  }
  gemm_i8_packed(trans_b, m, n, k, a, lda, b, ldb, scale_a, scale_b, c, ldc,
                 epilogue);
}

void gemm_i8(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc) {
  gemm_i8(trans_b, m, n, k, a, lda, b, ldb, scale_a, scale_b, c, ldc,
          GemmEpilogue{});
}

}  // namespace caraml::tensor::detail
