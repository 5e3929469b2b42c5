// One GEMM driver for every operand storage type: C += op(A)·op(B) with
// row-major operands and independent transpose flags, where A and B are fp32
// (gemm), bf16 (gemm_bf16) or symmetric int8 (gemm_i8) and C is always fp32.
// matmul / matmul_nt / matmul_tn, the bf16 matmuls and the fused linear
// layers all come here. One shape dispatch picks the path for every type:
//
//   m <= 0 or n <= 0                    nothing to do
//   k <= 0                              epilogue only
//   m*n*k <= kGemmDirectThreshold       direct register-accumulating loops
//   !trans_a && m <= kGemmSkinnyRows    skinny: stream op(B) once, column-
//     (int8 also needs k <= 2^17)       parallel, widening on load
//   otherwise                           packed, three-level cache blocking
//                                       (BLIS/GotoBLAS structure):
//
//   for each KC slice of k:            (B slice stays in L2)
//     for each NC slice of n:
//       pack op(B) into NR-wide column panels   (contiguous, zero-padded)
//       parallel over rows:                     (grain-aware chunks)
//         for each MC slice of the chunk:
//           pack op(A) into MR-wide row panels  (per-thread workspace)
//           MR x NR micro-kernel: rank-KC update accumulated in registers
//
// The storage types differ only in how an element is widened, the packed
// panel type (fp32 panels for fp32/bf16; int16 k-pair panels for int8's
// pmaddwd kernel), the micro-kernel and dot kernel, and the accumulator
// (fp32 in place in C, or exact int32 then dequantized). Packing makes the
// micro-kernel's loads contiguous and transpose-agnostic; accumulators live
// in registers for the whole KC depth. Panels come from the per-thread
// Workspace, so steady-state training reuses the same slabs every step.
#pragma once

#include <cstdint>

namespace caraml::tensor::detail {

// Register tile (micro-kernel footprint) and cache blocking. 6x16 fills the
// 16 AVX2 ymm registers (12 accumulators + B row + A broadcast); KC keeps an
// A panel pair in L1/L2, NC bounds the packed B panel to ~L2.
inline constexpr int kGemmMR = 6;
inline constexpr int kGemmNR = 16;
inline constexpr std::int64_t kGemmMC = 72;    // multiple of kGemmMR
inline constexpr std::int64_t kGemmKC = 256;
inline constexpr std::int64_t kGemmNC = 1024;  // multiple of kGemmNR

// Below this many multiply-adds (m*n*k) the packed path's overhead is not
// worth it and a direct register-accumulating loop runs instead.
inline constexpr std::int64_t kGemmDirectThreshold = 32 * 32 * 32;

// Row count at or below which a non-transposed-A GEMM streams op(B)
// directly (widen/dequant on load, no packing): with so few rows the packed
// path writes and re-reads an op(B)-sized panel, doubling the traffic that
// dominates these bandwidth-bound shapes, and its row-parallel split yields
// at most two MR chunks.
inline constexpr std::int64_t kGemmSkinnyRows = 2 * kGemmMR;

/// Elementwise post-processing fused into the GEMM write-back.
///
/// Each C element is transformed exactly once, immediately after its final
/// KC-slice accumulation, while the row chunk is still cache-hot — no extra
/// pass over C. Application order per element:
///
///   v  = C[i][j] + bias[j]            (bias may be null)
///   pre_activation[i][j] = v          (optional post-bias capture — what a
///                                      GELU backward needs)
///   v  = gelu(v)                      (when gelu is set)
///   v *= dropout_mask[i][j]           (scaled keep-mask, may be null)
///   C[i][j] = v
///
/// pre_activation and dropout_mask are row-major [m, n] with row stride ldc
/// (callers pass dense outputs, so ldc == n in practice). The epilogue is
/// applied even for degenerate k <= 0 (C holds its initial value, usually 0).
struct GemmEpilogue {
  const float* bias = nullptr;          // [n], added to every row
  bool gelu = false;                    // tanh-GELU after the bias
  const float* dropout_mask = nullptr;  // [m, n], multiplied last
  float* pre_activation = nullptr;      // [m, n], receives the post-bias value

  bool empty() const {
    return bias == nullptr && !gelu && dropout_mask == nullptr &&
           pre_activation == nullptr;
  }
};

/// C[m,n] += op(A)·op(B), then the epilogue (see GemmEpilogue).
///
/// op(A) is A[m,k] when !trans_a, else A is stored [k,m] and used transposed;
/// op(B) is B[k,n] when !trans_b, else B is stored [n,k] and used transposed.
/// lda/ldb/ldc are row strides of the *stored* matrices. C must be
/// initialized by the caller (the kernel accumulates; the epilogue transforms
/// the fully accumulated values). trans_a && trans_b is unsupported (no
/// caller needs it).
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc,
          const GemmEpilogue& epilogue = {});

/// bf16 GEMM: A and B are stored as bf16 (the top 16 bits of a binary32, see
/// dtype.hpp) and widened to fp32 on load or pack, so all accumulation runs
/// in full precision while A/B memory traffic is halved. Semantics otherwise
/// identical to the fp32 gemm; on bf16-representable inputs the two give the
/// same bits.
void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::uint16_t* a, std::int64_t lda,
               const std::uint16_t* b, std::int64_t ldb, float* c,
               std::int64_t ldc, const GemmEpilogue& epilogue = {});

/// int8 inference GEMM with fused dequantization:
///
///   C[i,j] += (float(sum_p qa[i,p] * qb(p,j)) * scale_a) * scale_b[j]
///
/// qa/qb are symmetric int8 quantized operands (see quant.hpp): scale_a is
/// the per-tensor activation scale, scale_b the per-output-channel weight
/// scales ([n]; pass a broadcast array for per-tensor weights). The integer
/// product accumulates exactly in int32 per KC slice (safe for k <= 2^17:
/// pair sums of 127*127 products stay far below 2^31), then dequantizes into
/// fp32 C, so across-slice accumulation is fp32 just like the other paths.
/// The epilogue composes unchanged on the dequantized values. A is never
/// transposed (activations are row-major in every inference call site).
void gemm_i8(bool trans_b, std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
             std::int64_t ldb, float scale_a, const float* scale_b, float* c,
             std::int64_t ldc, const GemmEpilogue& epilogue = {});

}  // namespace caraml::tensor::detail
