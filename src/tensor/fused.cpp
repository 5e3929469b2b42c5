#include "tensor/fused.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/activations.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::tensor::fused {

namespace {

using detail::fast_exp;

// Stage one head's rows from the packed qkv (row stride `stride`, 3C) into a
// contiguous [time, head_dim] scratch. The tile GEMMs re-read K and V once
// per query block; contiguous panels keep that working set at
// time * head_dim floats instead of smearing each 128-byte head row across a
// 3C-strided, page-spanning footprint.
void stage_head(const float* src, std::int64_t time, std::int64_t head_dim,
                std::int64_t stride, float* dst) {
  for (std::int64_t t = 0; t < time; ++t) {
    const float* __restrict row = src + t * stride;
    float* __restrict out = dst + t * head_dim;
    for (std::int64_t c = 0; c < head_dim; ++c) out[c] = row[c];
  }
}

// Per-(b, h) forward over one head's staged Q/K/V. Processes one query block
// at a time: causality bounds the live key range to [0, i0 + br), so a single
// QK^T gemm over that prefix, an exact softmax over each row's live columns,
// and a single P·V gemm produce the block's output. Scratch stays at
// O(block · time) per thread — the full [T, T] score matrix is never held.
// Query blocks run in a fixed order, so the result does not depend on how
// (b, h) pairs were distributed over threads.
void attention_head_forward(const float* q_base, const float* k_base,
                            const float* v_base, std::int64_t time,
                            std::int64_t head_dim, std::int64_t qkv_stride,
                            float scale, float* out_base,
                            std::int64_t out_stride, float* lse_row) {
  constexpr std::int64_t block = kAttentionBlock;
  Workspace& ws = Workspace::local();
  const std::size_t panel = static_cast<std::size_t>(time * head_dim);
  Workspace::Buffer q_buf = ws.take(panel);
  Workspace::Buffer k_buf = ws.take(panel);
  Workspace::Buffer v_buf = ws.take(panel);
  Workspace::Buffer s_buf = ws.take(static_cast<std::size_t>(block * time));
  Workspace::Buffer acc_buf =
      ws.take(static_cast<std::size_t>(block * head_dim));
  float* __restrict q = q_buf.data();
  float* __restrict kk = k_buf.data();
  float* __restrict v = v_buf.data();
  float* __restrict s = s_buf.data();
  float* __restrict acc = acc_buf.data();
  stage_head(q_base, time, head_dim, qkv_stride, q);
  stage_head(k_base, time, head_dim, qkv_stride, kk);
  stage_head(v_base, time, head_dim, qkv_stride, v);

  for (std::int64_t i0 = 0; i0 < time; i0 += block) {
    const std::int64_t br = std::min(block, time - i0);
    // No row in this block attends past i0 + br - 1; keys beyond that are
    // skipped outright (~half the QK^T and P·V flops of the dense path).
    const std::int64_t jext = i0 + br;

    // S = Q_i · K^T over the live key prefix.
    std::fill_n(s, br * jext, 0.0f);
    detail::gemm(false, true, br, jext, head_dim, q + i0 * head_dim, head_dim,
                 kk, head_dim, s, jext);

    for (std::int64_t r = 0; r < br; ++r) {
      const std::int64_t qi = i0 + r;
      float* __restrict s_row = s + r * jext;
      // Masked slots (j > i) are set to exact zero probability without ever
      // being exponentiated — this also erases any NaN they carried. A NaN
      // at an unmasked slot is skipped by std::max (comparisons with NaN are
      // false) but survives exp() and poisons the whole row through the
      // normalizer.
      float row_max = -std::numeric_limits<float>::infinity();
      for (std::int64_t cdx = 0; cdx <= qi; ++cdx) {
        s_row[cdx] *= scale;
        row_max = std::max(row_max, s_row[cdx]);
      }
      // exp and sum run as separate passes: the exp loop carries no loop
      // dependence, so it vectorizes; the float sum reduction would block it.
      for (std::int64_t cdx = 0; cdx <= qi; ++cdx) {
        s_row[cdx] = fast_exp(s_row[cdx] - row_max);
      }
      float l = 0.0f;
      for (std::int64_t cdx = 0; cdx <= qi; ++cdx) l += s_row[cdx];
      const float inv = 1.0f / l;
      for (std::int64_t cdx = 0; cdx <= qi; ++cdx) s_row[cdx] *= inv;
      for (std::int64_t cdx = qi + 1; cdx < jext; ++cdx) s_row[cdx] = 0.0f;
      lse_row[qi] = row_max + std::log(l);
    }

    // O_i = P · V over the same prefix, then scatter into the strided slice.
    std::fill_n(acc, br * head_dim, 0.0f);
    detail::gemm(false, false, br, head_dim, jext, s, jext, v, head_dim, acc,
                 head_dim);
    for (std::int64_t r = 0; r < br; ++r) {
      const float* __restrict acc_row = acc + r * head_dim;
      float* __restrict dst = out_base + (i0 + r) * out_stride;
      for (std::int64_t c = 0; c < head_dim; ++c) dst[c] = acc_row[c];
    }
  }
}

// Per-(b, h) backward: recompute each query block's score prefix from the
// staged Q/K, rebuild the attention probabilities via the saved lse, and
// gemm-accumulate dQ/dK/dV into contiguous per-head panels that are
// scatter-added into the (disjoint) strided slices of d_qkv at the end.
void attention_head_backward(const float* q_base, const float* k_base,
                             const float* v_base, const float* out_base,
                             const float* dout_base, const float* lse_row,
                             std::int64_t time, std::int64_t head_dim,
                             std::int64_t qkv_stride, std::int64_t out_stride,
                             float scale, float* dq_base, float* dk_base,
                             float* dv_base) {
  constexpr std::int64_t block = kAttentionBlock;
  Workspace& ws = Workspace::local();
  const std::size_t panel = static_cast<std::size_t>(time * head_dim);
  Workspace::Buffer q_buf = ws.take(panel);
  Workspace::Buffer k_buf = ws.take(panel);
  Workspace::Buffer v_buf = ws.take(panel);
  Workspace::Buffer dout_buf = ws.take(panel);
  Workspace::Buffer dq_buf = ws.take_zeroed(panel);
  Workspace::Buffer dk_buf = ws.take_zeroed(panel);
  Workspace::Buffer dv_buf = ws.take_zeroed(panel);
  Workspace::Buffer s_buf = ws.take(static_cast<std::size_t>(block * time));
  Workspace::Buffer dp_buf = ws.take(static_cast<std::size_t>(block * time));
  Workspace::Buffer d_buf = ws.take(static_cast<std::size_t>(time));
  float* __restrict q = q_buf.data();
  float* __restrict kk = k_buf.data();
  float* __restrict v = v_buf.data();
  float* __restrict dout = dout_buf.data();
  float* __restrict dq = dq_buf.data();
  float* __restrict dk = dk_buf.data();
  float* __restrict dv = dv_buf.data();
  float* __restrict s = s_buf.data();
  float* __restrict dp = dp_buf.data();
  float* __restrict d_row = d_buf.data();
  stage_head(q_base, time, head_dim, qkv_stride, q);
  stage_head(k_base, time, head_dim, qkv_stride, kk);
  stage_head(v_base, time, head_dim, qkv_stride, v);
  stage_head(dout_base, time, head_dim, out_stride, dout);

  // D_i = rowsum(dO ∘ O) — the softmax-backward inner product, recoverable
  // from the forward output without any stored attention matrix.
  for (std::int64_t i = 0; i < time; ++i) {
    const float* __restrict o = out_base + i * out_stride;
    const float* __restrict go = dout + i * head_dim;
    float acc = 0.0f;
    for (std::int64_t c = 0; c < head_dim; ++c) acc += go[c] * o[c];
    d_row[i] = acc;
  }

  for (std::int64_t i0 = 0; i0 < time; i0 += block) {
    const std::int64_t br = std::min(block, time - i0);
    const std::int64_t jext = i0 + br;  // live key prefix for this block
    const float* dout_i = dout + i0 * head_dim;

    // Recompute P = exp(scale·QK^T - lse) over the prefix; masked slots are
    // exact zeros (never exponentiated, so a masked NaN is erased here too).
    std::fill_n(s, br * jext, 0.0f);
    detail::gemm(false, true, br, jext, head_dim, q + i0 * head_dim, head_dim,
                 kk, head_dim, s, jext);
    for (std::int64_t r = 0; r < br; ++r) {
      const std::int64_t qi = i0 + r;
      const float lse = lse_row[qi];
      float* __restrict s_row = s + r * jext;
      for (std::int64_t cdx = 0; cdx <= qi; ++cdx) {
        s_row[cdx] = fast_exp(s_row[cdx] * scale - lse);
      }
      for (std::int64_t cdx = qi + 1; cdx < jext; ++cdx) s_row[cdx] = 0.0f;
    }

    // dV += P^T · dO_i.
    detail::gemm(true, false, jext, head_dim, br, s, jext, dout_i, head_dim,
                 dv, head_dim);

    // dP = dO_i · V^T over the prefix.
    std::fill_n(dp, br * jext, 0.0f);
    detail::gemm(false, true, br, jext, head_dim, dout_i, head_dim, v,
                 head_dim, dp, jext);

    // dS = P ∘ (dP - D) · scale, built in place over P.
    for (std::int64_t r = 0; r < br; ++r) {
      const float d = d_row[i0 + r];
      float* __restrict s_row = s + r * jext;
      const float* __restrict dp_row = dp + r * jext;
      for (std::int64_t cdx = 0; cdx < jext; ++cdx) {
        s_row[cdx] *= (dp_row[cdx] - d) * scale;
      }
    }

    // dQ_i += dS · K ; dK += dS^T · Q_i.
    detail::gemm(false, false, br, head_dim, jext, s, jext, kk, head_dim,
                 dq + i0 * head_dim, head_dim);
    detail::gemm(true, false, jext, head_dim, br, s, jext, q + i0 * head_dim,
                 head_dim, dk, head_dim);
  }

  // Scatter the contiguous accumulators back into the strided d_qkv slices.
  // The caller accumulates (+=), so add rather than overwrite.
  for (std::int64_t t = 0; t < time; ++t) {
    float* __restrict dst_q = dq_base + t * qkv_stride;
    float* __restrict dst_k = dk_base + t * qkv_stride;
    float* __restrict dst_v = dv_base + t * qkv_stride;
    const float* __restrict src_q = dq + t * head_dim;
    const float* __restrict src_k = dk + t * head_dim;
    const float* __restrict src_v = dv + t * head_dim;
    for (std::int64_t c = 0; c < head_dim; ++c) {
      dst_q[c] += src_q[c];
      dst_k[c] += src_k[c];
      dst_v[c] += src_v[c];
    }
  }
}

void check_attention_args(std::int64_t batch, std::int64_t time,
                          std::int64_t embed, std::int64_t num_heads,
                          const char* what) {
  CARAML_CHECK_MSG(batch > 0 && time > 0 && num_heads > 0,
                   std::string(what) + ": dimensions must be positive");
  CARAML_CHECK_MSG(embed % num_heads == 0,
                   std::string(what) +
                       ": embed_dim must be divisible by num_heads");
}

}  // namespace

void causal_attention_forward(const float* qkv, std::int64_t batch,
                              std::int64_t time, std::int64_t embed,
                              std::int64_t num_heads, float* heads_out,
                              float* lse) {
  check_attention_args(batch, time, embed, num_heads,
                       "causal_attention_forward");
  const std::int64_t head_dim = embed / num_heads;
  const std::int64_t qkv_stride = 3 * embed;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  caraml::parallel_for_range(
      0, static_cast<std::size_t>(batch * num_heads), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b = static_cast<std::int64_t>(idx) / num_heads;
          const std::int64_t h = static_cast<std::int64_t>(idx) % num_heads;
          const float* head_qkv =
              qkv + b * time * qkv_stride + h * head_dim;
          attention_head_forward(
              head_qkv, head_qkv + embed, head_qkv + 2 * embed, time, head_dim,
              qkv_stride, scale, heads_out + b * time * embed + h * head_dim,
              embed, lse + static_cast<std::int64_t>(idx) * time);
        }
      });
}

void causal_attention_backward(const float* qkv, const float* heads_out,
                               const float* d_heads, const float* lse,
                               std::int64_t batch, std::int64_t time,
                               std::int64_t embed, std::int64_t num_heads,
                               float* d_qkv) {
  check_attention_args(batch, time, embed, num_heads,
                       "causal_attention_backward");
  const std::int64_t head_dim = embed / num_heads;
  const std::int64_t qkv_stride = 3 * embed;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  caraml::parallel_for_range(
      0, static_cast<std::size_t>(batch * num_heads), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b = static_cast<std::int64_t>(idx) / num_heads;
          const std::int64_t h = static_cast<std::int64_t>(idx) % num_heads;
          const float* head_qkv =
              qkv + b * time * qkv_stride + h * head_dim;
          float* head_d_qkv =
              d_qkv + b * time * qkv_stride + h * head_dim;
          const std::int64_t out_off = b * time * embed + h * head_dim;
          attention_head_backward(
              head_qkv, head_qkv + embed, head_qkv + 2 * embed,
              heads_out + out_off, d_heads + out_off,
              lse + static_cast<std::int64_t>(idx) * time, time, head_dim,
              qkv_stride, embed, scale, head_d_qkv, head_d_qkv + embed,
              head_d_qkv + 2 * embed);
        }
      });
}

namespace {

// The validation all three storage types share: operand shapes, bias and
// epilogue buffers. Returns the GEMM epilogue for an [rows, out_dim] output.
detail::GemmEpilogue gemm_epilogue(std::int64_t rows, std::int64_t x_in,
                                   std::int64_t out_dim, std::int64_t w_in,
                                   const Tensor* bias,
                                   const LinearEpilogue& epilogue) {
  CARAML_CHECK_MSG(x_in == w_in, "fused::linear: inner dimension mismatch " +
                                     std::to_string(x_in) + " vs " +
                                     std::to_string(w_in));
  detail::GemmEpilogue out;
  if (bias != nullptr) {
    CARAML_CHECK_MSG(bias->numel() == out_dim,
                     "fused::linear: bias size mismatch");
    out.bias = bias->data();
  }
  out.gelu = epilogue.gelu;
  if (epilogue.pre != nullptr) {
    *epilogue.pre = Tensor({rows, out_dim});
    out.pre_activation = epilogue.pre->data();
  }
  if (const Tensor* mask = epilogue.dropout_mask; mask != nullptr) {
    CARAML_CHECK_MSG(mask->rank() == 2 && mask->dim(0) == rows &&
                         mask->dim(1) == out_dim,
                     "fused::linear: mask shape " +
                         shape_to_string(mask->shape()) + " must be [" +
                         std::to_string(rows) + ", " +
                         std::to_string(out_dim) + "]");
    out.dropout_mask = mask->data();
  }
  return out;
}

}  // namespace

Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias,
              const LinearEpilogue& epilogue) {
  CARAML_CHECK_MSG(x.rank() == 2 && w.rank() == 2,
                   "fused::linear: operands must be rank 2");
  const std::int64_t rows = x.dim(0), in = x.dim(1), out_dim = w.dim(0);
  const detail::GemmEpilogue gemm_ep =
      gemm_epilogue(rows, in, out_dim, w.dim(1), bias, epilogue);
  Tensor out({rows, out_dim});
  detail::gemm(false, true, rows, out_dim, in, x.data(), in, w.data(), in,
               out.data(), out_dim, gemm_ep);
  return out;
}

Tensor linear(const Bf16Tensor& x, const Bf16Tensor& w, const Tensor* bias,
              const LinearEpilogue& epilogue) {
  CARAML_CHECK_MSG(x.rank() == 2 && w.rank() == 2,
                   "fused::linear: operands must be rank 2");
  const std::int64_t rows = x.dim(0), in = x.dim(1), out_dim = w.dim(0);
  const detail::GemmEpilogue gemm_ep =
      gemm_epilogue(rows, in, out_dim, w.dim(1), bias, epilogue);
  Tensor out({rows, out_dim});
  detail::gemm_bf16(false, true, rows, out_dim, in, x.data(), in, w.data(),
                    in, out.data(), out_dim, gemm_ep);
  return out;
}

Tensor linear(const QuantizedTensor& x, const QuantizedTensor& w,
              const Tensor* bias, const LinearEpilogue& epilogue) {
  CARAML_CHECK_MSG(x.shape.size() == 2 && w.shape.size() == 2,
                   "fused::linear: operands must be rank 2");
  CARAML_CHECK_MSG(!x.per_channel(),
                   "fused::linear: int8 activations must be per-tensor");
  CARAML_CHECK_MSG(w.per_channel() &&
                       w.scales.size() == static_cast<std::size_t>(w.rows()),
                   "fused::linear: int8 weights must be per-channel rows");
  CARAML_CHECK_MSG(epilogue.dropout_mask == nullptr,
                   "fused::linear: int8 is inference-only; no dropout");
  const std::int64_t rows = x.rows(), in = x.cols(), out_dim = w.rows();
  const detail::GemmEpilogue gemm_ep =
      gemm_epilogue(rows, in, out_dim, w.cols(), bias, epilogue);
  Tensor out({rows, out_dim});
  detail::gemm_i8(true, rows, out_dim, in, x.data.data(), in, w.data.data(),
                  in, x.scales[0], w.scales.data(), out.data(), out_dim,
                  gemm_ep);
  return out;
}

}  // namespace caraml::tensor::fused
