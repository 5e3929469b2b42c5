// fp64 oracle for causal self-attention over a packed QKV projection.
//
// It recomputes attention per (b, h) in double precision straight from the
// definition (masked softmax over j <= i), reading the [B*T, 3C] [Q | K | V]
// layout tensor::fused::causal_attention_{forward,backward} consume. Shared
// by the kernel tests and the CausalSelfAttention module tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/tensor.hpp"

namespace caraml::tensor {

struct AttentionShape {
  std::int64_t batch, heads, time, embed;
};

inline Tensor naive_causal_attention(const Tensor& qkv,
                                     const AttentionShape& s) {
  const std::int64_t hd = s.embed / s.heads;
  const std::int64_t stride = 3 * s.embed;
  const double scale = 1.0 / std::sqrt(static_cast<double>(hd));
  Tensor out({s.batch * s.time, s.embed});
  for (std::int64_t b = 0; b < s.batch; ++b) {
    for (std::int64_t h = 0; h < s.heads; ++h) {
      const float* base = qkv.data() + b * s.time * stride + h * hd;
      for (std::int64_t i = 0; i < s.time; ++i) {
        std::vector<double> scores(static_cast<std::size_t>(i + 1));
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j <= i; ++j) {
          double acc = 0.0;
          for (std::int64_t c = 0; c < hd; ++c) {
            acc += static_cast<double>(base[i * stride + c]) *
                   base[j * stride + s.embed + c];
          }
          scores[static_cast<std::size_t>(j)] = acc * scale;
          mx = std::max(mx, acc * scale);
        }
        double total = 0.0;
        for (double& v : scores) {
          v = std::exp(v - mx);
          total += v;
        }
        float* dst = out.data() + (b * s.time + i) * s.embed + h * hd;
        for (std::int64_t c = 0; c < hd; ++c) {
          double acc = 0.0;
          for (std::int64_t j = 0; j <= i; ++j) {
            acc += scores[static_cast<std::size_t>(j)] / total *
                   base[j * stride + 2 * s.embed + c];
          }
          dst[c] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

// Oracle backward: recompute att per (b, h) in double, then the chain
// datt = dO·V^T, dv = att^T·dO, ds = att ∘ (datt - rowdot(att, datt)) · scale
// (masked entries zero), dq = ds·K, dk = ds^T·Q, accumulated into d_qkv.
inline Tensor naive_causal_attention_backward(const Tensor& qkv,
                                              const Tensor& d_heads,
                                              const AttentionShape& s) {
  const std::int64_t hd = s.embed / s.heads;
  const std::int64_t stride = 3 * s.embed;
  const double scale = 1.0 / std::sqrt(static_cast<double>(hd));
  Tensor d_qkv({s.batch * s.time, 3 * s.embed});
  for (std::int64_t b = 0; b < s.batch; ++b) {
    for (std::int64_t h = 0; h < s.heads; ++h) {
      const float* base = qkv.data() + b * s.time * stride + h * hd;
      float* d_base = d_qkv.data() + b * s.time * stride + h * hd;
      const auto at = [&](const std::int64_t which, std::int64_t t,
                          std::int64_t c) {
        return static_cast<double>(base[t * stride + which * s.embed + c]);
      };
      std::vector<double> att(static_cast<std::size_t>(s.time * s.time), 0.0);
      for (std::int64_t i = 0; i < s.time; ++i) {
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j <= i; ++j) {
          double acc = 0.0;
          for (std::int64_t c = 0; c < hd; ++c) acc += at(0, i, c) * at(1, j, c);
          att[static_cast<std::size_t>(i * s.time + j)] = acc * scale;
          mx = std::max(mx, acc * scale);
        }
        double total = 0.0;
        for (std::int64_t j = 0; j <= i; ++j) {
          double& v = att[static_cast<std::size_t>(i * s.time + j)];
          v = std::exp(v - mx);
          total += v;
        }
        for (std::int64_t j = 0; j <= i; ++j) {
          att[static_cast<std::size_t>(i * s.time + j)] /= total;
        }
      }
      const auto d_out = [&](std::int64_t t, std::int64_t c) {
        return static_cast<double>(
            d_heads[(b * s.time + t) * s.embed + h * hd + c]);
      };
      for (std::int64_t i = 0; i < s.time; ++i) {
        // datt row + softmax backward row.
        std::vector<double> ds(static_cast<std::size_t>(i + 1));
        double row_dot = 0.0;
        for (std::int64_t j = 0; j <= i; ++j) {
          double acc = 0.0;
          for (std::int64_t c = 0; c < hd; ++c) acc += d_out(i, c) * at(2, j, c);
          ds[static_cast<std::size_t>(j)] = acc;
          row_dot += att[static_cast<std::size_t>(i * s.time + j)] * acc;
        }
        for (std::int64_t j = 0; j <= i; ++j) {
          const double a = att[static_cast<std::size_t>(i * s.time + j)];
          const double d_score =
              a * (ds[static_cast<std::size_t>(j)] - row_dot) * scale;
          for (std::int64_t c = 0; c < hd; ++c) {
            // dq[i] += d_score * k[j]; dk[j] += d_score * q[i];
            // dv[j] += att * dO[i]
            d_base[i * stride + c] +=
                static_cast<float>(d_score * at(1, j, c));
            d_base[j * stride + s.embed + c] +=
                static_cast<float>(d_score * at(0, i, c));
            d_base[j * stride + 2 * s.embed + c] +=
                static_cast<float>(a * d_out(i, c));
          }
        }
      }
    }
  }
  return d_qkv;
}

}  // namespace caraml::tensor
