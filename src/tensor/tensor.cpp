#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/activations.hpp"
#include "tensor/gemm.hpp"
#include "tensor/workspace.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::tensor {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    CARAML_CHECK_MSG(d >= 0, "negative dimension in shape");
    n *= d;
  }
  return n;
}

namespace {

// Minimum elements per parallel chunk: below this, dispatch overhead beats
// the win. Elementwise kernels run serial until 2x the grain.
constexpr std::int64_t kElementwiseGrain = 1 << 14;

// Run body(lo, hi) over [0, n), in parallel chunks when n is large enough.
template <typename F>
void for_each_span(std::int64_t n, F&& body) {
  if (n >= 2 * kElementwiseGrain) {
    parallel_for_range(0, static_cast<std::size_t>(n),
                       static_cast<std::size_t>(kElementwiseGrain),
                       [&body](std::size_t lo, std::size_t hi) {
                         body(static_cast<std::int64_t>(lo),
                              static_cast<std::int64_t>(hi));
                       });
  } else {
    body(0, n);
  }
}

// Row-count grain targeting ~kElementwiseGrain elements per chunk.
std::int64_t row_grain(std::int64_t cols) {
  return std::max<std::int64_t>(1,
                                kElementwiseGrain / std::max<std::int64_t>(1, cols));
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)) {
  data_.assign(static_cast<std::size_t>(numel_), 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)),
      data_(std::move(data)) {
  CARAML_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == numel_,
                   "data size does not match shape " + shape_to_string(shape_));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) t.data_[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

std::int64_t Tensor::dim(std::size_t i) const {
  CARAML_CHECK_MSG(i < shape_.size(), "dim index out of range");
  return shape_[i];
}

float& Tensor::at(std::initializer_list<std::int64_t> index) {
  CARAML_CHECK_MSG(index.size() == shape_.size(), "index rank mismatch");
  std::int64_t flat = 0;
  std::size_t d = 0;
  for (std::int64_t i : index) {
    CARAML_CHECK_MSG(i >= 0 && i < shape_[d], "index out of range");
    flat = flat * shape_[d] + i;
    ++d;
  }
  return data_[static_cast<std::size_t>(flat)];
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return const_cast<Tensor*>(this)->at(index);
}

Tensor Tensor::reshape(Shape new_shape) const {
  CARAML_CHECK_MSG(shape_numel(new_shape) == numel_,
                   "reshape numel mismatch: " + shape_to_string(shape_) +
                       " -> " + shape_to_string(new_shape));
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::transpose2d() const {
  CARAML_CHECK_MSG(rank() == 2, "transpose2d needs a 2-D tensor");
  const std::int64_t rows = shape_[0];
  const std::int64_t cols = shape_[1];
  Tensor out({cols, rows});
  const float* __restrict src = data();
  float* __restrict dst = out.data();
  for_each_span(rows, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        dst[c * rows + r] = src[r * cols + c];
      }
    }
  });
  return out;
}

// --- elementwise -----------------------------------------------------------

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  CARAML_CHECK_MSG(a.shape() == b.shape(),
                   std::string(op) + ": shape mismatch " +
                       shape_to_string(a.shape()) + " vs " +
                       shape_to_string(b.shape()));
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pa[i] + pb[i];
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pa[i] - pb[i];
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pa[i] * pb[i];
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pa[i] * s;
  });
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void axpy(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy");
  float* __restrict py = y.data();
  const float* __restrict px = x.data();
  for_each_span(y.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) py[i] += alpha * px[i];
  });
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  });
  return out;
}

Tensor relu_backward(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "relu_backward");
  Tensor out(x.shape());
  const float* __restrict px = x.data();
  const float* __restrict pg = grad_out.data();
  float* __restrict po = out.data();
  for_each_span(x.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      po[i] = px[i] > 0.0f ? pg[i] : 0.0f;
    }
  });
  return out;
}

using detail::gelu_grad_scalar;
using detail::gelu_scalar;

Tensor gelu(const Tensor& a) {
  Tensor out(a.shape());
  const float* __restrict pa = a.data();
  float* __restrict po = out.data();
  for_each_span(a.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = gelu_scalar(pa[i]);
  });
  return out;
}

Tensor gelu_backward(const Tensor& x, const Tensor& grad_out) {
  check_same_shape(x, grad_out, "gelu_backward");
  Tensor out(x.shape());
  const float* __restrict px = x.data();
  const float* __restrict pg = grad_out.data();
  float* __restrict po = out.data();
  for_each_span(x.numel(), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      po[i] = pg[i] * gelu_grad_scalar(px[i]);
    }
  });
  return out;
}

// --- reductions ------------------------------------------------------------

float sum(const Tensor& a) {
  double total = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) total += a[i];
  return static_cast<float>(total);
}

float mean(const Tensor& a) {
  CARAML_CHECK_MSG(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  float best = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    best = std::max(best, std::fabs(a[i]));
  }
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  CARAML_CHECK_MSG(a.rank() == 2, "argmax_rows needs a 2-D tensor");
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t best = 0;
    float best_value = a[r * cols];
    for (std::int64_t c = 1; c < cols; ++c) {
      const float v = a[r * cols + c];
      if (v > best_value) {
        best_value = v;
        best = c;
      }
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

// --- GEMM ------------------------------------------------------------------
//
// All three variants are thin shims over the shared blocked/packed kernel in
// tensor/gemm.cpp; the transpose flags select the packing order, so no
// operand is ever materialized transposed.

Tensor matmul(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul needs 2-D tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CARAML_CHECK_MSG(b.dim(0) == k,
                   "matmul inner dimension mismatch: " +
                       shape_to_string(a.shape()) + " x " +
                       shape_to_string(b.shape()));
  Tensor c({m, n});
  detail::gemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul_nt needs 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  CARAML_CHECK_MSG(b.dim(1) == k, "matmul_nt inner dimension mismatch");
  Tensor c({m, n});
  detail::gemm(false, true, m, n, k, a.data(), k, b.data(), k, c.data(), n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CARAML_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "matmul_tn needs 2-D");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  CARAML_CHECK_MSG(b.dim(0) == k, "matmul_tn inner dimension mismatch");
  Tensor c({m, n});
  detail::gemm(true, false, m, n, k, a.data(), m, b.data(), n, c.data(), n);
  return c;
}

// --- softmax ---------------------------------------------------------------

Tensor softmax_rows(const Tensor& a) {
  CARAML_CHECK_MSG(a.rank() == 2, "softmax_rows needs a 2-D tensor");
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  // A zero-column row has no max to seed the stable reduction (reading
  // in_row[0] would be out of bounds) and no well-defined softmax.
  CARAML_CHECK_MSG(cols > 0, "softmax_rows: zero-column input " +
                                 shape_to_string(a.shape()) +
                                 " has no defined softmax");
  Tensor out(a.shape());
  const float* __restrict src = a.data();
  float* __restrict dst = out.data();
  parallel_for_range(
      0, static_cast<std::size_t>(rows),
      static_cast<std::size_t>(row_grain(cols)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* __restrict in_row =
              src + static_cast<std::int64_t>(r) * cols;
          float* __restrict out_row =
              dst + static_cast<std::int64_t>(r) * cols;
          float max_value = in_row[0];
          for (std::int64_t c = 1; c < cols; ++c) {
            max_value = std::max(max_value, in_row[c]);
          }
          double total = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            out_row[c] = std::exp(in_row[c] - max_value);
            total += out_row[c];
          }
          const float inv = static_cast<float>(1.0 / total);
          for (std::int64_t c = 0; c < cols; ++c) out_row[c] *= inv;
        }
      });
  return out;
}

Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_out) {
  check_same_shape(y, grad_out, "softmax_rows_backward");
  CARAML_CHECK_MSG(y.rank() == 2, "softmax_rows_backward needs 2-D");
  const std::int64_t rows = y.dim(0), cols = y.dim(1);
  CARAML_CHECK_MSG(cols > 0, "softmax_rows_backward: zero-column input " +
                                 shape_to_string(y.shape()) +
                                 " has no defined softmax");
  Tensor out(y.shape());
  const float* __restrict py = y.data();
  const float* __restrict pg = grad_out.data();
  float* __restrict po = out.data();
  parallel_for_range(
      0, static_cast<std::size_t>(rows),
      static_cast<std::size_t>(row_grain(cols)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const float* __restrict y_row =
              py + static_cast<std::int64_t>(r) * cols;
          const float* __restrict g_row =
              pg + static_cast<std::int64_t>(r) * cols;
          float* __restrict o_row = po + static_cast<std::int64_t>(r) * cols;
          double dot = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            dot += static_cast<double>(y_row[c]) * g_row[c];
          }
          for (std::int64_t c = 0; c < cols; ++c) {
            o_row[c] = y_row[c] * (g_row[c] - static_cast<float>(dot));
          }
        }
      });
  return out;
}

// --- conv2d ----------------------------------------------------------------
//
// All three conv kernels loop over images, in parallel over the batch, and
// run one GEMM per image directly in NCHW:
//
//   forward          out_img[O, OH*OW]  = W[O, C*kh*kw] * cols_img
//   backward input   dcols_img          = W^T * g_img          (then col2im)
//   backward weight  dW[O, C*kh*kw]    += g_img * cols_img^T
//
// cols_img is one image unfolded as [C*kh*kw, OH*OW]: a row per kernel tap, a
// column per output pixel. A 1x1, stride-1, unpadded conv needs no unfold —
// its cols_img is the input image itself and its dcols_img the dinput image.
// Every other conv unfolds one image at a time into a per-thread Workspace
// slab, so scratch memory is one image's columns per worker, not the batch's.

namespace {

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding) {
  return (in + 2 * padding - kernel) / stride + 1;
}

struct ConvGeometry {
  std::int64_t n, c, h, w;  // input
  std::int64_t o, kh, kw;   // weight
  std::int64_t oh, ow;      // output
  std::int64_t stride, padding;

  std::int64_t patch() const { return c * kh * kw; }
  std::int64_t pixels() const { return oh * ow; }
  bool pointwise() const {
    return kh == 1 && kw == 1 && stride == 1 && padding == 0;
  }
};

ConvGeometry conv_geometry(const Shape& input, const Shape& weight,
                           const Conv2dArgs& args) {
  CARAML_CHECK_MSG(input.size() == 4 && weight.size() == 4,
                   "conv2d needs NCHW input and OCHW weight");
  CARAML_CHECK_MSG(weight[1] == input[1], "conv2d channel mismatch");
  CARAML_CHECK_MSG(args.stride > 0 && args.padding >= 0,
                   "conv2d needs stride > 0 and padding >= 0");
  ConvGeometry g{input[0], input[1], input[2], input[3], weight[0],
                 weight[2], weight[3], 0, 0, args.stride, args.padding};
  g.oh = conv_out_size(g.h, g.kh, g.stride, g.padding);
  g.ow = conv_out_size(g.w, g.kw, g.stride, g.padding);
  CARAML_CHECK_MSG(g.oh > 0 && g.ow > 0, "conv output would be empty");
  return g;
}

void check_grad_out(const Tensor& grad_out, const ConvGeometry& g) {
  CARAML_CHECK_MSG(grad_out.shape() == Shape({g.n, g.o, g.oh, g.ow}),
                   "conv2d backward: grad_out " +
                       shape_to_string(grad_out.shape()) +
                       " does not match the conv output shape");
}

// Output coordinates [lo, hi) along one axis whose input coordinate
// out * stride + tap - padding lies inside [0, extent).
struct TapRange {
  std::int64_t lo, hi;
};
TapRange tap_range(std::int64_t extent, std::int64_t out, std::int64_t tap,
                   const ConvGeometry& g) {
  const std::int64_t shift = tap - g.padding;
  const std::int64_t lo =
      std::min(out, shift >= 0 ? 0 : (g.stride - 1 - shift) / g.stride);
  const std::int64_t last = extent - 1 - shift;
  const std::int64_t hi = last < 0 ? lo : std::min(out, last / g.stride + 1);
  return {lo, std::max(lo, hi)};
}

// Unfold one image src[c, h, w] into cols[c*kh*kw, oh*ow]; taps that land in
// the padding read 0.
void im2col_image(const float* __restrict src, const ConvGeometry& g,
                  float* __restrict cols) {
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    const float* __restrict plane = src + ch * g.h * g.w;
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      const TapRange ys = tap_range(g.h, g.oh, ky, g);
      for (std::int64_t kx = 0; kx < g.kw; ++kx) {
        const TapRange xs = tap_range(g.w, g.ow, kx, g);
        float* __restrict row =
            cols + ((ch * g.kh + ky) * g.kw + kx) * g.pixels();
        for (std::int64_t oy = 0; oy < g.oh; ++oy) {
          float* __restrict dst = row + oy * g.ow;
          if (oy < ys.lo || oy >= ys.hi) {
            std::fill(dst, dst + g.ow, 0.0f);
            continue;
          }
          const float* __restrict line =
              plane + (oy * g.stride + ky - g.padding) * g.w;
          std::fill(dst, dst + xs.lo, 0.0f);
          for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
            dst[ox] = line[ox * g.stride + kx - g.padding];
          }
          std::fill(dst + xs.hi, dst + g.ow, 0.0f);
        }
      }
    }
  }
}

// The adjoint of im2col_image: add cols[c*kh*kw, oh*ow] back onto one image
// dst[c, h, w], tap by tap.
void col2im_image(const float* __restrict cols, const ConvGeometry& g,
                  float* __restrict dst) {
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    float* __restrict plane = dst + ch * g.h * g.w;
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      const TapRange ys = tap_range(g.h, g.oh, ky, g);
      for (std::int64_t kx = 0; kx < g.kw; ++kx) {
        const TapRange xs = tap_range(g.w, g.ow, kx, g);
        const float* __restrict row =
            cols + ((ch * g.kh + ky) * g.kw + kx) * g.pixels();
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* __restrict src = row + oy * g.ow;
          float* __restrict line =
              plane + (oy * g.stride + ky - g.padding) * g.w;
          for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
            line[ox * g.stride + kx - g.padding] += src[ox];
          }
        }
      }
    }
  }
}

// One image's [c*kh*kw, oh*ow] scratch: borrowed from this thread's
// workspace on first use, then reused for the rest of the chunk.
float* image_slab(const ConvGeometry& g, Workspace::Buffer& slab) {
  if (slab.size() == 0) {
    slab = Workspace::local().take(
        static_cast<std::size_t>(g.patch() * g.pixels()));
  }
  return slab.data();
}

// cols_img of one image: the image itself for a pointwise conv, else the
// image unfolded into its slab.
const float* image_cols(const float* image, const ConvGeometry& g,
                        Workspace::Buffer& slab) {
  if (g.pointwise()) return image;
  float* cols = image_slab(g, slab);
  im2col_image(image, g, cols);
  return cols;
}

// Run body(img, slab) for every image of the batch, in parallel chunks of
// images that share one slab. Nested GEMMs run inline on the worker that
// owns the image.
template <typename F>
void for_each_image(std::int64_t n, F&& body) {
  parallel_for_range(0, static_cast<std::size_t>(n), 1,
                     [&body](std::size_t lo, std::size_t hi) {
                       Workspace::Buffer slab;
                       for (std::size_t img = lo; img < hi; ++img) {
                         body(static_cast<std::int64_t>(img), slab);
                       }
                     });
}

// dW is reduced over at most this many contiguous image groups, each
// accumulated image by image into its own partial and then summed in group
// order. The groups depend only on the batch size, so dW is bit-identical
// at every thread count, and scratch stays below this many weight copies.
constexpr std::int64_t kConvWeightGroups = 8;

}  // namespace

Tensor im2col(const Tensor& input, std::int64_t kh, std::int64_t kw,
              const Conv2dArgs& args) {
  CARAML_CHECK_MSG(input.rank() == 4, "im2col needs NCHW input");
  const ConvGeometry g =
      conv_geometry(input.shape(), {1, input.dim(1), kh, kw}, args);
  Tensor cols({g.n, g.patch(), g.pixels()});
  for (std::int64_t img = 0; img < g.n; ++img) {
    im2col_image(input.data() + img * g.c * g.h * g.w, g,
                 cols.data() + img * g.patch() * g.pixels());
  }
  return cols;
}

Tensor conv2d(const Tensor& input, const Tensor& weight,
              const Conv2dArgs& args) {
  const ConvGeometry g = conv_geometry(input.shape(), weight.shape(), args);
  Tensor out({g.n, g.o, g.oh, g.ow});
  const float* src = input.data();
  float* dst = out.data();
  // OCHW weight is already the [o, patch] GEMM operand.
  for_each_image(g.n, [&](std::int64_t img, Workspace::Buffer& slab) {
    const float* cols = image_cols(src + img * g.c * g.h * g.w, g, slab);
    detail::gemm(false, false, g.o, g.pixels(), g.patch(), weight.data(),
                 g.patch(), cols, g.pixels(), dst + img * g.o * g.pixels(),
                 g.pixels());
  });
  return out;
}

Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              const Shape& weight_shape,
                              const Conv2dArgs& args) {
  const ConvGeometry g = conv_geometry(input.shape(), weight_shape, args);
  check_grad_out(grad_out, g);
  const std::int64_t groups =
      std::max<std::int64_t>(1, std::min(g.n, kConvWeightGroups));
  const std::int64_t numel = g.o * g.patch();
  Tensor dw(weight_shape);
  // Group 0 accumulates straight into dw, the others into partials.
  Workspace::Buffer partials = Workspace::local().take_zeroed(
      static_cast<std::size_t>((groups - 1) * numel));
  const float* src = input.data();
  const float* grad = grad_out.data();
  parallel_for_range(
      0, static_cast<std::size_t>(groups), 1,
      [&](std::size_t lo, std::size_t hi) {
        Workspace::Buffer slab;
        for (std::size_t grp = lo; grp < hi; ++grp) {
          const std::int64_t group = static_cast<std::int64_t>(grp);
          float* acc =
              group == 0 ? dw.data() : partials.data() + (group - 1) * numel;
          for (std::int64_t img = group * g.n / groups;
               img < (group + 1) * g.n / groups; ++img) {
            const float* cols =
                image_cols(src + img * g.c * g.h * g.w, g, slab);
            detail::gemm(false, true, g.o, g.patch(), g.pixels(),
                         grad + img * g.o * g.pixels(), g.pixels(), cols,
                         g.pixels(), acc, g.patch());
          }
        }
      });
  float* __restrict out = dw.data();
  for (std::int64_t group = 1; group < groups; ++group) {
    const float* __restrict part = partials.data() + (group - 1) * numel;
    for (std::int64_t i = 0; i < numel; ++i) out[i] += part[i];
  }
  return dw;
}

Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             const Shape& input_shape, const Conv2dArgs& args) {
  const ConvGeometry g = conv_geometry(input_shape, weight.shape(), args);
  check_grad_out(grad_out, g);
  Tensor dinput(input_shape);
  const float* grad = grad_out.data();
  float* dst = dinput.data();
  for_each_image(g.n, [&](std::int64_t img, Workspace::Buffer& slab) {
    const float* g_img = grad + img * g.o * g.pixels();
    float* d_img = dst + img * g.c * g.h * g.w;
    if (g.pointwise()) {
      detail::gemm(true, false, g.c, g.pixels(), g.o, weight.data(), g.c,
                   g_img, g.pixels(), d_img, g.pixels());
      return;
    }
    float* dcols = image_slab(g, slab);
    std::fill(dcols, dcols + g.patch() * g.pixels(), 0.0f);
    detail::gemm(true, false, g.patch(), g.pixels(), g.o, weight.data(),
                 g.patch(), g_img, g.pixels(), dcols, g.pixels());
    col2im_image(dcols, g, d_img);
  });
  return dinput;
}

Tensor maxpool2d(const Tensor& input, std::int64_t kernel,
                 std::vector<std::int64_t>* indices) {
  CARAML_CHECK_MSG(input.rank() == 4, "maxpool2d needs NCHW input");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = h / kernel;
  const std::int64_t ow = w / kernel;
  CARAML_CHECK_MSG(oh > 0 && ow > 0, "maxpool output would be empty");
  Tensor out({n, c, oh, ow});
  if (indices) indices->assign(static_cast<std::size_t>(out.numel()), 0);
  const float* __restrict src = input.data();
  float* __restrict dst = out.data();
  std::int64_t* __restrict idx_out = indices ? indices->data() : nullptr;
  parallel_for_range(
      0, static_cast<std::size_t>(n * c), 1,
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
          const std::int64_t base = static_cast<std::int64_t>(plane);
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              // Seeded from the window's own first element, so an all -inf
              // window yields -inf and its gradient stays in this plane; a
              // NaN anywhere in the window wins and propagates.
              std::int64_t best_index =
                  (base * h + oy * kernel) * w + ox * kernel;
              float best = src[best_index];
              for (std::int64_t ky = 0; ky < kernel; ++ky) {
                for (std::int64_t kx = 0; kx < kernel; ++kx) {
                  const std::int64_t iy = oy * kernel + ky;
                  const std::int64_t ix = ox * kernel + kx;
                  const std::int64_t flat = (base * h + iy) * w + ix;
                  if (src[flat] > best || std::isnan(src[flat])) {
                    best = src[flat];
                    best_index = flat;
                  }
                }
              }
              const std::int64_t out_flat = (base * oh + oy) * ow + ox;
              dst[out_flat] = best;
              if (idx_out) idx_out[out_flat] = best_index;
            }
          }
        }
      });
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<std::int64_t>& indices) {
  CARAML_CHECK_MSG(static_cast<std::int64_t>(indices.size()) ==
                       grad_out.numel(),
                   "maxpool2d_backward indices mismatch");
  Tensor dinput(input_shape);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    dinput[indices[static_cast<std::size_t>(i)]] += grad_out[i];
  }
  return dinput;
}

Tensor global_avg_pool(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 4, "global_avg_pool needs NCHW input");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* __restrict src = input.data();
  float* __restrict dst = out.data();
  parallel_for_range(
      0, static_cast<std::size_t>(n * c),
      static_cast<std::size_t>(row_grain(h * w)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
          const std::int64_t base = static_cast<std::int64_t>(plane);
          double total = 0.0;
          const float* __restrict s = src + base * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) total += s[i];
          dst[base] = static_cast<float>(total) * inv;
        }
      });
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_out,
                                const Shape& input_shape) {
  const std::int64_t n = input_shape[0], c = input_shape[1],
                     h = input_shape[2], w = input_shape[3];
  CARAML_CHECK_MSG(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                       grad_out.dim(1) == c,
                   "global_avg_pool_backward shape mismatch");
  Tensor dinput(input_shape);
  const float inv = 1.0f / static_cast<float>(h * w);
  const float* __restrict src = grad_out.data();
  float* __restrict dst = dinput.data();
  parallel_for_range(
      0, static_cast<std::size_t>(n * c),
      static_cast<std::size_t>(row_grain(h * w)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t plane = lo; plane < hi; ++plane) {
          const std::int64_t base = static_cast<std::int64_t>(plane);
          const float g = src[base] * inv;
          float* __restrict d = dst + base * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) d[i] = g;
        }
      });
  return dinput;
}

}  // namespace caraml::tensor
