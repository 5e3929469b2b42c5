// A small dense float32 tensor library — the compute substrate of the real
// (CPU-executed) training path of CARAML-cpp.
//
// The paper's workloads run on PyTorch/TensorFlow; this library provides the
// minimal op set those models need (GEMM, conv2d, normalization, softmax,
// elementwise, reductions), parallelized over the process thread pool.
// Row-major contiguous storage; shapes are vectors of int64.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace caraml::tensor {

using Shape = std::vector<std::int64_t>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);  // zero-initialized
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);
  static Tensor arange(std::int64_t n);  // [0, 1, ..., n-1] as 1-D floats

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const;
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& at(std::initializer_list<std::int64_t> index);
  float at(std::initializer_list<std::int64_t> index) const;
  float& operator[](std::int64_t flat) { return data_[static_cast<std::size_t>(flat)]; }
  float operator[](std::int64_t flat) const { return data_[static_cast<std::size_t>(flat)]; }

  /// Reshape to a compatible shape (same numel); returns a copy of the
  /// header sharing no data (data is copied — simplicity over aliasing).
  Tensor reshape(Shape new_shape) const;

  /// Fill with a value.
  void fill(float value);

  /// 2-D transpose.
  Tensor transpose2d() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::int64_t numel_ = 0;
  std::vector<float> data_;
};

// --- elementwise -----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
void add_inplace(Tensor& a, const Tensor& b);
void axpy(Tensor& y, float alpha, const Tensor& x);  // y += alpha * x
Tensor relu(const Tensor& a);
Tensor gelu(const Tensor& a);
Tensor gelu_backward(const Tensor& x, const Tensor& grad_out);
Tensor relu_backward(const Tensor& x, const Tensor& grad_out);

// --- reductions ------------------------------------------------------------
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
/// Row-wise argmax of a [rows, cols] tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

// --- linear algebra --------------------------------------------------------
/// C = A[m,k] * B[k,n]; parallel blocked GEMM.
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A[m,k] * B[n,k]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C = A[k,m]^T * B[k,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);

// --- softmax / normalization ----------------------------------------------
/// Row-wise softmax of [rows, cols].
Tensor softmax_rows(const Tensor& a);
/// Backward of row-wise softmax given its output y and dL/dy.
Tensor softmax_rows_backward(const Tensor& y, const Tensor& grad_out);

// --- convolution (NCHW) ----------------------------------------------------
struct Conv2dArgs {
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};
/// input [N,C,H,W], weight [O,C,kh,kw] -> output [N,O,H',W'], one GEMM per
/// image (parallel over the batch); 1x1 stride-1 unpadded convs skip im2col.
Tensor conv2d(const Tensor& input, const Tensor& weight, const Conv2dArgs& args);
/// Gradients of conv2d: dInput, and dWeight reduced in a fixed image order
/// (bit-identical at every thread count).
Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                             const Shape& input_shape, const Conv2dArgs& args);
Tensor conv2d_backward_weight(const Tensor& grad_out, const Tensor& input,
                              const Shape& weight_shape, const Conv2dArgs& args);

/// 2x2 (or kxk) max pooling with stride == kernel; returns output and records
/// argmax indices into `indices` (same numel as output) for the backward pass.
Tensor maxpool2d(const Tensor& input, std::int64_t kernel,
                 std::vector<std::int64_t>* indices);
Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          const std::vector<std::int64_t>& indices);

/// Global average pool: [N,C,H,W] -> [N,C].
Tensor global_avg_pool(const Tensor& input);
Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& input_shape);

// --- im2col (exposed for tests) --------------------------------------------
/// Per-image unfold [N,C,H,W] -> [N, C*kh*kw, OH*OW]: one row per kernel tap,
/// one column per output pixel (padding reads 0).
Tensor im2col(const Tensor& input, std::int64_t kh, std::int64_t kw,
              const Conv2dArgs& args);

}  // namespace caraml::tensor
