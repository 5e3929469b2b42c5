#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::nn {

using tensor::Shape;
using tensor::Tensor;

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng)
    : weight_("conv_weight",
              Tensor::randn({out_channels, in_channels, kernel, kernel}, rng,
                            std::sqrt(2.0f / static_cast<float>(
                                                 in_channels * kernel * kernel)))) {
  args_.stride = stride;
  args_.padding = padding;
}

Tensor Conv2d::forward(const Tensor& input) {
  cached_input_ = input;
  return tensor::conv2d(input, weight_.value, args_);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  Tensor dw = tensor::conv2d_backward_weight(grad_output, cached_input_,
                                             weight_.value.shape(), args_);
  tensor::add_inplace(weight_.grad, dw);
  return tensor::conv2d_backward_input(grad_output, weight_.value,
                                       cached_input_.shape(), args_);
}

std::vector<Parameter*> Conv2d::parameters() { return {&weight_}; }

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : gamma_("bn_gamma", Tensor::ones({channels})),
      beta_("bn_beta", Tensor::zeros({channels})),
      eps_(eps),
      momentum_(momentum),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {}

namespace {

// Per-plane sums run in this many independent double lanes, combined in lane
// order: the loop vectorizes, and the sum stays a fixed function of the data.
constexpr std::int64_t kSumLanes = 8;

// Σ term(i) over i in [0, count), kSumLanes-way interleaved.
template <typename Term>
double lane_sum(std::int64_t count, Term term) {
  double lanes[kSumLanes] = {};
  std::int64_t i = 0;
  for (; i + kSumLanes <= count; i += kSumLanes) {
    for (std::int64_t l = 0; l < kSumLanes; ++l) lanes[l] += term(i + l);
  }
  for (std::int64_t l = 0; i < count; ++i, ++l) lanes[l] += term(i);
  double total = 0.0;
  for (const double lane : lanes) total += lane;
  return total;
}

// Channels per parallel chunk, targeting ~16K elements per chunk.
std::int64_t channel_grain(std::int64_t per_channel) {
  return std::max<std::int64_t>(1, (1 << 14) / per_channel);
}

}  // namespace

// Forward and backward run in parallel over channels. One task owns each
// channel: it sums every (image, channel) plane with lane_sum and adds the
// plane sums in image order, so statistics and gradients are bit-identical at
// every thread count.
Tensor BatchNorm2d::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 4, "BatchNorm2d expects NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1),
                     plane = input.dim(2) * input.dim(3);
  CARAML_CHECK_MSG(c == gamma_.value.numel(), "BatchNorm channel mismatch");
  const std::int64_t count = n * plane;
  CARAML_CHECK_MSG(count > 0, "BatchNorm over empty batch");

  cached_shape_ = input.shape();
  // Every element is overwritten below: keep last step's buffer when it fits.
  if (cached_xhat_.shape() != input.shape()) {
    cached_xhat_ = Tensor(input.shape());
  }
  cached_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);
  std::vector<float> batch_mean(static_cast<std::size_t>(c));
  std::vector<float> batch_var(static_cast<std::size_t>(c));
  Tensor out(input.shape());

  const float* __restrict src = input.data();
  const float* __restrict pgamma = gamma_.value.data();
  const float* __restrict pbeta = beta_.value.data();
  float* __restrict pxhat = cached_xhat_.data();
  float* __restrict po = out.data();
  float* __restrict pinv = cached_inv_std_.data();
  float* __restrict pmean = batch_mean.data();
  float* __restrict pvar = batch_var.data();
  const float eps = eps_;
  parallel_for_range(
      0, static_cast<std::size_t>(c),
      static_cast<std::size_t>(channel_grain(count)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::int64_t ch = static_cast<std::int64_t>(lo);
             ch < static_cast<std::int64_t>(hi); ++ch) {
          double total = 0.0;
          for (std::int64_t img = 0; img < n; ++img) {
            const float* __restrict x = src + (img * c + ch) * plane;
            total += lane_sum(plane, [x](std::int64_t i) { return x[i]; });
          }
          const float mu = static_cast<float>(total / count);
          double var = 0.0;
          for (std::int64_t img = 0; img < n; ++img) {
            const float* __restrict x = src + (img * c + ch) * plane;
            var += lane_sum(plane, [x, mu](std::int64_t i) {
              const double d = x[i] - mu;
              return d * d;
            });
          }
          const float variance = static_cast<float>(var / count);
          const float inv_std = 1.0f / std::sqrt(variance + eps);
          pmean[ch] = mu;
          pvar[ch] = variance;
          pinv[ch] = inv_std;

          const float g = pgamma[ch];
          const float b = pbeta[ch];
          for (std::int64_t img = 0; img < n; ++img) {
            const std::int64_t base = (img * c + ch) * plane;
            const float* __restrict x = src + base;
            float* __restrict xh = pxhat + base;
            float* __restrict y = po + base;
            for (std::int64_t i = 0; i < plane; ++i) {
              xh[i] = (x[i] - mu) * inv_std;
              y[i] = g * xh[i] + b;
            }
          }
        }
      });

  for (std::int64_t ch = 0; ch < c; ++ch) {
    const std::size_t k = static_cast<std::size_t>(ch);
    running_mean_[ch] =
        (1.0f - momentum_) * running_mean_[ch] + momentum_ * batch_mean[k];
    running_var_[ch] =
        (1.0f - momentum_) * running_var_[ch] + momentum_ * batch_var[k];
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  CARAML_CHECK_MSG(grad_output.shape() == cached_shape_,
                   "BatchNorm backward shape mismatch");
  const std::int64_t n = cached_shape_[0], c = cached_shape_[1],
                     plane = cached_shape_[2] * cached_shape_[3];
  const std::int64_t count = n * plane;
  Tensor dinput(cached_shape_);

  const float* __restrict pg = grad_output.data();
  const float* __restrict pxhat = cached_xhat_.data();
  const float* __restrict pinv = cached_inv_std_.data();
  const float* __restrict pgamma = gamma_.value.data();
  float* __restrict pdgamma = gamma_.grad.data();
  float* __restrict pdbeta = beta_.grad.data();
  float* __restrict pdx = dinput.data();
  parallel_for_range(
      0, static_cast<std::size_t>(c),
      static_cast<std::size_t>(channel_grain(count)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::int64_t ch = static_cast<std::int64_t>(lo);
             ch < static_cast<std::int64_t>(hi); ++ch) {
          double sum_g = 0.0;
          double sum_g_xhat = 0.0;
          for (std::int64_t img = 0; img < n; ++img) {
            const std::int64_t base = (img * c + ch) * plane;
            const float* __restrict g = pg + base;
            const float* __restrict xh = pxhat + base;
            sum_g += lane_sum(plane, [g](std::int64_t i) { return g[i]; });
            sum_g_xhat += lane_sum(plane, [g, xh](std::int64_t i) {
              return static_cast<double>(g[i]) * xh[i];
            });
          }
          // Each channel's gamma/beta gradient has a single owner task.
          pdgamma[ch] += static_cast<float>(sum_g_xhat);
          pdbeta[ch] += static_cast<float>(sum_g);

          const float scale = pgamma[ch] * pinv[ch];
          const float mean_g = static_cast<float>(sum_g / count);
          const float mean_g_xhat = static_cast<float>(sum_g_xhat / count);
          for (std::int64_t img = 0; img < n; ++img) {
            const std::int64_t base = (img * c + ch) * plane;
            const float* __restrict g = pg + base;
            const float* __restrict xh = pxhat + base;
            float* __restrict dx = pdx + base;
            for (std::int64_t i = 0; i < plane; ++i) {
              dx[i] = scale * (g[i] - mean_g - xh[i] * mean_g_xhat);
            }
          }
        }
      });
  return dinput;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

Tensor MaxPool2d::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::maxpool2d(input, kernel_, &cached_indices_);
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  return tensor::maxpool2d_backward(grad_output, cached_input_shape_,
                                    cached_indices_);
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return tensor::global_avg_pool(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  return tensor::global_avg_pool_backward(grad_output, cached_input_shape_);
}

}  // namespace caraml::nn
