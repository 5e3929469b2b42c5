#include "nn/optim.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::nn {

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    tensor::Tensor& vel = velocity_[i];
    for (std::int64_t j = 0; j < p->numel(); ++j) {
      float g = p->grad[j];
      if (weight_decay_ != 0.0f) g += weight_decay_ * p->value[j];
      vel[j] = momentum_ * vel[j] + g;
      p->value[j] -= lr_ * vel[j];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

namespace {

// Elements per parallel chunk, the tensor library's elementwise grain.
constexpr std::size_t kAdamGrain = 1 << 14;

struct AdamCoeffs {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

// Adam over elements [lo, hi) of one parameter. Every element is updated
// independently with the same operations in the same order as a plain
// scalar loop, so the result is bit-identical however the range is chunked.
// kDecay hoists the weight-decay test out of the loop; it is a branch, not
// `g += 0 * value`, which would turn an inf weight into NaN and flip -0.
template <bool kDecay>
void adam_update(const AdamCoeffs& k, float* __restrict value,
                 const float* __restrict grad, float* __restrict m,
                 float* __restrict v, std::size_t lo, std::size_t hi) {
  for (std::size_t j = lo; j < hi; ++j) {
    float g = grad[j];
    if constexpr (kDecay) g += k.weight_decay * value[j];
    m[j] = k.beta1 * m[j] + (1.0f - k.beta1) * g;
    v[j] = k.beta2 * v[j] + (1.0f - k.beta2) * g * g;
    const float m_hat = m[j] / k.bc1;
    const float v_hat = v[j] / k.bc2;
    value[j] -= k.lr * m_hat / (std::sqrt(v_hat) + k.eps);
  }
}

}  // namespace

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const AdamCoeffs k{lr_, beta1_, beta2_, eps_, weight_decay_, bc1, bc2};
  const auto update =
      weight_decay_ != 0.0f ? adam_update<true> : adam_update<false>;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* value = p->value.data();
    const float* grad = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    parallel_for_range(0, static_cast<std::size_t>(p->numel()), kAdamGrain,
                       [=, &k](std::size_t lo, std::size_t hi) {
                         update(k, value, grad, m, v, lo, hi);
                       });
  }
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  CARAML_CHECK_MSG(max_norm > 0.0, "max_norm must be positive");
  double total = 0.0;
  for (const Parameter* p : params) {
    for (std::int64_t j = 0; j < p->numel(); ++j) {
      total += static_cast<double>(p->grad[j]) * p->grad[j];
    }
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm) {
    const float factor = static_cast<float>(max_norm / norm);
    for (Parameter* p : params) {
      for (std::int64_t j = 0; j < p->numel(); ++j) p->grad[j] *= factor;
    }
  }
  return norm;
}

}  // namespace caraml::nn
