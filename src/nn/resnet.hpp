// A real, trainable ResNet — the miniature counterpart of the tf_cnn_benchmarks
// ResNet50 model of the paper's CV workload (§III-A2). Basic and bottleneck
// residual blocks are supported, with a configurable stage plan so both
// ImageNet-style and small-image (CIFAR-like) variants can be built. CPU
// execution keeps the defaults tiny; the paper-scale 224x224 ResNet50 is
// modeled analytically (models::ResNetModel) for the simulator.
#pragma once

#include <memory>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"

namespace caraml::nn {

/// Residual block: conv-bn-relu (x2 or x3) + identity/projection shortcut.
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t width,
                std::int64_t stride, bool bottleneck, Rng& rng);

  std::int64_t out_channels() const { return out_channels_; }

  Tensor forward(const Tensor& input) override;   // NCHW
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

 private:
  bool bottleneck_;
  std::int64_t out_channels_;
  std::vector<std::shared_ptr<Module>> main_path_;  // conv/bn/relu sequence
  std::shared_ptr<Conv2d> shortcut_conv_;           // nullptr = identity
  std::shared_ptr<BatchNorm2d> shortcut_bn_;
  Tensor cached_pre_relu_;
};

struct ResNetConfig {
  std::vector<std::int64_t> stage_blocks = {1, 1};  // tiny default
  std::vector<std::int64_t> stage_widths = {8, 16};
  bool bottleneck = false;
  std::int64_t in_channels = 3;
  std::int64_t stem_channels = 8;
  std::int64_t num_classes = 10;
  bool stem_pool = false;  // 3x3/2 max-pool after the stem (ImageNet style)

  /// Small trainable stand-ins used by tests/examples.
  static ResNetConfig tiny(std::int64_t num_classes = 10);
  static ResNetConfig small_bottleneck(std::int64_t num_classes = 10);
};

class ResNet : public Module {
 public:
  ResNet(ResNetConfig config, Rng& rng);

  const ResNetConfig& config() const { return config_; }

  Tensor forward(const Tensor& images) override;  // NCHW -> [N, classes]
  Tensor backward(const Tensor& grad_logits) override;
  std::vector<Parameter*> parameters() override;

  /// Forward + cross-entropy + backward; returns the loss.
  float train_step(const Tensor& images,
                   const std::vector<std::int64_t>& labels);

 private:
  ResNetConfig config_;
  std::shared_ptr<Conv2d> stem_conv_;
  std::shared_ptr<BatchNorm2d> stem_bn_;
  std::shared_ptr<Relu> stem_relu_;
  std::shared_ptr<MaxPool2d> stem_pool_;
  std::vector<std::shared_ptr<ResidualBlock>> blocks_;
  std::shared_ptr<GlobalAvgPool> pool_;
  std::shared_ptr<Linear> head_;
};

}  // namespace caraml::nn
