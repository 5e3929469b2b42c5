#include "nn/resnet.hpp"

#include <utility>

#include "util/error.hpp"

namespace caraml::nn {

using tensor::Tensor;

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t width,
                             std::int64_t stride, bool bottleneck, Rng& rng)
    : bottleneck_(bottleneck),
      out_channels_(bottleneck ? width * 4 : width) {
  if (bottleneck) {
    main_path_ = {
        std::make_shared<Conv2d>(in_channels, width, 1, 1, 0, rng),
        std::make_shared<BatchNorm2d>(width),
        std::make_shared<Relu>(),
        std::make_shared<Conv2d>(width, width, 3, stride, 1, rng),
        std::make_shared<BatchNorm2d>(width),
        std::make_shared<Relu>(),
        std::make_shared<Conv2d>(width, out_channels_, 1, 1, 0, rng),
        std::make_shared<BatchNorm2d>(out_channels_),
    };
  } else {
    main_path_ = {
        std::make_shared<Conv2d>(in_channels, width, 3, stride, 1, rng),
        std::make_shared<BatchNorm2d>(width),
        std::make_shared<Relu>(),
        std::make_shared<Conv2d>(width, width, 3, 1, 1, rng),
        std::make_shared<BatchNorm2d>(width),
    };
  }
  if (stride != 1 || in_channels != out_channels_) {
    shortcut_conv_ =
        std::make_shared<Conv2d>(in_channels, out_channels_, 1, stride, 0, rng);
    shortcut_bn_ = std::make_shared<BatchNorm2d>(out_channels_);
  }
}

Tensor ResidualBlock::forward(const Tensor& input) {
  Tensor main = main_path_.front()->forward(input);
  for (auto it = main_path_.begin() + 1; it != main_path_.end(); ++it) {
    main = (*it)->forward(main);
  }

  if (shortcut_conv_) {
    tensor::add_inplace(main,
                        shortcut_bn_->forward(shortcut_conv_->forward(input)));
  } else {
    tensor::add_inplace(main, input);
  }
  cached_pre_relu_ = std::move(main);
  return tensor::relu(cached_pre_relu_);
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  Tensor g = tensor::relu_backward(cached_pre_relu_, grad_output);

  // Main path backward (reverse order).
  Tensor g_main = main_path_.back()->backward(g);
  for (auto it = main_path_.rbegin() + 1; it != main_path_.rend(); ++it) {
    g_main = (*it)->backward(g_main);
  }

  // Shortcut backward.
  if (shortcut_conv_) {
    tensor::add_inplace(g_main,
                        shortcut_conv_->backward(shortcut_bn_->backward(g)));
  } else {
    tensor::add_inplace(g_main, g);
  }
  return g_main;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : main_path_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  if (shortcut_conv_) {
    for (Parameter* p : shortcut_conv_->parameters()) out.push_back(p);
    for (Parameter* p : shortcut_bn_->parameters()) out.push_back(p);
  }
  return out;
}

ResNetConfig ResNetConfig::tiny(std::int64_t num_classes) {
  ResNetConfig c;
  c.stage_blocks = {1, 1};
  c.stage_widths = {8, 16};
  c.bottleneck = false;
  c.stem_channels = 8;
  c.num_classes = num_classes;
  return c;
}

ResNetConfig ResNetConfig::small_bottleneck(std::int64_t num_classes) {
  ResNetConfig c;
  c.stage_blocks = {1, 1, 1};
  c.stage_widths = {4, 8, 16};
  c.bottleneck = true;
  c.stem_channels = 8;
  c.num_classes = num_classes;
  return c;
}

ResNet::ResNet(ResNetConfig config, Rng& rng)
    : config_(std::move(config)),
      stem_conv_(std::make_shared<Conv2d>(config_.in_channels,
                                          config_.stem_channels, 3, 1, 1, rng)),
      stem_bn_(std::make_shared<BatchNorm2d>(config_.stem_channels)),
      stem_relu_(std::make_shared<Relu>()),
      pool_(std::make_shared<GlobalAvgPool>()) {
  CARAML_CHECK_MSG(config_.stage_blocks.size() == config_.stage_widths.size(),
                   "stage plan mismatch");
  if (config_.stem_pool) stem_pool_ = std::make_shared<MaxPool2d>(2);

  std::int64_t channels = config_.stem_channels;
  for (std::size_t s = 0; s < config_.stage_blocks.size(); ++s) {
    for (std::int64_t b = 0; b < config_.stage_blocks[s]; ++b) {
      const std::int64_t stride = (b == 0 && s > 0) ? 2 : 1;
      auto block = std::make_shared<ResidualBlock>(
          channels, config_.stage_widths[s], stride, config_.bottleneck, rng);
      channels = block->out_channels();
      blocks_.push_back(std::move(block));
    }
  }
  head_ = std::make_shared<Linear>(channels, config_.num_classes, rng, true,
                                   0.05f);
}

Tensor ResNet::forward(const Tensor& images) {
  CARAML_CHECK_MSG(images.rank() == 4, "ResNet expects NCHW images");
  Tensor x = stem_relu_->forward(stem_bn_->forward(stem_conv_->forward(images)));
  if (stem_pool_) x = stem_pool_->forward(x);
  for (auto& block : blocks_) x = block->forward(x);
  Tensor pooled = pool_->forward(x);  // [N, C]
  return head_->forward(pooled);
}

Tensor ResNet::backward(const Tensor& grad_logits) {
  Tensor g = pool_->backward(head_->backward(grad_logits));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  if (stem_pool_) g = stem_pool_->backward(g);
  return stem_conv_->backward(stem_bn_->backward(stem_relu_->backward(g)));
}

std::vector<Parameter*> ResNet::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : stem_conv_->parameters()) out.push_back(p);
  for (Parameter* p : stem_bn_->parameters()) out.push_back(p);
  for (auto& block : blocks_) {
    for (Parameter* p : block->parameters()) out.push_back(p);
  }
  for (Parameter* p : head_->parameters()) out.push_back(p);
  return out;
}

float ResNet::train_step(const Tensor& images,
                         const std::vector<std::int64_t>& labels) {
  const Tensor logits = forward(images);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  backward(loss.grad_logits);
  return loss.loss;
}

}  // namespace caraml::nn
