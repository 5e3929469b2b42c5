// Model shapes shared by the workloads and by the kernel/module replay, so a
// replayed kernel always runs at the shape its workload runs.
#pragma once

#include <cstdint>

#include "nn/gpt.hpp"
#include "nn/resnet.hpp"

namespace caraml::e2e::shapes {

// GPT (gpt_train and gpt_decode): C=128, L=4, H=4, block 128, BPE vocab 512.
inline constexpr std::int64_t kGptVocab = 512;
inline constexpr std::int64_t kGptBlock = 128;
inline constexpr std::int64_t kGptLayers = 4;
inline constexpr std::int64_t kGptHeads = 4;
inline constexpr std::int64_t kGptEmbed = 128;
inline constexpr std::int64_t kGptBatch = 8;  // gpt_train sequences per step

inline nn::GptModelConfig gpt_config(std::int64_t vocab = kGptVocab) {
  nn::GptModelConfig config;
  config.vocab_size = vocab;
  config.block_size = kGptBlock;
  config.num_layers = kGptLayers;
  config.num_heads = kGptHeads;
  config.embed_dim = kGptEmbed;
  return config;
}

// ResNet (resnet_train): small bottleneck net on 32x32 RGB images.
inline constexpr std::int64_t kImageSize = 32;
inline constexpr std::int64_t kImageChannels = 3;
inline constexpr std::int64_t kClasses = 10;
inline constexpr std::int64_t kResnetBatch = 64;

inline nn::ResNetConfig resnet_config() {
  return nn::ResNetConfig::small_bottleneck(kClasses);
}

}  // namespace caraml::e2e::shapes
