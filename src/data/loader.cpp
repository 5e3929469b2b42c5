#include "data/loader.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace caraml::data {

ShuffledIndexSampler::ShuffledIndexSampler(std::int64_t size,
                                           std::uint64_t base_seed)
    : size_(size), base_seed_(base_seed) {
  CARAML_CHECK_MSG(size >= 1, "sampler needs a non-empty dataset");
  order_.resize(static_cast<std::size_t>(size));
  reshuffle();
}

void ShuffledIndexSampler::reshuffle() {
  std::iota(order_.begin(), order_.end(), 0);
  Rng rng(base_seed_ ^
          (hash::kGoldenGamma * static_cast<std::uint64_t>(epoch_ + 1)));
  std::shuffle(order_.begin(), order_.end(), rng);
  position_ = 0;
}

std::int64_t ShuffledIndexSampler::next() {
  if (position_ >= size_) {
    ++epoch_;
    reshuffle();
  }
  return order_[static_cast<std::size_t>(position_++)];
}

std::vector<std::int64_t> ShuffledIndexSampler::next_batch(std::int64_t n) {
  CARAML_CHECK_MSG(n >= 1, "batch must be positive");
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

void ShuffledIndexSampler::seek_epoch(std::int64_t epoch) {
  CARAML_CHECK_MSG(epoch >= 0, "epoch must be non-negative");
  epoch_ = epoch;
  reshuffle();
}

ShardedEpochPlan::ShardedEpochPlan(std::int64_t dataset_size, int world_size,
                                   std::uint64_t seed)
    : size_(dataset_size), world_(world_size), seed_(seed) {
  CARAML_CHECK_MSG(dataset_size >= 1, "empty dataset");
  CARAML_CHECK_MSG(world_size >= 1, "world size must be positive");
}

std::vector<std::int64_t> ShardedEpochPlan::shard(int rank,
                                                  std::int64_t epoch) const {
  CARAML_CHECK_MSG(rank >= 0 && rank < world_, "rank out of range");
  CARAML_CHECK_MSG(epoch >= 0, "epoch must be non-negative");
  std::vector<std::int64_t> order(static_cast<std::size_t>(size_));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed_ ^
          (hash::kGoldenGamma * static_cast<std::uint64_t>(epoch + 1)));
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::int64_t> mine;
  for (std::size_t i = static_cast<std::size_t>(rank); i < order.size();
       i += static_cast<std::size_t>(world_)) {
    mine.push_back(order[i]);
  }
  return mine;
}

}  // namespace caraml::data
