#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace caraml {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // SplitMix64 expands the single 64-bit seed into the xoshiro state.
  std::uint64_t sm = seed;
  for (auto& s : state_) s = hash::mix64(sm += hash::kGoldenGamma);
  have_cached_normal_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CARAML_CHECK_MSG(lo <= hi, "uniform_int: lo > hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t value;
  do {
    value = next_u64();
  } while (value >= limit);
  return lo + static_cast<std::int64_t>(value % range);
}

double Rng::uniform(double lo, double hi) {
  CARAML_CHECK_MSG(lo <= hi, "uniform: lo > hi");
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

Rng Rng::split() { return Rng(next_u64() ^ 0xA5A5A5A5A5A5A5A5ULL); }

}  // namespace caraml
