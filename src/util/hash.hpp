// Stable hashing and seed derivation.
//
// The one home for FNV-1a 64 content fingerprints (sweep cache, chaos cache,
// checkpoints, fault plans) and for the splitmix64 mixer behind every derived
// seed (Rng seeding, per-workpackage and per-scenario seeds, retry jitter).
// These values are persisted in caches and checkpoints or reproduced across
// runs, so none of them may change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace caraml::hash {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// splitmix64's increment, 2^64 divided by the golden ratio.
inline constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// FNV-1a 64 over `bytes`, continuing from `state`: chain calls to hash
/// several fields into one value.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t state = kFnvOffset) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

/// Zero-padded 16-digit lower-case hex, the on-disk fingerprint format.
inline std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

inline std::string fnv1a_hex(std::string_view bytes) {
  return hex16(fnv1a(bytes));
}

/// splitmix64's output finalizer.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Independent, order-free seed for stream `index` of `seed`. The sweep
/// engine derives per-workpackage seeds and chaos derives per-scenario plan
/// seeds with it, so both agree on the same (seed, index).
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(seed ^ (kGoldenGamma * (index + 1)));
}

}  // namespace caraml::hash
