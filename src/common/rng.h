// Deterministic xorshift RNG.
//
// Every synthetic frame and every randomized test in the repo draws from this
// generator so that modeled results are bit-reproducible across runs and
// platforms (no std::mt19937 distribution differences, no global state).
#pragma once

#include <cstdint>

namespace vf {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed ? seed : 1u) {}

  // xorshift64* — fast, passes BigCrush on the high bits.
  std::uint64_t next_u64() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform in [lo, hi).
  float next_float(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  // Uniform integer in [0, n).
  int next_index(int n) { return static_cast<int>(next_double() * n); }

 private:
  std::uint64_t state_;
};

}  // namespace vf
