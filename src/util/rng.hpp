// Deterministic pseudo-random number generation.
//
// The simulator must be reproducible: every randomized routing policy and
// workload generator draws from an hp::Rng seeded explicitly. We implement
// xoshiro256++ (Blackman & Vigna) seeded through splitmix64, which has good
// statistical quality, a tiny state, and is trivially splittable for
// independent sub-streams.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>

namespace hp {

/// splitmix64 step — used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64 so that any
  /// 64-bit seed (including 0) yields a well-mixed nonzero state.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire-style
  /// rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound) {
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double real() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return real() < p; }

  /// Fisher–Yates shuffle of a span, in place.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = uniform(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace hp
