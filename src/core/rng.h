// Deterministic pseudo-random number generation for population-protocol
// simulation.
//
// The uniform random scheduler is the only source of randomness in the model
// (Section 2 of the paper); every simulation owns one Xoshiro256ss instance
// seeded explicitly, so all experiments are reproducible from (params, seed).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace ppsim {

// SplitMix64: used to expand a single 64-bit seed into the 256-bit state of
// xoshiro256**. Passes through zero-state pathologies of naive seeding.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
// Satisfies UniformRandomBitGenerator.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
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

  // Uniform integer in [0, bound), bound >= 1. Lemire's multiply-shift with
  // rejection: unbiased and branch-cheap.
  std::uint64_t below(std::uint64_t bound) {
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  bool coin() { return ((*this)() >> 63) != 0; }

  // Uniform double in [0, 1).
  double unit() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

using Rng = Xoshiro256ss;

// Number of Bernoulli(p) trials up to and including the first success:
// P[X >= k] = (1-p)^{k-1}. The count engines (BatchSimulation,
// RingSimulation) use this to skip whole null stretches in one draw.
inline std::uint64_t sample_geometric(Rng& rng, double p) {
  if (p >= 1.0) return 1;
  if (p <= 0.0) throw std::invalid_argument("geometric with p<=0");
  const double u = 1.0 - rng.unit();  // in (0, 1]
  const double k = std::ceil(std::log(u) / std::log1p(-p));
  return k < 1.0 ? 1 : static_cast<std::uint64_t>(k);
}

// Derives a child seed from (base, stream) so that parameter sweeps use
// independent streams without manual bookkeeping.
inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  SplitMix64 sm(base ^ (0xd1342543de82ef95ULL * (stream + 1)));
  sm.next();
  return sm.next();
}

}  // namespace ppsim
