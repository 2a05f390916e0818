// Deterministic PRNG for the synthetic trace generator.
//
// Determinism matters: every bench/test seeds the generator explicitly, so
// `mtlscope run` output is reproducible run to run. We use SplitMix64 for seeding
// and Xoshiro256** for the stream (Blackman & Vigna).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace mtlscope::crypto {

/// SplitMix64 step; also usable standalone for hashing small integers.
std::uint64_t splitmix64(std::uint64_t& state);

/// Xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial.
  bool chance(double p);

  /// Picks an index according to non-negative weights (need not sum to 1).
  /// Returns weights.size()-1 if rounding exhausts the mass.
  std::size_t weighted(const std::vector<double>& weights);

  /// Random lower-case alphanumeric string of length n.
  std::string alnum(std::size_t n);

  /// Random lower-case hex string of length n.
  std::string hex(std::size_t n);

  /// Random RFC-4122-shaped UUID string (8-4-4-4-12 hex).
  std::string uuid();

  /// Fork a child RNG whose stream is independent of (but derived from)
  /// this one — used to give each simulated month/host its own stream.
  Rng fork(std::uint64_t salt);

 private:
  std::uint64_t s_[4];
};

}  // namespace mtlscope::crypto
