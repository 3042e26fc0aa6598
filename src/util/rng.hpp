// rng.hpp — deterministic random number generation.
//
// The simulator requires (a) reproducibility given a master seed, and
// (b) statistical independence between the many stochastic processes in a
// run (per-node traffic, per-link fading, MAC backoff, LEACH election...).
// We use xoshiro256++ (Blackman & Vigna) seeded through splitmix64, and
// derive independent sub-streams by hashing a (master seed, stream tag)
// pair, which is the standard counter-based stream-splitting idiom.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace caem::util {

/// splitmix64 step: the recommended seeding PRNG for xoshiro.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit hash of a string, used to derive stream tags from names.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// xoshiro256++ engine with distribution helpers.
///
/// Satisfies the essential parts of UniformRandomBitGenerator so it can be
/// used with <random> distributions, but ships its own inverse-CDF /
/// Box-Muller helpers so results are bit-reproducible across libstdc++
/// versions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through splitmix64).
  explicit Rng(std::uint64_t seed = 0xCAE42005ULL) noexcept;

  /// Construct an independent sub-stream: hash of (seed, tag).
  Rng(std::uint64_t seed, std::string_view stream_tag) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive), unbiased via rejection.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Exponentially distributed value with the given mean (= 1/rate).
  [[nodiscard]] double exponential_mean(double mean) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with explicit mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// PTRS-style normal approximation fallback for large ones).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Long-jump: advance the state by 2^192 steps (for bulk partitioning).
  void long_jump() noexcept;

  /// Derive a child stream from this generator's seed lineage and a tag.
  [[nodiscard]] Rng fork(std::string_view stream_tag) const noexcept;

  /// Advance past the next `n` normal() variates as cheaply as possible:
  /// the same raw draws, without the transcendental maths except for a
  /// final odd variate, whose pair-mate normal() must cache.  Afterwards
  /// the generator is exactly where n normal() calls would leave it.
  void discard_normals(std::uint64_t n) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t lineage_ = 0;  // seed lineage used by fork()
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace caem::util
