#include "util/rng.hpp"

#include <cmath>

namespace caem::util {

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::string_view stream_tag) noexcept
    : Rng(seed ^ rotl(fnv1a64(stream_tag), 17)) {
  lineage_ = seed ^ rotl(fnv1a64(stream_tag), 17);
}

Rng::result_type Rng::next() noexcept {
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

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range requested
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - span) % span;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return lo + r % span;
  }
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential_mean(double mean) noexcept {
  // Inverse CDF; guard the (measure-zero) u == 0 case.
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

void Rng::discard_normals(std::uint64_t n) noexcept {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  // Each pair normal() draws is u1 (redrawn while 0) then u2.
  for (; n >= 2; n -= 2) {
    while (uniform() <= 0.0) {
    }
    (void)next();
  }
  if (n == 1) (void)normal();
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth multiplication method.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction (adequate for the
  // large-mean batching used by workload generators).
  const double value = normal(mean, std::sqrt(mean)) + 0.5;
  return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value);
}

void Rng::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL,
                                            0x77710069854EE241ULL, 0x39109BB02ACBE635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump & (1ULL << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (void)next();
    }
  }
  state_ = {s0, s1, s2, s3};
}

Rng Rng::fork(std::string_view stream_tag) const noexcept {
  return Rng(lineage_, stream_tag);
}

}  // namespace caem::util
