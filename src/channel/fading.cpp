#include "channel/fading.hpp"

#include <cmath>
#include <stdexcept>

namespace caem::channel {

JakesRayleighFading::JakesRayleighFading(double doppler_hz, util::Rng rng,
                                         std::size_t oscillators)
    : doppler_hz_(doppler_hz) {
  if (doppler_hz <= 0.0) throw std::invalid_argument("JakesRayleighFading: f_d must be > 0");
  if (oscillators == 0) throw std::invalid_argument("JakesRayleighFading: need oscillators");
  const auto m = static_cast<double>(oscillators);
  oscillators_.reserve(oscillators);
  // Zheng-Xiao: alpha_n = (2 pi n - pi + theta) / (4 M) with one random
  // theta per process; independent random phases per quadrature.
  const double theta = rng.uniform(-M_PI, M_PI);
  for (std::size_t n = 1; n <= oscillators; ++n) {
    const double alpha = (2.0 * M_PI * static_cast<double>(n) - M_PI + theta) / (4.0 * m);
    const double phase_i = rng.uniform(-M_PI, M_PI);
    const double phase_q = rng.uniform(-M_PI, M_PI);
    oscillators_.push_back({std::cos(alpha), phase_i, phase_q});
  }
  scale_ = std::sqrt(1.0 / m);  // E[h_I^2] = E[h_Q^2] = 1/2 -> E[|h|^2] = 1
}

double JakesRayleighFading::in_phase(double time_s) const {
  const double w = 2.0 * M_PI * doppler_hz_ * time_s;
  double sum = 0.0;
  for (const Oscillator& osc : oscillators_) sum += std::cos(w * osc.cos_alpha + osc.phase_i);
  return scale_ * sum;
}

double JakesRayleighFading::quadrature(double time_s) const {
  const double w = 2.0 * M_PI * doppler_hz_ * time_s;
  double sum = 0.0;
  for (const Oscillator& osc : oscillators_) sum += std::sin(w * osc.cos_alpha + osc.phase_q);
  return scale_ * sum;
}

double JakesRayleighFading::power_gain(double time_s) {
  const double hi = in_phase(time_s);
  const double hq = quadrature(time_s);
  return hi * hi + hq * hq;
}

RicianFading::RicianFading(double doppler_hz, double k_factor, util::Rng rng,
                           std::size_t oscillators)
    : diffuse_(doppler_hz, rng.fork("diffuse"), oscillators),
      k_factor_(k_factor),
      los_doppler_hz_(doppler_hz * 0.7),  // LoS arrival at an oblique angle
      los_phase_(rng.uniform(-M_PI, M_PI)) {
  if (k_factor < 0.0) throw std::invalid_argument("RicianFading: K must be >= 0");
}

double RicianFading::power_gain(double time_s) {
  // h = sqrt(K/(K+1)) e^{j(2 pi f_LoS t + phi)} + sqrt(1/(K+1)) h_diffuse
  const double los_amp = std::sqrt(k_factor_ / (k_factor_ + 1.0));
  const double diffuse_amp = std::sqrt(1.0 / (k_factor_ + 1.0));
  const double angle = 2.0 * M_PI * los_doppler_hz_ * time_s + los_phase_;
  // Recover quadratures of the diffuse part through the public helpers of
  // JakesRayleighFading (power_gain alone is not enough for the sum).
  const double hi = diffuse_amp * diffuse_.in_phase(time_s) + los_amp * std::cos(angle);
  const double hq = diffuse_amp * diffuse_.quadrature(time_s) + los_amp * std::sin(angle);
  return hi * hi + hq * hq;
}

BlockRayleighFading::BlockRayleighFading(double block_duration_s, util::Rng rng)
    : block_s_(block_duration_s), rng_(rng) {
  if (block_duration_s <= 0.0) {
    throw std::invalid_argument("BlockRayleighFading: block duration must be > 0");
  }
}

double BlockRayleighFading::power_gain(double time_s) {
  const auto block = static_cast<long long>(std::floor(time_s / block_s_));
  if (block != current_block_) {
    // Draw a fresh Exp(1) gain for the new block.  Blocks are consumed in
    // order by the simulator, so sequential draws keep determinism.
    current_gain_ = rng_.exponential_mean(1.0);
    current_block_ = block;
  }
  return current_gain_;
}

}  // namespace caem::channel
