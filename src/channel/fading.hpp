// fading.hpp — microscopic (multipath) fading processes.
//
// Default model: Zheng-Xiao improved Jakes sum-of-sinusoids Rayleigh
// fading.  The complex gain h(t) is a *pure function of time* once the
// oscillator phases are drawn at construction, which gives us:
//   * lazy exact sampling at arbitrary event times (no channel ticking),
//   * automatic reciprocity (the paper assumes G(a->b) == G(b->a)): both
//     directions share one process,
//   * the textbook J0(2 pi fd tau) autocorrelation, with coherence time
//     ~0.423/fd (~140 ms at the paper's <1 m/s mobility).
// A Rician variant (LoS component) and an iid block-fading variant are
// included for ablations and tests.
//
// Because Jakes and Rician fading are pure functions of time, a model
// can be dropped and rebuilt from its RNG stream without changing a
// single sample: the LinkManager releases them at each round boundary
// (stateless() == true).  Block fading draws its blocks sequentially
// from a live stream, so its state cannot be re-derived and it stays
// resident for the link's lifetime.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace caem::channel {

/// Interface for a multipath power-gain process with unit mean.
class FadingModel {
 public:
  virtual ~FadingModel() = default;

  /// Linear power gain |h(t)|^2 (mean 1) at absolute time t.
  [[nodiscard]] virtual double power_gain(double time_s) = 0;

  /// Channel coherence time estimate in seconds (0.423 / f_d convention).
  [[nodiscard]] virtual double coherence_time_s() const = 0;

  /// True when power_gain is a pure function of time (all randomness
  /// drawn at construction), so rebuilding the model from the same RNG
  /// stream reproduces every sample bit for bit.
  [[nodiscard]] virtual bool stateless() const noexcept = 0;
};

/// Sum-of-sinusoids Rayleigh fading (Zheng & Xiao 2002 phases).
class JakesRayleighFading final : public FadingModel {
 public:
  /// @param doppler_hz  maximum Doppler shift f_d (> 0)
  /// @param oscillators number of sinusoids per quadrature (8..32 typical)
  JakesRayleighFading(double doppler_hz, util::Rng rng, std::size_t oscillators = 16);

  [[nodiscard]] double power_gain(double time_s) override;
  [[nodiscard]] double coherence_time_s() const override { return 0.423 / doppler_hz_; }
  [[nodiscard]] bool stateless() const noexcept override { return true; }

  /// In-phase / quadrature components (exposed for distribution tests).
  [[nodiscard]] double in_phase(double time_s) const;
  [[nodiscard]] double quadrature(double time_s) const;

 private:
  // One contiguous table, a single allocation.  Both quadrature sums
  // walk it front to back; that order is part of the exact output.
  struct Oscillator {
    double cos_alpha;  ///< Doppler frequency factor
    double phase_i;
    double phase_q;
  };

  double doppler_hz_;
  std::vector<Oscillator> oscillators_;
  double scale_;
};

/// Rician fading: Rayleigh diffuse part plus a line-of-sight component
/// with power ratio K (linear).  K = 0 degenerates to Rayleigh.
class RicianFading final : public FadingModel {
 public:
  RicianFading(double doppler_hz, double k_factor, util::Rng rng, std::size_t oscillators = 16);

  [[nodiscard]] double power_gain(double time_s) override;
  [[nodiscard]] double coherence_time_s() const override { return diffuse_.coherence_time_s(); }
  [[nodiscard]] bool stateless() const noexcept override { return true; }

 private:
  JakesRayleighFading diffuse_;
  double k_factor_;
  double los_doppler_hz_;
  double los_phase_;
};

/// Block fading: gain is iid Exp(1) per coherence block — the simplest
/// model with the right marginals but no intra-block dynamics.  Used to
/// ablate how much the temporal structure matters to CAEM.
class BlockRayleighFading final : public FadingModel {
 public:
  BlockRayleighFading(double block_duration_s, util::Rng rng);

  [[nodiscard]] double power_gain(double time_s) override;
  [[nodiscard]] double coherence_time_s() const override { return block_s_; }
  [[nodiscard]] bool stateless() const noexcept override { return false; }

 private:
  double block_s_;
  util::Rng rng_;
  long long current_block_ = -1;
  double current_gain_ = 1.0;
};

}  // namespace caem::channel
