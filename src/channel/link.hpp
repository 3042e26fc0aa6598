// link.hpp — the composite time-varying channel between two nodes.
//
// gain_db(t) = -path_loss(distance(t)) + shadowing_db(t) + 10 log10(fading(t))
// snr_db(t)  = tx_power_dbm + gain_db(t) - noise_floor_dbm
//
// One Link object serves both directions (the paper's reciprocity
// assumption G_ab == G_ba), which is exactly what lets sensors estimate
// the data-channel CSI from the received tone-signal strength.
//
// The coherence-window cache keeps the fading term already in dB.  With
// a stateless fading model (Jakes, Rician) the only history a Link
// carries is its shadowing process: the fading and the window cache are
// pure functions of the pair's stream and of time.  So LinkManager can
// evict an idle Link, keep only the shadowing history, and rebuild it
// bit-identically later.
#pragma once

#include <memory>

#include "channel/fading.hpp"
#include "channel/mobility.hpp"
#include "channel/path_loss.hpp"
#include "channel/shadowing.hpp"

namespace caem::channel {

/// Radio-link power budget for SNR computation.
struct LinkBudget {
  double tx_power_dbm = 0.0;        ///< radiated RF power (not electronics draw)
  double noise_floor_dbm = -101.0;  ///< thermal noise + receiver noise figure
};

/// Thermal-noise floor in dBm for a bandwidth and receiver noise figure
/// at T = 290 K:  -174 dBm/Hz + 10 log10(B) + NF.
[[nodiscard]] double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) noexcept;

/// SNR reported for a pair beyond `radio_range_m` (or with no link this
/// round): no link exists, no link is created, nothing is receivable.
inline constexpr double kOutOfRangeSnrDb = -1e9;

/// The true SNR of one node's channel to its current peer, as a function
/// of time: the seam through which the tone monitor (CSI) and the MAC
/// (frame errors) read the channel.  At run time it is a RoundLink (see
/// link_manager.hpp); unit tests substitute arbitrary SNR(t) curves.
class SnrSource {
 public:
  /// True SNR in dB at `time_s` (kOutOfRangeSnrDb when there is no link).
  [[nodiscard]] virtual double snr_db(double time_s) = 0;

 protected:
  ~SnrSource() = default;
};

class Link {
 public:
  /// @param path_loss  shared distance model (owned by the LinkManager)
  /// @param a, b       endpoint mobility models (owned by the LinkManager)
  /// @param fading_cache_window_s  when > 0, the fading process (the
  ///     trig-heavy sum-of-sinusoids) is evaluated once per window of
  ///     this length — normally the coherence time 0.423/f_d, within
  ///     which the channel is flat by definition — and reused for every
  ///     query in the window.  0 disables caching: every query evaluates
  ///     the fading exactly (bit-identical to the uncached code path).
  ///     Path loss and shadowing are always evaluated exactly, so the
  ///     per-link shadowing RNG consumption is independent of this knob.
  Link(const LogDistancePathLoss* path_loss, MobilityModel* a, MobilityModel* b,
       GaussMarkovShadowing shadowing, std::unique_ptr<FadingModel> fading,
       double fading_cache_window_s = 0.0);

  /// Composite channel power gain in dB (negative for real links).
  [[nodiscard]] double gain_db(double time_s);

  /// Instantaneous SNR in dB for the given budget.
  [[nodiscard]] double snr_db(double time_s, const LinkBudget& budget);

  /// Current endpoint distance (metres).
  [[nodiscard]] double distance_m_at(double time_s);

  /// The shadowing process, whose history() is all an evicted Link keeps.
  [[nodiscard]] const GaussMarkovShadowing& shadowing() const noexcept { return shadowing_; }

  /// Whether the fading model is a pure function of time (see
  /// FadingModel::stateless), so the Link may be evicted and rebuilt.
  [[nodiscard]] bool fading_stateless() const noexcept { return fading_->stateless(); }

 private:
  /// Fading term 10 log10(max(gain, 1e-8)), served from the
  /// coherence-window cache when enabled (evaluated at the window
  /// midpoint so the cached value depends only on the window index, not
  /// on the query pattern — and lands robustly inside
  /// BlockRayleighFading's matching block).
  [[nodiscard]] double fading_db(double time_s);

  const LogDistancePathLoss* path_loss_;
  MobilityModel* a_;
  MobilityModel* b_;
  GaussMarkovShadowing shadowing_;
  std::unique_ptr<FadingModel> fading_;
  double fading_cache_window_s_;
  double cached_window_index_ = -1.0;
  double cached_fading_db_ = 0.0;
};

}  // namespace caem::channel
