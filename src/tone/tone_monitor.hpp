// tone_monitor.hpp — sensor side of the tone channel.
//
// A sensor learns two things from the tone pulses: (1) the data-channel
// state, decoded from the pulse interval, and (2) the CSI of its link to
// the CH, measured from the received pulse strength (channel reciprocity,
// paper assumption 2).  Both observations are imperfect: the state is
// stale by the pulse-classification (sensing) delay, and the CSI estimate
// carries lognormal measurement noise.
//
// The truth behind the estimate comes from a CSI oracle: the sensor's
// round-scoped handle on its member->CH link (channel::RoundLink), read
// directly with no per-check lookup.  The MAC reads the same oracle,
// noise-free, for the frame-error draw, so the decision and the outcome
// see one channel.
#pragma once

#include "channel/link.hpp"
#include "tone/tone_broadcaster.hpp"
#include "util/rng.hpp"

namespace caem::tone {

class ToneMonitor {
 public:
  /// @param csi              CSI oracle: the true SNR of the link to the
  ///                         current CH (must outlive the monitor)
  /// @param sensing_delay_s  time to classify a pulse interval (Table II
  ///                         "sensing delay"): state changes younger than
  ///                         this are not yet visible to the sensor.
  /// @param csi_noise_db     std-dev of the CSI measurement error in dB.
  ToneMonitor(channel::SnrSource* csi, double sensing_delay_s, double csi_noise_db,
              util::Rng rng);

  /// Attach to (or detach from) the current cluster head's broadcaster.
  void attach(const ToneBroadcaster* broadcaster) noexcept { broadcaster_ = broadcaster; }
  [[nodiscard]] bool attached() const noexcept { return broadcaster_ != nullptr; }

  /// True when a broadcaster is attached and actually emitting pulses
  /// (a dead or off-duty CH produces no tone, paper Fig 3's "no tone" arc).
  [[nodiscard]] bool hears_tone() const noexcept;

  /// Channel state as the sensor believes it (sensing-delay stale).
  [[nodiscard]] ToneState observed_state(double now_s) const;

  /// CSI estimate (dB) from the latest tone pulse measurement.
  [[nodiscard]] double estimate_csi_db(double now_s);

  /// The oracle's noise-free SNR (dB): what a data frame actually sees.
  [[nodiscard]] double true_snr_db(double now_s) { return csi_->snr_db(now_s); }

  [[nodiscard]] double sensing_delay_s() const noexcept { return sensing_delay_s_; }

 private:
  channel::SnrSource* csi_;
  double sensing_delay_s_;
  double csi_noise_db_;
  util::Rng rng_;
  const ToneBroadcaster* broadcaster_ = nullptr;
};

}  // namespace caem::tone
