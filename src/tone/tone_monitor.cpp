#include "tone/tone_monitor.hpp"

#include <stdexcept>

namespace caem::tone {

ToneMonitor::ToneMonitor(channel::SnrSource* csi, double sensing_delay_s,
                         double csi_noise_db, util::Rng rng)
    : csi_(csi),
      sensing_delay_s_(sensing_delay_s),
      csi_noise_db_(csi_noise_db),
      rng_(rng) {
  if (csi_ == nullptr) throw std::invalid_argument("ToneMonitor: null CSI oracle");
  if (sensing_delay_s < 0.0) throw std::invalid_argument("ToneMonitor: negative sensing delay");
  if (csi_noise_db < 0.0) throw std::invalid_argument("ToneMonitor: negative CSI noise");
}

bool ToneMonitor::hears_tone() const noexcept {
  return broadcaster_ != nullptr && broadcaster_->running();
}

ToneState ToneMonitor::observed_state(double now_s) const {
  if (!hears_tone()) {
    throw std::logic_error("ToneMonitor: observed_state with no tone audible");
  }
  // A state announced less than one sensing delay ago has not yet been
  // classified by the pulse-interval discriminator.
  if (now_s - broadcaster_->state_since_s() < sensing_delay_s_) {
    return broadcaster_->previous_state();
  }
  return broadcaster_->state();
}

double ToneMonitor::estimate_csi_db(double now_s) {
  const double truth = csi_->snr_db(now_s);
  return csi_noise_db_ == 0.0 ? truth : truth + rng_.normal(0.0, csi_noise_db_);
}

}  // namespace caem::tone
