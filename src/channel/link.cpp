#include "channel/link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace caem::channel {

double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) noexcept {
  const double thermal_w = util::kBoltzmann * 290.0 * bandwidth_hz;
  return util::watts_to_dbm(thermal_w) + noise_figure_db;
}

Link::Link(const LogDistancePathLoss* path_loss, MobilityModel* a, MobilityModel* b,
           GaussMarkovShadowing shadowing, std::unique_ptr<FadingModel> fading,
           double fading_cache_window_s)
    : path_loss_(path_loss),
      a_(a),
      b_(b),
      shadowing_(std::move(shadowing)),
      fading_(std::move(fading)),
      fading_cache_window_s_(fading_cache_window_s) {
  if (path_loss_ == nullptr || a_ == nullptr || b_ == nullptr || !fading_) {
    throw std::invalid_argument("Link: null component");
  }
  if (std::isnan(fading_cache_window_s_) || fading_cache_window_s_ < 0.0) {
    throw std::invalid_argument("Link: bad fading cache window");
  }
}

namespace {

// Fading gain can be arbitrarily close to 0 in a deep fade; floor it so
// the dB conversion stays finite (-80 dB fade is far below any mode).
[[nodiscard]] double fade_to_db(double gain) noexcept {
  return util::linear_to_db(std::max(gain, 1e-8));
}

}  // namespace

double Link::fading_db(double time_s) {
  if (fading_cache_window_s_ <= 0.0) return fade_to_db(fading_->power_gain(time_s));
  const double window = std::floor(time_s / fading_cache_window_s_);
  if (window != cached_window_index_) {
    cached_window_index_ = window;
    // Sample at the window midpoint: representative of the whole window,
    // and immune to floor(w*window_s/window_s) rounding below w — which
    // matters for BlockRayleighFading, whose internal block length
    // coincides with the cache window.
    cached_fading_db_ = fade_to_db(fading_->power_gain((window + 0.5) * fading_cache_window_s_));
  }
  return cached_fading_db_;
}

double Link::distance_m_at(double time_s) {
  return distance_m(a_->position_at(time_s), b_->position_at(time_s));
}

double Link::gain_db(double time_s) {
  const double loss = path_loss_->loss_db(distance_m_at(time_s));
  const double shadow = shadowing_.value_db(time_s);
  return -loss + shadow + fading_db(time_s);
}

double Link::snr_db(double time_s, const LinkBudget& budget) {
  return budget.tx_power_dbm + gain_db(time_s) - budget.noise_floor_dbm;
}

}  // namespace caem::channel
