#include "channel/shadowing.hpp"

#include <cmath>
#include <stdexcept>

namespace caem::channel {

GaussMarkovShadowing::GaussMarkovShadowing(double sigma_db, double correlation_s, util::Rng rng)
    : sigma_db_(sigma_db), correlation_s_(correlation_s), rng_(rng) {
  if (sigma_db < 0.0) throw std::invalid_argument("Shadowing: sigma must be >= 0");
  if (correlation_s <= 0.0) throw std::invalid_argument("Shadowing: tau must be > 0");
}

GaussMarkovShadowing::History GaussMarkovShadowing::history() const noexcept {
  return {last_time_s_, last_value_db_, draws_};
}

void GaussMarkovShadowing::resume(const History& history) noexcept {
  rng_.discard_normals(history.draws);
  last_time_s_ = history.last_time_s;
  last_value_db_ = history.last_value_db;
  draws_ = history.draws;
}

double GaussMarkovShadowing::value_db(double time_s) {
  if (sigma_db_ == 0.0) return 0.0;
  if (draws_ == 0) {
    last_value_db_ = rng_.normal(0.0, sigma_db_);
    last_time_s_ = time_s;
    draws_ = 1;
    return last_value_db_;
  }
  const double dt = time_s - last_time_s_;
  if (dt <= 0.0) return last_value_db_;
  const double rho = std::exp(-dt / correlation_s_);
  last_value_db_ =
      rho * last_value_db_ + std::sqrt(1.0 - rho * rho) * rng_.normal(0.0, sigma_db_);
  last_time_s_ = time_s;
  ++draws_;
  return last_value_db_;
}

}  // namespace caem::channel
