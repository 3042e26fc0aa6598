#include "channel/path_loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace caem::channel {

LogDistancePathLoss::LogDistancePathLoss(double exponent, double reference_db, double reference_m)
    : exponent_(exponent), reference_db_(reference_db), reference_m_(reference_m) {
  if (exponent <= 0.0) throw std::invalid_argument("LogDistancePathLoss: exponent must be > 0");
  if (reference_m <= 0.0) throw std::invalid_argument("LogDistancePathLoss: d0 must be > 0");
}

double LogDistancePathLoss::loss_db(double distance_m) const {
  const double d = std::max(distance_m, reference_m_);
  return reference_db_ + 10.0 * exponent_ * std::log10(d / reference_m_);
}

}  // namespace caem::channel
