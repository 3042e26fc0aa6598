// path_loss.hpp — macroscopic (distance-dependent) propagation loss.
//
// The paper's channel is "path loss + shadowing + microscopic fading".
// Path loss is the deterministic distance term: the log-distance model
// of the 100 m x 100 m sensor field.
#pragma once

namespace caem::channel {

/// Log-distance model: PL(d) = PL(d0) + 10 n log10(d/d0), in dB.
class LogDistancePathLoss {
 public:
  /// @param exponent       path-loss exponent n (2 free space .. 4 obstructed)
  /// @param reference_db   loss at the reference distance
  /// @param reference_m    reference distance d0
  LogDistancePathLoss(double exponent, double reference_db, double reference_m = 1.0);

  /// Path loss in dB (a positive number) at `distance_m` (>= 0);
  /// distances below d0 clamp to d0, so co-located nodes never see a
  /// negative loss.
  [[nodiscard]] double loss_db(double distance_m) const;

 private:
  double exponent_;
  double reference_db_;
  double reference_m_;
};

}  // namespace caem::channel
