// shadowing.hpp — macroscopic lognormal shadowing with temporal correlation.
//
// The paper: "shadowing loss ... fluctuates in macroscopic time scale
// (2-5 seconds)".  We model it as a Gauss-Markov (Ornstein-Uhlenbeck)
// process in the dB domain: stationary N(0, sigma^2) marginals with
// exponential autocorrelation exp(-dt/tau).  Sampling is lazy — the value
// is advanced analytically from the last query time, so the process costs
// nothing between queries regardless of the gap.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace caem::channel {

class GaussMarkovShadowing {
 public:
  /// @param sigma_db        marginal standard deviation in dB (0 disables)
  /// @param correlation_s   decorrelation time constant tau (seconds)
  GaussMarkovShadowing(double sigma_db, double correlation_s, util::Rng rng);

  /// Shadowing value in dB at (non-decreasing within tolerance) time t.
  /// Queries earlier than the last sample return the last value — the
  /// process is not invertible backwards; MAC code never rewinds time.
  [[nodiscard]] double value_db(double time_s);

  /// The process's history: its last sample and how many normal
  /// variates it has drawn, which fixes its stream position.  A fresh
  /// process on the same stream, resumed from it, continues exactly as
  /// the original would have.
  struct History {
    double last_time_s = 0.0;
    double last_value_db = 0.0;
    std::uint64_t draws = 0;  ///< 0: nothing drawn yet
  };
  [[nodiscard]] History history() const noexcept;
  /// Requires a process that has drawn nothing yet.
  void resume(const History& history) noexcept;

  [[nodiscard]] double sigma_db() const noexcept { return sigma_db_; }
  [[nodiscard]] double correlation_s() const noexcept { return correlation_s_; }

 private:
  double sigma_db_;
  double correlation_s_;
  util::Rng rng_;
  double last_time_s_ = 0.0;
  double last_value_db_ = 0.0;
  std::uint64_t draws_ = 0;  ///< normal variates drawn so far
};

}  // namespace caem::channel
