// Property tests for the fading substrate: Rayleigh marginals, Doppler
// autocorrelation, Rician K behaviour, block fading semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "channel/fading.hpp"
#include "support/bessel.hpp"
#include "util/stats.hpp"

namespace caem::channel {
namespace {

using test_support::bessel_j0;

TEST(JakesFading, UnitMeanPowerGain) {
  util::OnlineStats stats;
  for (int run = 0; run < 200; ++run) {
    JakesRayleighFading fading(3.0, util::Rng(run + 1));
    for (int i = 0; i < 200; ++i) stats.add(fading.power_gain(i * 1.0));
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.03);
}

TEST(JakesFading, PowerGainIsExponential) {
  // For Exp(1): P(X > 1) = e^-1, P(X > 2) = e^-2, variance = 1.
  util::OnlineStats stats;
  int above_one = 0, above_two = 0, total = 0;
  for (int run = 0; run < 300; ++run) {
    JakesRayleighFading fading(3.0, util::Rng(run * 13 + 5));
    for (int i = 0; i < 100; ++i) {
      const double g = fading.power_gain(i * 2.0);  // >> coherence: ~iid
      stats.add(g);
      above_one += (g > 1.0);
      above_two += (g > 2.0);
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(above_one) / total, std::exp(-1.0), 0.02);
  EXPECT_NEAR(static_cast<double>(above_two) / total, std::exp(-2.0), 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.12);
}

TEST(JakesFading, AutocorrelationFollowsBesselJ0) {
  // R(tau) = J0(2 pi fd tau) for the quadrature components.  Check the
  // *power* correlation proxy at a few lags using many realisations.
  const double fd = 3.0;
  for (const double tau : {0.01, 0.05, 0.2}) {
    std::vector<double> first, second;
    for (int run = 0; run < 3000; ++run) {
      JakesRayleighFading fading(fd, util::Rng(run * 31 + 7));
      first.push_back(fading.in_phase(0.0));
      second.push_back(fading.in_phase(tau));
    }
    const double expected = bessel_j0(2.0 * M_PI * fd * tau);
    EXPECT_NEAR(util::correlation(first, second), expected, 0.08) << "tau=" << tau;
  }
}

TEST(JakesFading, CoherenceTimeConvention) {
  const JakesRayleighFading fading(3.0, util::Rng(1));
  EXPECT_NEAR(fading.coherence_time_s(), 0.423 / 3.0, 1e-12);
}

TEST(JakesFading, DeterministicAndPureInTime) {
  JakesRayleighFading a(3.0, util::Rng(9)), b(3.0, util::Rng(9));
  EXPECT_EQ(a.power_gain(1.23), b.power_gain(1.23));
  // Pure function of t: evaluation order must not matter.
  const double at_two = a.power_gain(2.0);
  (void)a.power_gain(50.0);
  EXPECT_EQ(a.power_gain(2.0), at_two);
}

TEST(JakesFading, Validation) {
  EXPECT_THROW(JakesRayleighFading(0.0, util::Rng(1)), std::invalid_argument);
  EXPECT_THROW(JakesRayleighFading(3.0, util::Rng(1), 0), std::invalid_argument);
}

TEST(RicianFading, UnitMeanForAnyK) {
  for (const double k : {0.0, 1.0, 5.0, 20.0}) {
    util::OnlineStats stats;
    for (int run = 0; run < 150; ++run) {
      RicianFading fading(3.0, k, util::Rng(run * 17 + 3));
      for (int i = 0; i < 100; ++i) stats.add(fading.power_gain(i * 1.7));
    }
    EXPECT_NEAR(stats.mean(), 1.0, 0.05) << "K=" << k;
  }
}

TEST(RicianFading, LargerKMeansLessVariance) {
  const auto variance_for = [](double k) {
    util::OnlineStats stats;
    for (int run = 0; run < 200; ++run) {
      RicianFading fading(3.0, k, util::Rng(run * 29 + 11));
      for (int i = 0; i < 100; ++i) stats.add(fading.power_gain(i * 1.7));
    }
    return stats.variance();
  };
  const double v0 = variance_for(0.0);
  const double v5 = variance_for(5.0);
  const double v20 = variance_for(20.0);
  EXPECT_GT(v0, v5);
  EXPECT_GT(v5, v20);
}

TEST(RicianFading, Validation) {
  EXPECT_THROW(RicianFading(3.0, -0.1, util::Rng(1)), std::invalid_argument);
}

TEST(BlockFading, ConstantWithinBlockFreshAcross) {
  BlockRayleighFading fading(1.0, util::Rng(5));
  const double g0 = fading.power_gain(0.1);
  EXPECT_EQ(fading.power_gain(0.5), g0);
  EXPECT_EQ(fading.power_gain(0.99), g0);
  const double g1 = fading.power_gain(1.01);
  EXPECT_NE(g1, g0);
  EXPECT_EQ(fading.power_gain(1.9), g1);
}

TEST(BlockFading, UnitMean) {
  BlockRayleighFading fading(0.1, util::Rng(6));
  util::OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(fading.power_gain(i * 0.1 + 0.05));
  EXPECT_NEAR(stats.mean(), 1.0, 0.03);
}

TEST(BlockFading, Validation) {
  EXPECT_THROW(BlockRayleighFading(0.0, util::Rng(1)), std::invalid_argument);
}

TEST(BesselJ0, KnownValues) {
  // The A&S/NR rational approximation is good to ~1e-8.
  EXPECT_NEAR(bessel_j0(0.0), 1.0, 1e-7);
  EXPECT_NEAR(bessel_j0(1.0), 0.7651976866, 1e-7);
  EXPECT_NEAR(bessel_j0(2.404825558), 0.0, 1e-6);  // first zero
  EXPECT_NEAR(bessel_j0(5.0), -0.1775967713, 1e-7);
  EXPECT_NEAR(bessel_j0(10.0), -0.2459357645, 1e-6);
  EXPECT_NEAR(bessel_j0(-1.0), bessel_j0(1.0), 1e-12);  // even function
}

}  // namespace
}  // namespace caem::channel
