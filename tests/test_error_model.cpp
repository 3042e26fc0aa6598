// Tests for the packet error model.
#include <gtest/gtest.h>

#include "phy/error_model.hpp"

namespace caem::phy {
namespace {

class ErrorModelTest : public ::testing::Test {
 protected:
  AbicmTable table_;
  PacketErrorModel model_{&table_};
};

TEST_F(ErrorModelTest, PerWithinBounds) {
  for (ModeIndex mode = 0; mode < kModeCount; ++mode) {
    for (double snr = -10.0; snr <= 30.0; snr += 1.0) {
      const double per = model_.packet_error_rate(mode, snr, 2048.0);
      EXPECT_GE(per, 0.0);
      EXPECT_LE(per, 1.0);
    }
  }
}

class PerMonotonicity : public ::testing::TestWithParam<ModeIndex> {
 protected:
  AbicmTable table_;
  PacketErrorModel model_{&table_};
};

TEST_P(PerMonotonicity, DecreasesWithSnr) {
  double previous = 1.0;
  for (double snr = -10.0; snr <= 30.0; snr += 0.5) {
    const double per = model_.packet_error_rate(GetParam(), snr, 2048.0);
    EXPECT_LE(per, previous + 1e-12);
    previous = per;
  }
}

TEST_P(PerMonotonicity, IncreasesWithLength) {
  const double snr = table_.mode(GetParam()).min_snr_db;  // worst in-mode SNR
  double previous = 0.0;
  for (double bits = 128.0; bits <= 16384.0; bits *= 2.0) {
    const double per = model_.packet_error_rate(GetParam(), snr, bits);
    EXPECT_GE(per, previous - 1e-12);
    previous = per;
  }
}

TEST_P(PerMonotonicity, SmallResidualAtSwitchingThreshold) {
  // The mode thresholds were chosen so a 2 kbit packet survives at the
  // switching point with high probability.
  const ModeIndex mode = GetParam();
  const double per =
      model_.packet_error_rate(mode, table_.mode(mode).min_snr_db, 2048.0);
  EXPECT_LT(per, 0.05) << "mode " << mode;
}

TEST_P(PerMonotonicity, HopelessFarBelowThreshold) {
  const ModeIndex mode = GetParam();
  const double per =
      model_.packet_error_rate(mode, table_.mode(mode).min_snr_db - 15.0, 2048.0);
  EXPECT_GT(per, 0.9) << "mode " << mode;
}

INSTANTIATE_TEST_SUITE_P(AllModes, PerMonotonicity,
                         ::testing::Values(ModeIndex{0}, ModeIndex{1}, ModeIndex{2},
                                           ModeIndex{3}));

TEST_F(ErrorModelTest, ZeroBitsAlwaysSucceeds) {
  EXPECT_DOUBLE_EQ(model_.packet_error_rate(0, -20.0, 0.0), 0.0);
}

TEST_F(ErrorModelTest, Validation) {
  EXPECT_THROW(PacketErrorModel(nullptr), std::invalid_argument);
  EXPECT_THROW((void)model_.packet_error_rate(0, 10.0, -5.0), std::invalid_argument);
}

TEST_F(ErrorModelTest, CodingGainVisible) {
  // Mode 0 (rate 1/2, 4.5 dB gain) beats an uncoded BPSK evaluation at
  // the same raw SNR.
  const double raw = 5.0;
  const double coded_ber = model_.bit_error_rate(0, raw);
  const double uncoded_ber = bit_error_rate_db(Modulation::kBpsk, raw);
  EXPECT_LT(coded_ber, uncoded_ber);
}

}  // namespace
}  // namespace caem::phy
