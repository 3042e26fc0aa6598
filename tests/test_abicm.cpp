// Tests for the 4-mode ABICM table and frame timing.
#include <gtest/gtest.h>

#include "phy/abicm.hpp"
#include "phy/frame.hpp"
#include "util/units.hpp"

namespace caem::phy {
namespace {

TEST(AbicmTable, PaperThroughputLevels) {
  const AbicmTable table;
  ASSERT_EQ(table.size(), 4u);
  EXPECT_DOUBLE_EQ(table.mode(0).data_rate_bps, 250e3);
  EXPECT_DOUBLE_EQ(table.mode(1).data_rate_bps, 450e3);
  EXPECT_DOUBLE_EQ(table.mode(2).data_rate_bps, 1e6);
  EXPECT_DOUBLE_EQ(table.mode(3).data_rate_bps, 2e6);
  EXPECT_EQ(table.highest(), 3u);
}

TEST(AbicmTable, ModeSelectionBoundaries) {
  const AbicmTable table;
  EXPECT_FALSE(table.mode_for_snr(5.99).has_value());  // outage
  EXPECT_EQ(table.mode_for_snr(6.0).value(), 0u);
  EXPECT_EQ(table.mode_for_snr(9.99).value(), 0u);
  EXPECT_EQ(table.mode_for_snr(10.0).value(), 1u);
  EXPECT_EQ(table.mode_for_snr(14.0).value(), 2u);
  EXPECT_EQ(table.mode_for_snr(18.0).value(), 3u);
  EXPECT_EQ(table.mode_for_snr(99.0).value(), 3u);
}

TEST(AbicmTable, SelectionIsMonotoneInSnr) {
  const AbicmTable table;
  int previous = -1;
  for (double snr = -5.0; snr <= 30.0; snr += 0.25) {
    const auto mode = table.mode_for_snr(snr);
    const int current = mode.has_value() ? static_cast<int>(*mode) : -1;
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST(AbicmTable, AirTimeInverseToRate) {
  const AbicmTable table;
  const double bits = 2048.0;
  double previous = 1e9;
  for (ModeIndex mode = 0; mode < kModeCount; ++mode) {
    const double air = table.air_time_s(mode, bits);
    EXPECT_LT(air, previous);
    previous = air;
  }
  EXPECT_NEAR(table.air_time_s(3, 2048.0), 2048.0 / 2e6, 1e-12);
  EXPECT_NEAR(table.air_time_s(0, 2048.0), 2048.0 / 250e3, 1e-12);
}

TEST(AbicmTable, AirTimeValidation) {
  const AbicmTable table;
  EXPECT_THROW((void)table.air_time_s(0, -1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(table.air_time_s(0, 0.0), 0.0);
}

TEST(AbicmTable, CustomTableValidation) {
  auto make = [](double t0, double t1, double r0, double r1) {
    return AbicmTable(std::array<AbicmMode, kModeCount>{
        AbicmMode{0, "a", Modulation::kBpsk, code_rate_half(), r0, t0},
        AbicmMode{1, "b", Modulation::kQpsk, code_rate_half(), r1, t1},
        AbicmMode{2, "c", Modulation::kQam16, code_rate_half(), r1 * 2, t1 + 4},
        AbicmMode{3, "d", Modulation::kQam16, code_rate_half(), r1 * 4, t1 + 8},
    });
  };
  EXPECT_NO_THROW(make(6.0, 10.0, 250e3, 450e3));
  EXPECT_THROW(make(10.0, 6.0, 250e3, 450e3), std::invalid_argument);  // thresholds
  EXPECT_THROW(make(6.0, 10.0, 450e3, 250e3), std::invalid_argument);  // rates
  EXPECT_THROW(make(6.0, 10.0, 0.0, 450e3), std::invalid_argument);    // zero rate
}

TEST(AbicmTable, ThresholdAccessor) {
  const AbicmTable table;
  EXPECT_DOUBLE_EQ(table.threshold_snr_db(0), 6.0);
  EXPECT_DOUBLE_EQ(table.threshold_snr_db(3), 18.0);
  EXPECT_THROW((void)table.threshold_snr_db(4), std::out_of_range);
}

TEST(FrameTiming, SingleFrameComposition) {
  const AbicmTable table;
  const FrameFormat format{2048.0, 64.0, 64e-6};
  const FrameTiming timing(format, &table);
  // header always at base rate (250 kbps).
  const double header_s = 64.0 / 250e3;
  EXPECT_NEAR(timing.frame_air_time_s(3), 64e-6 + header_s + 2048.0 / 2e6, 1e-12);
  EXPECT_NEAR(timing.frame_air_time_s(0), 64e-6 + header_s + 2048.0 / 250e3, 1e-12);
}

TEST(FrameTiming, BurstSharesOnePreamble) {
  const AbicmTable table;
  const FrameTiming timing(FrameFormat{2048.0, 64.0, 64e-6}, &table);
  const double one = timing.burst_air_time_s(3, 1);
  const double three = timing.burst_air_time_s(3, 3);
  EXPECT_NEAR(one, timing.frame_air_time_s(3), 1e-12);
  // 3 frames = 3x(header+payload) + 1 preamble < 3x full frames.
  EXPECT_LT(three, 3.0 * one);
  EXPECT_NEAR(three - one, 2.0 * (one - 64e-6), 1e-12);
  EXPECT_DOUBLE_EQ(timing.burst_air_time_s(3, 0), 0.0);
}

TEST(FrameTiming, Validation) {
  const AbicmTable table;
  EXPECT_THROW(FrameTiming(FrameFormat{0.0, 64.0, 0.0}, &table), std::invalid_argument);
  EXPECT_THROW(FrameTiming(FrameFormat{100.0, -1.0, 0.0}, &table), std::invalid_argument);
  EXPECT_THROW(FrameTiming(FrameFormat{}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace caem::phy
