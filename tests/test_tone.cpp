// Tests for the tone signaling subsystem (Table I).
#include <gtest/gtest.h>
#include <cmath>
#include <functional>

#include "energy/radio_energy_model.hpp"
#include "sim/simulator.hpp"
#include "tone/tone_broadcaster.hpp"
#include "tone/tone_codec.hpp"
#include "tone/tone_monitor.hpp"

namespace caem::tone {
namespace {

// The CSI-oracle seam: an arbitrary true-SNR curve in place of a link.
struct SnrCurve final : channel::SnrSource {
  explicit SnrCurve(std::function<double(double)> curve) : curve_(std::move(curve)) {}
  double snr_db(double time_s) override { return curve_(time_s); }
  std::function<double(double)> curve_;
};

TEST(ToneSignal, TableOnePatterns) {
  const PulsePattern idle = pattern_for(ToneState::kIdle);
  EXPECT_DOUBLE_EQ(idle.pulse_duration_s, 1e-3);
  EXPECT_DOUBLE_EQ(idle.period_s, 50e-3);
  EXPECT_TRUE(idle.repeating);

  const PulsePattern receive = pattern_for(ToneState::kReceive);
  EXPECT_DOUBLE_EQ(receive.pulse_duration_s, 0.5e-3);
  EXPECT_DOUBLE_EQ(receive.period_s, 10e-3);
  EXPECT_TRUE(receive.repeating);

  const PulsePattern collision = pattern_for(ToneState::kCollision);
  EXPECT_DOUBLE_EQ(collision.pulse_duration_s, 0.5e-3);
  EXPECT_FALSE(collision.repeating);
}

TEST(ToneSignal, DutyCycles) {
  EXPECT_NEAR(pattern_for(ToneState::kIdle).duty_cycle(), 0.02, 1e-12);
  EXPECT_NEAR(pattern_for(ToneState::kReceive).duty_cycle(), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(pattern_for(ToneState::kCollision).duty_cycle(), 0.0);
}

TEST(ToneCodec, RoundTripIntervals) {
  const ToneCodec codec;
  for (const ToneState state : {ToneState::kIdle, ToneState::kReceive}) {
    const double interval = codec.nominal_interval_s(state);
    const auto decoded = codec.classify_interval(interval);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, state);
  }
}

TEST(ToneCodec, ToleratesJitterWithinBound) {
  const ToneCodec codec(0.2);
  EXPECT_EQ(codec.classify_interval(50e-3 * 1.15).value(), ToneState::kIdle);
  EXPECT_EQ(codec.classify_interval(10e-3 * 0.85).value(), ToneState::kReceive);
  EXPECT_FALSE(codec.classify_interval(25e-3).has_value());  // between states
  EXPECT_FALSE(codec.classify_interval(0.0).has_value());
  EXPECT_FALSE(codec.classify_interval(-1.0).has_value());
}

TEST(ToneCodec, PulseDurationClassification) {
  const ToneCodec codec;
  EXPECT_EQ(codec.classify_pulse_duration(1e-3).value(), ToneState::kIdle);
  EXPECT_EQ(codec.classify_pulse_duration(0.5e-3).value(), ToneState::kReceive);
  EXPECT_FALSE(codec.classify_pulse_duration(2e-3).has_value());
}

TEST(ToneCodec, AcquisitionBound) {
  const ToneCodec codec;
  EXPECT_DOUBLE_EQ(codec.worst_case_acquisition_s(), 100e-3);
  EXPECT_THROW(ToneCodec(0.0), std::invalid_argument);
  EXPECT_THROW(ToneCodec(0.6), std::invalid_argument);
}

// ---- broadcaster with a live simulator ----

class BroadcasterTest : public ::testing::Test {
 protected:
  BroadcasterTest()
      : battery_(100.0),
        radio_(energy::RadioId::kTone, profile(), &battery_, &ledger_),
        broadcaster_(&sim_, &radio_) {}

  static energy::RadioPowerProfile profile() {
    energy::RadioPowerProfile p;
    p.sleep_w = 0.0;
    p.idle_w = 0.0;  // isolate the pulse (tx) energy
    p.tx_w = 92e-3;
    p.startup_time_s = 0.0;
    return p;
  }

  sim::Simulator sim_;
  energy::Battery battery_;
  energy::EnergyLedger ledger_;
  energy::Radio radio_;
  ToneBroadcaster broadcaster_;
};

TEST_F(BroadcasterTest, IdlePulseEnergyMatchesDutyCycle) {
  broadcaster_.start(0.0);
  sim_.run_until(10.0);
  broadcaster_.stop(sim_.now());
  // 10 s of idle tones: 1 ms pulse per 50 ms -> 200 ms on air at 92 mW.
  const double expected = 0.2 * 92e-3;
  EXPECT_NEAR(ledger_.entry(energy::RadioId::kTone, energy::RadioState::kTx), expected,
              expected * 0.05);
  EXPECT_NEAR(static_cast<double>(broadcaster_.pulses_emitted()), 200.0, 5.0);
}

TEST_F(BroadcasterTest, StateChangeEmitsLeadingPulseImmediately) {
  broadcaster_.start(0.0);
  sim_.run_until(0.105);
  const auto pulses_before = broadcaster_.pulses_emitted();
  broadcaster_.set_state(sim_.now(), ToneState::kReceive);
  EXPECT_EQ(broadcaster_.state(), ToneState::kReceive);
  EXPECT_GT(broadcaster_.pulses_emitted(), pulses_before);  // leading pulse
}

TEST_F(BroadcasterTest, ReceivePulsesAtTenMsCadence) {
  broadcaster_.start(0.0);
  sim_.run_until(0.01);
  broadcaster_.set_state(sim_.now(), ToneState::kReceive);
  const auto before = broadcaster_.pulses_emitted();
  sim_.run_until(sim_.now() + 1.0);
  EXPECT_NEAR(static_cast<double>(broadcaster_.pulses_emitted() - before), 100.0, 3.0);
}

TEST_F(BroadcasterTest, CollisionIsOneShotThenReverts) {
  broadcaster_.start(0.0);
  sim_.run_until(0.06);
  broadcaster_.set_state(sim_.now(), ToneState::kCollision, ToneState::kIdle);
  EXPECT_EQ(broadcaster_.state(), ToneState::kCollision);
  sim_.run_until(sim_.now() + 0.01);  // pulse (0.5 ms) completes
  EXPECT_EQ(broadcaster_.state(), ToneState::kIdle);
}

TEST_F(BroadcasterTest, StopSilencesAndSleeps) {
  broadcaster_.start(0.0);
  sim_.run_until(0.2);
  broadcaster_.stop(sim_.now());
  EXPECT_FALSE(broadcaster_.running());
  const auto pulses = broadcaster_.pulses_emitted();
  sim_.run_until(1.0);
  EXPECT_EQ(broadcaster_.pulses_emitted(), pulses);  // no pulses after stop
  EXPECT_EQ(radio_.state(), energy::RadioState::kSleep);
}

TEST_F(BroadcasterTest, SetStateBeforeStartIsIgnored) {
  broadcaster_.set_state(0.0, ToneState::kReceive);
  EXPECT_EQ(broadcaster_.state(), ToneState::kIdle);
}

// ---- monitor ----

TEST_F(BroadcasterTest, MonitorSeesStateWithStaleness) {
  SnrCurve csi([](double) { return 15.0; });
  ToneMonitor monitor(&csi, /*sensing_delay=*/1e-3, /*csi_noise=*/0.0, util::Rng(1));
  EXPECT_FALSE(monitor.hears_tone());
  monitor.attach(&broadcaster_);
  EXPECT_FALSE(monitor.hears_tone());  // attached but not broadcasting
  broadcaster_.start(0.0);
  sim_.run_until(0.05);
  EXPECT_TRUE(monitor.hears_tone());
  EXPECT_EQ(monitor.observed_state(sim_.now()), ToneState::kIdle);

  const double change_at = sim_.now();
  broadcaster_.set_state(change_at, ToneState::kReceive);
  // Within the classification delay the old state is still believed.
  EXPECT_EQ(monitor.observed_state(change_at + 0.5e-3), ToneState::kIdle);
  EXPECT_EQ(monitor.observed_state(change_at + 1.5e-3), ToneState::kReceive);
}

TEST(ToneMonitor, CsiNoiseAndTruth) {
  SnrCurve ramp([](double t) { return 10.0 + t; });
  ToneMonitor exact(&ramp, 1e-3, 0.0, util::Rng(1));
  EXPECT_DOUBLE_EQ(exact.estimate_csi_db(5.0), 15.0);
  EXPECT_DOUBLE_EQ(exact.true_snr_db(5.0), 15.0);

  SnrCurve flat([](double) { return 10.0; });
  ToneMonitor noisy(&flat, 1e-3, 2.0, util::Rng(2));
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double e = noisy.estimate_csi_db(0.0);
    sum += e;
    sq += e * e;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.1);
  EXPECT_EQ(noisy.true_snr_db(0.0), 10.0);  // the oracle itself is noise-free
}

TEST(ToneMonitor, Validation) {
  EXPECT_THROW(ToneMonitor(nullptr, 1e-3, 0.0, util::Rng(1)), std::invalid_argument);
  SnrCurve zero([](double) { return 0.0; });
  EXPECT_THROW(ToneMonitor(&zero, -1.0, 0.0, util::Rng(1)), std::invalid_argument);
  ToneMonitor detached(&zero, 1e-3, 0.0, util::Rng(1));
  EXPECT_THROW((void)detached.observed_state(0.0), std::logic_error);
}

}  // namespace
}  // namespace caem::tone
