// Integration tests for the MAC layer: a controllable mini-cluster with
// one CH and a few sensors over deterministic "channels".
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/backoff.hpp"
#include "mac/cluster_head_mac.hpp"
#include "mac/sensor_mac.hpp"
#include "phy/abicm.hpp"
#include "phy/error_model.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "tone/tone_broadcaster.hpp"

namespace caem::mac {
namespace {

energy::RadioPowerProfile data_profile() {
  energy::RadioPowerProfile p;
  p.sleep_w = 3.5e-6;
  p.startup_w = 0.66;
  p.idle_w = 5e-3;
  p.rx_w = 0.305;
  p.tx_w = 0.66;
  p.startup_time_s = 2e-3;
  return p;
}

energy::RadioPowerProfile tone_profile() {
  energy::RadioPowerProfile p;
  p.sleep_w = 1e-6;
  p.startup_w = 36e-3;
  p.idle_w = 36e-3 * 0.04;
  p.rx_w = 36e-3;
  p.tx_w = 92e-3;
  p.startup_time_s = 0.5e-3;
  return p;
}

// The CSI-oracle seam: a constant true SNR in place of a link.
struct ConstantSnr final : channel::SnrSource {
  explicit ConstantSnr(double db) : db_(db) {}
  double snr_db(double) override { return db_; }
  double db_;
};

// One simulated sensor with all of its parts.
struct TestSensor {
  TestSensor(sim::Simulator* sim, std::uint32_t id, const phy::AbicmTable* table,
             const phy::FrameTiming* timing, const phy::PacketErrorModel* error_model,
             double snr_db, queueing::ThresholdPolicy policy, double deadline_s = 0.0)
      : csi(snr_db),
        battery(50.0),
        data_radio(energy::RadioId::kData, data_profile(), &battery, &ledger),
        tone_radio(energy::RadioId::kTone, tone_profile(), &battery, &ledger),
        queue(50),
        controller(policy, table, 5, 15),
        monitor(&csi, 1e-3, 0.0, util::Rng(id * 7 + 1)) {
    SensorMacConfig config;
    config.burst.hold_timeout_s = 0.5;
    config.csi_gate_deadline_s = deadline_s;
    mac = std::make_unique<SensorMac>(sim, id, config, &data_radio, &tone_radio, &queue,
                                      &controller, &monitor, table, timing, error_model,
                                      util::Rng(id * 13 + 2));
    mac->set_drop_callback(
        [this](const queueing::Packet&, queueing::DropReason, double) { ++drops; });
  }

  void add_packets(std::size_t count, double now) {
    for (std::size_t i = 0; i < count; ++i) {
      queueing::Packet packet;
      packet.id = next_id++;
      packet.created_s = now;
      queue.push(packet, now);
      controller.on_arrival(queue.size());
      mac->on_packet_arrival(now);
    }
  }

  ConstantSnr csi;
  energy::Battery battery;
  energy::EnergyLedger ledger;
  energy::Radio data_radio;
  energy::Radio tone_radio;
  queueing::PacketQueue queue;
  queueing::ThresholdController controller;
  tone::ToneMonitor monitor;
  std::unique_ptr<SensorMac> mac;
  std::uint64_t next_id = 1;
  int drops = 0;
};

class MacTest : public ::testing::Test {
 protected:
  MacTest()
      : timing_(phy::FrameFormat{}, &table_),
        error_model_(&table_),
        ch_battery_(50.0),
        ch_data_(energy::RadioId::kData, data_profile(), &ch_battery_, &ch_ledger_),
        ch_tone_(energy::RadioId::kTone, tone_profile(), &ch_battery_, &ch_ledger_),
        broadcaster_(&sim_, &ch_tone_),
        ch_mac_(&sim_, 0, &ch_data_, &broadcaster_, 1e-3) {
    ch_mac_.set_delivery_callback([this](const queueing::Packet&, phy::ModeIndex mode,
                                         std::uint32_t, double) {
      ++delivered_;
      last_mode_ = mode;
    });
  }

  TestSensor& add_sensor(double snr_db,
                         queueing::ThresholdPolicy policy = queueing::ThresholdPolicy::kNone,
                         double deadline_s = 0.0) {
    sensors_.push_back(std::make_unique<TestSensor>(
        &sim_, static_cast<std::uint32_t>(sensors_.size() + 1), &table_, &timing_,
        &error_model_, snr_db, policy, deadline_s));
    TestSensor& sensor = *sensors_.back();
    sensor.monitor.attach(&broadcaster_);
    return sensor;
  }

  void start_round(double now = 0.0) {
    ch_mac_.start(now);
    for (auto& sensor : sensors_) sensor->mac->attach_round(now, &ch_mac_);
  }

  sim::Simulator sim_;
  phy::AbicmTable table_;
  phy::FrameTiming timing_;
  phy::PacketErrorModel error_model_;

  energy::Battery ch_battery_;
  energy::EnergyLedger ch_ledger_;
  energy::Radio ch_data_;
  energy::Radio ch_tone_;
  tone::ToneBroadcaster broadcaster_;
  ClusterHeadMac ch_mac_;

  std::vector<std::unique_ptr<TestSensor>> sensors_;
  int delivered_ = 0;
  phy::ModeIndex last_mode_ = 0;
};

TEST_F(MacTest, SingleSensorDeliversBurst) {
  TestSensor& sensor = add_sensor(25.0);  // excellent channel: 2 Mbps mode
  start_round();
  sensor.add_packets(5, 0.0);
  sim_.run_until(2.0);
  EXPECT_EQ(delivered_, 5);
  EXPECT_EQ(last_mode_, 3u);
  EXPECT_TRUE(sensor.queue.empty());
  EXPECT_EQ(sensor.mac->counters().bursts_completed, 1u);
  EXPECT_EQ(sensor.mac->counters().frames_sent, 5u);
  EXPECT_EQ(sensor.mac->state(), SensorState::kSleeping);
  EXPECT_EQ(ch_mac_.frames_received(), 5u);
}

TEST_F(MacTest, BelowMinBurstWaitsForHoldTimeout) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sensor.add_packets(2, 0.0);  // below min burst of 3
  sim_.run_until(0.2);
  EXPECT_EQ(delivered_, 0);  // still holding
  sim_.run_until(2.0);       // hold timeout (0.5 s) has passed
  EXPECT_EQ(delivered_, 2);
}

TEST_F(MacTest, MaxBurstIsEight) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sensor.add_packets(12, 0.0);
  sim_.run_until(5.0);
  EXPECT_EQ(delivered_, 12);  // two accesses: 8 + 4
  EXPECT_GE(sensor.mac->counters().bursts_completed, 2u);
}

TEST_F(MacTest, CsiGateBlocksBadChannelUnderFixedPolicy) {
  TestSensor& sensor = add_sensor(12.0, queueing::ThresholdPolicy::kFixedHighest);
  start_round();
  sensor.add_packets(5, 0.0);
  sim_.run_until(3.0);
  EXPECT_EQ(delivered_, 0);  // 12 dB < 18 dB threshold: starved
  EXPECT_GT(sensor.mac->counters().csi_denied, 10u);
  EXPECT_EQ(sensor.queue.size(), 5u);
}

TEST_F(MacTest, PureLeachTransmitsOnBadChannelAndFails) {
  TestSensor& sensor = add_sensor(0.0, queueing::ThresholdPolicy::kNone);  // deep outage
  start_round();
  sensor.add_packets(3, 0.0);
  sim_.run_until(30.0);
  // Every frame fails CRC; after 6 retries each packet is dropped.
  EXPECT_EQ(delivered_, 0);
  EXPECT_EQ(sensor.drops, 3);
  EXPECT_EQ(sensor.mac->counters().packets_dropped_retry, 3u);
  EXPECT_GT(sensor.mac->counters().frames_failed, 15u);
}

TEST_F(MacTest, DeadlineOverrideUnblocksStarvedSensor) {
  // 12 dB channel never satisfies the fixed 18 dB gate; the deadline
  // override lets aged packets out anyway (at mode 1, which 12 dB allows).
  TestSensor& sensor =
      add_sensor(12.0, queueing::ThresholdPolicy::kFixedHighest, /*deadline=*/0.3);
  start_round();
  sensor.add_packets(5, 0.0);
  sim_.run_until(3.0);
  EXPECT_EQ(delivered_, 5);
  EXPECT_GT(sensor.mac->counters().deadline_overrides, 0u);
  EXPECT_LE(last_mode_, 1u);  // sent at a mode the channel supports
}

TEST_F(MacTest, DeadlineZeroNeverOverrides) {
  TestSensor& sensor =
      add_sensor(12.0, queueing::ThresholdPolicy::kFixedHighest, /*deadline=*/0.0);
  start_round();
  sensor.add_packets(5, 0.0);
  sim_.run_until(3.0);
  EXPECT_EQ(delivered_, 0);
  EXPECT_EQ(sensor.mac->counters().deadline_overrides, 0u);
}

TEST_F(MacTest, AdaptiveControllerUnblocksCongestedSensor) {
  TestSensor& sensor = add_sensor(12.0, queueing::ThresholdPolicy::kAdaptive);
  start_round();
  // Fill well past the arm length; dV >= 0 samples lower the threshold
  // until 12 dB qualifies (class 1 at 10 dB).
  sensor.add_packets(30, 0.0);
  sim_.run_until(5.0);
  EXPECT_GT(delivered_, 0);
  EXPECT_LT(sensor.controller.threshold_class(), 3u);
}

TEST_F(MacTest, TwoSensorsShareChannelWithoutLoss) {
  TestSensor& a = add_sensor(25.0);
  TestSensor& b = add_sensor(25.0);
  start_round();
  a.add_packets(6, 0.0);
  b.add_packets(6, 0.0);
  sim_.run_until(5.0);
  EXPECT_EQ(delivered_, 12);
  EXPECT_TRUE(a.queue.empty());
  EXPECT_TRUE(b.queue.empty());
}

TEST_F(MacTest, ManySensorsEventuallyDrain) {
  for (int i = 0; i < 8; ++i) add_sensor(25.0);
  start_round();
  for (auto& sensor : sensors_) sensor->add_packets(8, 0.0);
  sim_.run_until(20.0);
  EXPECT_EQ(delivered_, 64);
}

TEST_F(MacTest, CollisionDetectedAndResolved) {
  // Force a collision: two sensors with zero-width backoff windows is
  // not directly constructible, so instead run many sensors and check
  // that any collisions the arbiter reports were also heard by sensors
  // and that all packets still get through eventually.
  for (int i = 0; i < 10; ++i) add_sensor(25.0);
  start_round();
  for (auto& sensor : sensors_) sensor->add_packets(3, 0.0);
  sim_.run_until(30.0);
  std::uint64_t sensor_collisions = 0;
  for (auto& sensor : sensors_) sensor_collisions += sensor->mac->counters().collisions;
  if (ch_mac_.collisions() > 0) {
    EXPECT_GE(sensor_collisions, ch_mac_.collisions());  // >=2 sensors per event
  }
  EXPECT_EQ(delivered_, 30);
}

TEST_F(MacTest, RoundDetachAbortsAndPreservesQueue) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sensor.add_packets(8, 0.0);
  // Detach almost immediately: likely mid-acquisition or mid-burst.
  sim_.run_until(0.06);
  sensor.mac->detach_round(sim_.now());
  ch_mac_.stop(sim_.now());
  sim_.run_until(1.0);
  const int delivered_before = delivered_;
  // Packets that were not on the air are still queued.
  EXPECT_EQ(sensor.queue.size() + static_cast<std::size_t>(delivered_before), 8u);
  EXPECT_EQ(sensor.mac->state(), SensorState::kDetached);

  // Re-attach: the remainder flows.
  ch_mac_.start(sim_.now());
  sensor.mac->attach_round(sim_.now(), &ch_mac_);
  sim_.run_until(sim_.now() + 3.0);
  EXPECT_EQ(delivered_, 8);
}

TEST_F(MacTest, ChStopSilencesToneAndSensorsPark) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sim_.run_until(0.2);
  ch_mac_.stop(sim_.now());
  sensor.add_packets(5, sim_.now());
  sim_.run_until(sim_.now() + 2.0);
  EXPECT_EQ(delivered_, 0);
  // The sensor saw no tone at its first check and detached (Fig 3).
  EXPECT_EQ(sensor.mac->state(), SensorState::kDetached);
}

TEST_F(MacTest, DeadSensorDropsQueueAndGoesQuiet) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sensor.add_packets(2, 0.0);  // below min burst: still queued
  sensor.mac->die(0.5);
  EXPECT_EQ(sensor.drops, 2);
  EXPECT_EQ(sensor.mac->state(), SensorState::kDead);
  sim_.run_until(3.0);
  EXPECT_EQ(delivered_, 0);
  // Re-attach attempts are ignored once dead.
  sensor.mac->attach_round(sim_.now(), &ch_mac_);
  EXPECT_EQ(sensor.mac->state(), SensorState::kDead);
}

TEST_F(MacTest, TransmissionEnergyFlowsIntoLedger) {
  TestSensor& sensor = add_sensor(25.0);
  start_round();
  sensor.add_packets(3, 0.0);
  sim_.run_until(2.0);
  ASSERT_EQ(delivered_, 3);
  // Data tx energy ~ burst air time x 0.66 W.
  const double air = timing_.burst_air_time_s(3, 3);
  EXPECT_NEAR(sensor.ledger.entry(energy::RadioId::kData, energy::RadioState::kTx),
              air * 0.66, air * 0.66 * 0.01);
  // Startup charged once.
  EXPECT_NEAR(sensor.ledger.entry(energy::RadioId::kData, energy::RadioState::kStartup),
              2e-3 * 0.66, 1e-6);
  // CH spent rx energy on the same burst.
  EXPECT_NEAR(ch_ledger_.entry(energy::RadioId::kData, energy::RadioState::kRx), air * 0.305,
              air * 0.305 * 0.2);
}

TEST(BackoffPolicy, BoundsAndGrowth) {
  const BackoffPolicy policy;
  util::Rng rng(1);
  for (std::uint32_t retry = 0; retry <= 8; ++retry) {
    const double cap = policy.max_delay_s(retry);
    for (int i = 0; i < 200; ++i) {
      const double delay = policy.delay_s(rng, retry);
      EXPECT_GE(delay, 0.0);
      EXPECT_LT(delay, cap);
    }
  }
  EXPECT_DOUBLE_EQ(policy.max_delay_s(0), 20e-6 * 10);
  EXPECT_DOUBLE_EQ(policy.max_delay_s(3), 8 * 20e-6 * 10);
  // Exponent capped at max_retries = 6.
  EXPECT_DOUBLE_EQ(policy.max_delay_s(9), policy.max_delay_s(6));
}

TEST(BurstPolicyRules, MinMax) {
  const BurstPolicy policy;
  EXPECT_FALSE(policy.should_wake(2));
  EXPECT_TRUE(policy.should_wake(3));
  EXPECT_EQ(policy.burst_size(2), 2u);
  EXPECT_EQ(policy.burst_size(8), 8u);
  EXPECT_EQ(policy.burst_size(20), 8u);
}

TEST(SensorStateNames, ToString) {
  EXPECT_STREQ(to_string(SensorState::kSleeping), "sleeping");
  EXPECT_STREQ(to_string(SensorState::kTransmitting), "transmitting");
  EXPECT_STREQ(to_string(SensorState::kDead), "dead");
}

}  // namespace
}  // namespace caem::mac
