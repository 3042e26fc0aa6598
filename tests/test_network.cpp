// End-to-end integration and property tests on the full network.
// Small networks and short horizons keep each test under a second.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/network.hpp"
#include "core/simulation_runner.hpp"

namespace caem::core {
namespace {

NetworkConfig small_config() {
  NetworkConfig config;
  config.node_count = 20;
  config.field_size_m = 60.0;
  config.ch_fraction = 0.15;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 4.0;
  return config;
}

TEST(Network, RunsAndDeliversPackets) {
  Network network(small_config(), protocol_from_string("leach"), 1);
  network.start();
  network.simulator().run_until(30.0);
  network.finalize();
  const auto& metrics = network.metrics();
  EXPECT_GT(metrics.generated(), 1500u);  // ~20*4*30
  EXPECT_GT(metrics.delivered_total(), metrics.generated() / 2);
  EXPECT_GT(network.rounds_started(), 4u);
}

// An index into paper_protocols() rather than the Protocol itself:
// gtest lists an unprintable parameter's raw bytes in the test name,
// and a Protocol's bytes are a heap address, which made the listed
// names differ from one run of the binary to the next.
struct PaperProtocol {
  std::size_t index;
  [[nodiscard]] Protocol get() const { return paper_protocols().at(index); }
};

std::vector<PaperProtocol> all_paper_protocols() {
  std::vector<PaperProtocol> cases;
  for (std::size_t i = 0; i < paper_protocols().size(); ++i) cases.push_back({i});
  return cases;
}

class ProtocolParam : public ::testing::TestWithParam<PaperProtocol> {};

TEST_P(ProtocolParam, PacketConservation) {
  Network network(small_config(), GetParam().get(), 3);
  network.start();
  network.simulator().run_until(25.0);
  network.finalize();
  const auto& metrics = network.metrics();
  // Every generated packet is delivered, dropped, or still queued.
  std::uint64_t queued = 0;
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    queued += network.node(i).queue().size();
  }
  EXPECT_EQ(metrics.generated(),
            metrics.delivered_total() + metrics.dropped_total() + queued);
}

TEST_P(ProtocolParam, EnergyConservation) {
  Network network(small_config(), GetParam().get(), 4);
  network.start();
  network.simulator().run_until(20.0);
  network.finalize();
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const Node& node = network.node(i);
    // Battery drop == itemised ledger total, exactly.
    EXPECT_NEAR(node.battery().consumed_j(), node.ledger().total(), 1e-9) << "node " << i;
    EXPECT_GE(node.battery().remaining_j(), 0.0);
    EXPECT_LE(node.battery().consumed_j(), node.battery().capacity_j() + 1e-12);
  }
}

TEST_P(ProtocolParam, DelaysArePositiveAndDeliveryRateBounded) {
  Network network(small_config(), GetParam().get(), 5);
  network.start();
  network.simulator().run_until(25.0);
  network.finalize();
  const auto& metrics = network.metrics();
  EXPECT_GE(metrics.delivery_rate(), 0.0);
  EXPECT_LE(metrics.delivery_rate(), 1.0);
  for (const double delay : metrics.delays().values()) EXPECT_GT(delay, 0.0);
}

TEST_P(ProtocolParam, DeterministicForSameSeed) {
  const auto run = [&](std::uint64_t seed) {
    RunOptions options;
    options.max_sim_s = 15.0;
    return SimulationRunner::run(small_config(), GetParam().get(), seed, options);
  };
  const RunResult a = run(77);
  const RunResult b = run(77);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered_air, b.delivered_air);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_DOUBLE_EQ(a.total_consumed_j, b.total_consumed_j);
  const RunResult c = run(78);
  EXPECT_NE(a.generated, c.generated);  // different seed, different draws
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolParam,
                         ::testing::ValuesIn(all_paper_protocols()), [](const auto& info) {
                           // Canonical names carry '-', not valid in test names.
                           std::string name = to_string(info.param.get());
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Network, CaemSavesEnergyVersusPureLeach) {
  // The paper's headline, as a regression gate on a small instance.
  RunOptions options;
  options.max_sim_s = 40.0;
  const NetworkConfig config = small_config();
  const RunResult leach = SimulationRunner::run(config, protocol_from_string("leach"), 11, options);
  const RunResult s1 = SimulationRunner::run(config, protocol_from_string("scheme1"), 11, options);
  const RunResult s2 = SimulationRunner::run(config, protocol_from_string("scheme2"), 11, options);
  EXPECT_LT(s2.total_consumed_j, leach.total_consumed_j);
  EXPECT_LT(s1.total_consumed_j, leach.total_consumed_j);
  EXPECT_LT(s2.energy_per_delivered_packet_j, leach.energy_per_delivered_packet_j * 0.8);
}

TEST(Network, NodesDieAndNetworkStops) {
  NetworkConfig config = small_config();
  config.initial_energy_j = 0.15;  // tiny batteries: deaths within seconds
  RunOptions options;
  options.max_sim_s = 300.0;
  options.run_to_death = true;
  const RunResult result = SimulationRunner::run(config, protocol_from_string("leach"), 6, options);
  EXPECT_EQ(result.final_alive, 0u);
  EXPECT_GE(result.lifetime.first_death_s, 0.0);
  EXPECT_GE(result.lifetime.network_death_s, result.lifetime.first_death_s);
  EXPECT_GE(result.lifetime.last_death_s, result.lifetime.network_death_s);
  EXPECT_LT(result.sim_end_s, 300.0);  // stopped at extinction, not horizon
  // Dead nodes dropped their queues; conservation still holds.
  EXPECT_EQ(result.generated, result.delivered_air + result.delivered_self +
                                  result.dropped_overflow + result.dropped_retry +
                                  result.dropped_death);
}

TEST(Network, AliveSeriesMonotoneNonIncreasing) {
  NetworkConfig config = small_config();
  config.initial_energy_j = 0.2;
  RunOptions options;
  options.max_sim_s = 200.0;
  options.run_to_death = true;
  const RunResult result = SimulationRunner::run(config, protocol_from_string("scheme1"), 8, options);
  double previous = static_cast<double>(config.node_count);
  for (const auto& point : result.nodes_alive.points()) {
    EXPECT_LE(point.value, previous + 1e-12);
    previous = point.value;
  }
}

TEST(Network, RemainingEnergyTraceMonotoneNonIncreasing) {
  Network network(small_config(), protocol_from_string("scheme2"), 9);
  network.start();
  network.simulator().run_until(30.0);
  network.finalize();
  double previous = 1e18;
  for (const auto& point : network.metrics().avg_remaining_energy().points()) {
    EXPECT_LE(point.value, previous + 1e-9);
    previous = point.value;
  }
}

TEST(Network, HotStateMirrorsPerNodeState) {
  // The SoA hot arrays must agree with the per-node objects at any
  // observation point — including after deaths, round rotations and
  // queue churn.
  NetworkConfig config = small_config();
  config.initial_energy_j = 0.02;  // force some deaths within the horizon
  Network network(config, protocol_from_string("caem-scheme1"), 5);
  network.start();
  for (const double t : {7.0, 19.0, 40.0}) {
    network.simulator().run_until(t);
    const NodeHotState& hot = network.hot_state();
    ASSERT_EQ(hot.alive.size(), network.node_count());
    for (std::size_t i = 0; i < network.node_count(); ++i) {
      const Node& node = network.node(i);
      EXPECT_EQ(hot.alive[i] != 0, node.alive()) << "t=" << t << " node " << i;
      EXPECT_EQ(hot.is_ch[i] != 0, node.is_cluster_head()) << "t=" << t << " node " << i;
      EXPECT_EQ(hot.queue_depth[i], node.queue().size()) << "t=" << t << " node " << i;
      EXPECT_DOUBLE_EQ(hot.position[i].x, node.position().x) << "node " << i;
    }
  }
  network.finalize();
  // remaining_energy_j refreshes the energy mirror in place.
  const std::vector<double> remaining = network.remaining_energy_j();
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    EXPECT_DOUBLE_EQ(network.hot_state().remaining_j[i], remaining[i]) << "node " << i;
    EXPECT_DOUBLE_EQ(remaining[i], network.node(i).battery().remaining_j()) << "node " << i;
  }
}

TEST(Network, StartTwiceThrows) {
  Network network(small_config(), protocol_from_string("leach"), 1);
  network.start();
  EXPECT_THROW(network.start(), std::logic_error);
}

TEST(Network, SchemeTwoStarvesFarNodesWithoutAdaptation) {
  // Fairness claim (Fig 12): fixed-threshold queues are more dispersed
  // than adaptive-threshold queues under identical load.
  NetworkConfig config = small_config();
  config.traffic_rate_pps = 8.0;
  config.buffer_capacity = 500;  // paper: large buffers for the fairness study
  RunOptions options;
  options.max_sim_s = 60.0;
  const RunResult fixed = SimulationRunner::run(config, protocol_from_string("scheme2"), 21, options);
  const RunResult adaptive =
      SimulationRunner::run(config, protocol_from_string("scheme1"), 21, options);
  EXPECT_GT(fixed.mean_queue_stddev, adaptive.mean_queue_stddev);
}

// Round-scoped channel state: with a stateless fading model the Links
// (and fading tables) held in memory never outnumber the current round's
// members, since every round end evicts them to their memos; the links
// themselves are only ever member->CH pairs that were queried.
TEST(Network, ResidentFadingStaysWithinTheRoundsMembers) {
  for (const char* fading : {"jakes", "rician"}) {
    NetworkConfig config = small_config();
    config.channel.fading_kind = channel::fading_kind_from_string(fading);
    Network network(config, protocol_from_string("scheme1"), 9);
    network.start();
    std::size_t peak_resident = 0;
    // Sample just after each boundary and twice inside each round.
    for (double t = 0.01; t < 40.0; t += config.round_duration_s / 3.0) {
      network.simulator().run_until(t);
      const Network::ChannelResidency residency = network.channel_residency();
      EXPECT_LE(residency.resident_links, residency.round_members) << fading << " t " << t;
      EXPECT_GT(residency.round_members, 0u) << fading << " t " << t;
      peak_resident = std::max(peak_resident, residency.resident_links);
    }
    const Network::ChannelResidency before_close = network.channel_residency();
    EXPECT_GT(peak_resident, 0u) << fading;
    // Rounds used other pairs, which now wait as memos.
    EXPECT_GT(before_close.resident_links + before_close.memoised_pairs, peak_resident) << fading;
    network.finalize();
    EXPECT_EQ(network.channel_residency().resident_links, 0u) << fading;
    EXPECT_EQ(network.channel_residency().round_members, 0u) << fading;
  }
}

// The same bound on a ranged field with moving nodes, checked at every
// round boundary: just before the boundary the round's Links are all
// resident (at most one per member), just after it the old round's are
// memos and the new round has resolved at most its own members' pairs.
TEST(Network, ResidentLinksStayWithinRoundMembersAtEveryBoundary) {
  NetworkConfig config = small_config();
  config.node_count = 60;
  config.field_size_m = 120.0;
  config.mobility_kind = "waypoint";
  config.channel.radio_range_m = 60.0;
  Network network(config, protocol_from_string("scheme1"), 4);
  network.start();
  std::size_t peak_memoised = 0;
  for (int boundary = 1; boundary <= 8; ++boundary) {
    for (const double offset : {-1e-6, 1e-6}) {
      network.simulator().run_until(boundary * config.round_duration_s + offset);
      const Network::ChannelResidency residency = network.channel_residency();
      EXPECT_LE(residency.resident_links, residency.round_members)
          << "boundary " << boundary << " offset " << offset;
      peak_memoised = std::max(peak_memoised, residency.memoised_pairs);
    }
  }
  EXPECT_GT(peak_memoised, 0u);
  network.finalize();
  EXPECT_EQ(network.channel_residency().resident_links, 0u);
}

TEST(Network, BlockFadingStaysResident) {
  NetworkConfig config = small_config();
  config.channel.fading_kind = channel::FadingKind::kBlock;
  Network network(config, protocol_from_string("scheme1"), 9);
  network.start();
  network.simulator().run_until(30.0);
  network.finalize();
  const Network::ChannelResidency residency = network.channel_residency();
  EXPECT_GT(residency.resident_links, 0u);
  EXPECT_EQ(residency.memoised_pairs, 0u);  // sequential draws: never evicted
}

}  // namespace
}  // namespace caem::core
