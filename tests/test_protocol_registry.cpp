// Tests for the data-driven protocol registry: resolution/aliases/error
// enumeration, the semantics of the registration-only protocols
// (direct, static-cluster, caem-adaptive-deadline), and the pluggability
// contract itself — a throwaway protocol registered at runtime runs
// through run_scenario with zero core edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "energy/uplink_energy_model.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"

namespace caem::core {
namespace {

// First-order radio cost of one bit on the long haul to the virtual sink.
double sink_j_per_bit(const NetworkConfig& config) {
  return energy::first_order_j_per_bit(config.fwd_e_elec_j_per_bit,
                                       config.fwd_eps_amp_j_per_bit_m2, config.bs_distance_m);
}

NetworkConfig small_config() {
  NetworkConfig config;
  config.node_count = 20;
  config.field_size_m = 60.0;
  config.ch_fraction = 0.15;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 4.0;
  return config;
}

TEST(Registry, BuiltInsRegisteredInOrder) {
  const std::vector<Protocol> all = registered_protocols();
  ASSERT_GE(all.size(), 7u);
  const std::vector<std::string> expected{
      "pure-leach",     "caem-scheme1",   "caem-scheme2",          "caem-deadline",
      "direct",         "static-cluster", "caem-adaptive-deadline"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::string(all[i].name()), expected[i]) << "slot " << i;
  }
  const std::vector<Protocol> paper = paper_protocols();
  ASSERT_EQ(paper.size(), 3u);
  EXPECT_EQ(paper[0], all[0]);
  EXPECT_EQ(paper[2], all[2]);
}

TEST(Registry, AliasesResolveToTheSameHandle) {
  EXPECT_EQ(protocol_from_string("direct-to-sink"), protocol_from_string("direct"));
  EXPECT_EQ(protocol_from_string("static"), protocol_from_string("static-cluster"));
  EXPECT_EQ(protocol_from_string("adaptive-deadline"),
            protocol_from_string("caem-adaptive-deadline"));
  // Default handle is the first registration.
  EXPECT_EQ(Protocol{}, protocol_from_string("pure-leach"));
}

TEST(Registry, UnknownNameEnumeratesEveryValidSpelling) {
  try {
    (void)protocol_from_string("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown protocol 'bogus'"), std::string::npos) << message;
    for (const Protocol protocol : registered_protocols()) {
      EXPECT_NE(message.find(protocol.name()), std::string::npos)
          << "missing " << protocol.name() << " in: " << message;
    }
    EXPECT_NE(message.find("scheme1"), std::string::npos) << message;  // aliases too
  }
}

TEST(Registry, ScenarioProtocolsParseErrorCarriesKeyContext) {
  try {
    (void)scenario::ScenarioSpec::from_config(
        util::Config::from_text("scenario.protocols = leach,bogus\n"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind("scenario.protocols:", 0), 0u) << message;
    EXPECT_NE(message.find("valid:"), std::string::npos) << message;
    EXPECT_NE(message.find("static-cluster"), std::string::npos) << message;
  }
}

TEST(Registry, RejectsDuplicatesAndBadNames) {
  ProtocolSpec nameless;
  EXPECT_THROW(ProtocolRegistry::instance().add(nameless), std::invalid_argument);
  ProtocolSpec duplicate;
  duplicate.name = "pure-leach";
  EXPECT_THROW(ProtocolRegistry::instance().add(duplicate), std::invalid_argument);
  ProtocolSpec alias_clash;
  alias_clash.name = "definitely-fresh-name";
  alias_clash.aliases = {"scheme2"};
  EXPECT_THROW(ProtocolRegistry::instance().add(alias_clash), std::invalid_argument);
  // Names become cache entry filenames: path separators, whitespace and
  // the reserved "all"/dot tokens must be rejected up front.
  for (const char* bad : {"my/proto", "..", "has space", "comma,name", "all"}) {
    ProtocolSpec unsafe;
    unsafe.name = bad;
    EXPECT_THROW(ProtocolRegistry::instance().add(unsafe), std::invalid_argument) << bad;
  }
  ProtocolSpec bad_alias;
  bad_alias.name = "another-fresh-name";
  bad_alias.aliases = {"nested/alias"};
  EXPECT_THROW(ProtocolRegistry::instance().add(bad_alias), std::invalid_argument);
}

// ---- registration-only protocol semantics ----

TEST(DirectProtocol, UplinksEverythingWithoutClusters) {
  RunOptions options;
  options.max_sim_s = 30.0;
  NetworkConfig config = small_config();
  Network network(config, protocol_from_string("direct"), 11);
  network.start();
  network.simulator().run_until(options.max_sim_s);
  network.finalize();
  const auto& metrics = network.metrics();
  // No round machinery at all: no CHs, no collisions, no queueing.
  EXPECT_EQ(network.rounds_started(), 0u);
  EXPECT_EQ(network.collisions_total(), 0u);
  EXPECT_GT(metrics.generated(), 0u);
  EXPECT_EQ(metrics.delivered(), metrics.generated());
  EXPECT_EQ(metrics.self_delivered(), 0u);
  EXPECT_EQ(metrics.dropped_total(), 0u);
  EXPECT_DOUBLE_EQ(metrics.delays().mean(), 0.0);
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    EXPECT_EQ(network.node(i).queue().size(), 0u);
    EXPECT_FALSE(network.node(i).is_cluster_head());
  }
  // Every uplink is charged the first-order radio cost for the full
  // packet (no aggregation); with the radios never driven out of their
  // initial state, that is essentially the whole energy story.
  const double per_packet = config.packet_bits * sink_j_per_bit(config);
  const double uplink_j = per_packet * static_cast<double>(metrics.delivered());
  EXPECT_GE(network.total_consumed_j(), uplink_j - 1e-9);
  EXPECT_LT(network.total_consumed_j(), uplink_j * 1.05 + 1.0);
}

TEST(DirectProtocol, UnderfundedFinalUplinkDropsInsteadOfDelivering) {
  // Give each node only a few packets' worth of charge: the arrival
  // that cannot fund the full long-haul cost must book a death drop,
  // never a delivery on partial energy.
  RunOptions options;
  options.max_sim_s = 30.0;
  NetworkConfig config = small_config();
  config.initial_energy_j = 0.05;  // ~16 uplinks at the default cost
  const RunResult result =
      SimulationRunner::run(config, protocol_from_string("direct"), 31, options);
  EXPECT_EQ(result.final_alive, 0u);
  EXPECT_GT(result.dropped_death, 0u);
  EXPECT_LT(result.delivered_air, result.generated);
  EXPECT_EQ(result.delivered_air + result.dropped_death, result.generated);
  // Delivered energy accounting stays honest: every counted delivery
  // was fully funded.
  const double per_packet = config.packet_bits * sink_j_per_bit(config);
  EXPECT_GE(result.total_consumed_j,
            per_packet * static_cast<double>(result.delivered_air) - 1e-9);
}

TEST(StaticClusterProtocol, KeepsRoundStructureButNeverReElects) {
  RunOptions options;
  options.max_sim_s = 30.0;
  const RunResult result =
      SimulationRunner::run(small_config(), protocol_from_string("static-cluster"), 17, options);
  EXPECT_GT(result.generated, 0u);
  EXPECT_GT(result.delivered_air, 0u);  // the frozen clusters do carry data
  const RunResult leach =
      SimulationRunner::run(small_config(), protocol_from_string("leach"), 17, options);
  EXPECT_GT(leach.delivered_air, 0u);
}

TEST(AdaptiveDeadlineProtocol, CompletesThePolicyMatrix) {
  const ProtocolSpec& spec = protocol_from_string("caem-adaptive-deadline").spec();
  EXPECT_EQ(spec.policy, queueing::ThresholdPolicy::kAdaptive);
  EXPECT_TRUE(spec.deadline_override);
  ASSERT_TRUE(static_cast<bool>(spec.clustering));
  // And it actually exercises the override in a saturating run.
  RunOptions options;
  options.max_sim_s = 40.0;
  NetworkConfig config = small_config();
  config.traffic_rate_pps = 12.0;
  config.csi_gate_deadline_s = 0.2;
  const RunResult result = SimulationRunner::run(
      config, protocol_from_string("caem-adaptive-deadline"), 23, options);
  EXPECT_GT(result.mac.deadline_overrides, 0u);
  const RunResult plain =
      SimulationRunner::run(config, protocol_from_string("scheme1"), 23, options);
  EXPECT_EQ(plain.mac.deadline_overrides, 0u);
}

// ---- the pluggability contract ----

TEST(Registry, RuntimeRegistrationRunsThroughTheScenarioEngine) {
  // A brand-new protocol assembled purely from spec data: Scheme 2's
  // gate on static clusters.  No Network/Node/scenario/CLI source knows
  // this name — if this test passes, adding a protocol really is a
  // registration, not a refactor.
  static const Protocol kThrowaway = [] {
    ProtocolSpec spec;
    spec.name = "test-throwaway";
    spec.aliases = {"throwaway"};
    spec.summary = "runtime-registered test protocol";
    spec.policy = queueing::ThresholdPolicy::kFixedHighest;
    spec.clustering_name = "static-once";
    spec.clustering = [](const NetworkConfig& config) {
      return std::make_unique<leach::StaticClustering>(config.node_count, config.ch_fraction);
    };
    return ProtocolRegistry::instance().add(std::move(spec));
  }();

  scenario::ScenarioSpec spec;
  spec.name = "throwaway";
  spec.base_config = small_config();
  spec.base_seed = 5;
  spec.replications = 2;
  spec.options.max_sim_s = 10.0;
  spec.protocols = {kThrowaway, protocol_from_string("scheme2")};
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  ASSERT_EQ(result.points.size(), 1u);
  ASSERT_EQ(result.points[0].protocols.size(), 2u);
  EXPECT_EQ(result.points[0].protocols[0].protocol, kThrowaway);
  EXPECT_GT(result.points[0].protocols[0].replicated.total_consumed_j.mean(), 0.0);

  // Registry lookups, summary rendering and cache keys all see it.
  EXPECT_EQ(protocol_from_string("throwaway"), kThrowaway);
  const util::TableWriter table = scenario::summary_table(result);
  EXPECT_NE(table.to_string().find("test-throwaway"), std::string::npos);
  const scenario::ResultCache cache("unused-root");
  const std::string key =
      cache.entry_key(spec.base_config, kThrowaway, 5, spec.options);
  EXPECT_NE(key.find("test-throwaway_s5_"), std::string::npos) << key;
}

}  // namespace
}  // namespace caem::core
