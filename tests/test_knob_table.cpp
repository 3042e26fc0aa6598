// Tests for the NetworkConfig knob table: the table-driven canonical text
// against the hand-written renderer it replaced (kept here as the
// oracle), override round trips for every knob, and the range checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <locale>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "support/golden_matrix.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/table_writer.hpp"

namespace caem::core {
namespace {

// The hand-written canonical_text() the knob table replaced, verbatim
// but for the sim-semantics line, which reads 2 once packets leave the
// CH.  It is the oracle the table's rendering must match byte for byte.
std::string legacy_canonical_text(const NetworkConfig& c) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  const auto put = [&out](const char* key, const std::string& value) {
    out << key << '=' << value << '\n';
  };
  const auto put_d = [&put](const char* key, double value) {
    put(key, util::format_full(value));
  };
  const auto put_u = [&put](const char* key, std::uint64_t value) {
    put(key, std::to_string(value));
  };
  const bool routed = c.routing != UplinkRoutingConfig{};
  out << (routed ? "caem-config-v3\n" : "caem-config-v2\n");
  out << (routed || c.ch_forward_enabled ? "sim-semantics=2\n" : "sim-semantics=1\n");
  put_u("node_count", c.node_count);
  put_d("field_size_m", c.field_size_m);
  put_d("ch_fraction", c.ch_fraction);
  put_d("round_duration_s", c.round_duration_s);
  put_d("traffic_rate_pps", c.traffic_rate_pps);
  put("traffic_kind", c.traffic_kind);
  put_d("packet_bits", c.packet_bits);
  put_u("buffer_capacity", c.buffer_capacity);
  put_u("sample_every_m", c.sample_every_m);
  put_u("arm_queue_length", c.arm_queue_length);
  put_d("backoff.slot_s", c.backoff.slot_s);
  put_u("backoff.cw", c.backoff.cw);
  put_u("backoff.max_retries", c.backoff.max_retries);
  put_u("burst.min_packets", c.burst.min_packets);
  put_u("burst.max_packets", c.burst.max_packets);
  put_d("burst.hold_timeout_s", c.burst.hold_timeout_s);
  put_d("check_interval_s", c.check_interval_s);
  put_d("detect_delay_s", c.detect_delay_s);
  put_d("sensing_delay_s", c.sensing_delay_s);
  put_d("tone_classify_delay_s", c.tone_classify_delay_s);
  put_d("csi_noise_db", c.csi_noise_db);
  put_d("channel.path_loss_exponent", c.channel.path_loss_exponent);
  put_d("channel.path_loss_ref_db", c.channel.path_loss_ref_db);
  put_d("channel.shadowing_sigma_db", c.channel.shadowing_sigma_db);
  put_d("channel.shadowing_tau_s", c.channel.shadowing_tau_s);
  put_d("channel.doppler_hz", c.channel.doppler_hz);
  put("channel.fading_kind", channel::to_string(c.channel.fading_kind));
  put_d("channel.rician_k", c.channel.rician_k);
  put_u("channel.jakes_oscillators", c.channel.jakes_oscillators);
  put_u("channel.snr_cache_enabled", c.channel.snr_cache_enabled ? 1 : 0);
  put_d("channel.radio_range_m", c.channel.radio_range_m);
  put_d("channel.spatial_bin_m", c.channel.spatial_bin_m);
  put("mobility_kind", c.mobility_kind);
  put_d("mobility_max_speed_mps", c.mobility_max_speed_mps);
  put_d("mobility_pause_s", c.mobility_pause_s);
  put_d("tx_power_dbm", c.tx_power_dbm);
  put_d("rx_noise_figure_db", c.rx_noise_figure_db);
  put_d("noise_bandwidth_hz", c.noise_bandwidth_hz);
  put_d("header_bits", c.header_bits);
  put_d("preamble_s", c.preamble_s);
  put_d("initial_energy_j", c.initial_energy_j);
  put_d("data_tx_w", c.data_tx_w);
  put_d("data_rx_w", c.data_rx_w);
  put_d("data_idle_w", c.data_idle_w);
  put_d("data_sleep_w", c.data_sleep_w);
  put_d("data_startup_s", c.data_startup_s);
  put_d("tone_tx_w", c.tone_tx_w);
  put_d("tone_rx_w", c.tone_rx_w);
  put_d("tone_monitor_duty", c.tone_monitor_duty);
  put_d("tone_sleep_w", c.tone_sleep_w);
  put_d("tone_startup_s", c.tone_startup_s);
  put_u("ch_forward_enabled", c.ch_forward_enabled ? 1 : 0);
  put_d("bs_distance_m", c.bs_distance_m);
  put_d("fwd_e_elec_j_per_bit", c.fwd_e_elec_j_per_bit);
  put_d("fwd_eps_amp_j_per_bit_m2", c.fwd_eps_amp_j_per_bit_m2);
  put_d("aggregation_ratio", c.aggregation_ratio);
  put_d("csi_gate_deadline_s", c.csi_gate_deadline_s);
  put_d("dead_fraction", c.dead_fraction);
  put_d("energy_snapshot_interval_s", c.energy_snapshot_interval_s);
  put_d("queue_snapshot_interval_s", c.queue_snapshot_interval_s);
  if (c.routing != UplinkRoutingConfig{}) {
    put("routing.kind", c.routing.kind);
    put_u("routing.max_hops", c.routing.max_hops);
    put_d("routing.relay_rx_j_per_bit", c.routing.relay_rx_j_per_bit);
    put_d("routing.sink_x_m", c.routing.sink_x_m);
    put_d("routing.sink_y_m", c.routing.sink_y_m);
  }
  return out.str();
}

/// A real in the knob's range: a closed bound, the finite top, or a small
/// or uniform offset from the bottom.  Unbounded sides are cut at 1e3.
double draw_real(const Knob& knob, util::Rng& rng) {
  const double lo = std::isinf(knob.lo) ? -1e3 : knob.lo;
  const double hi = std::isinf(knob.hi) ? lo + 1e3 : knob.hi;
  for (;;) {
    const double scale = std::pow(10.0, -static_cast<double>(rng.uniform_int(1, 12)));
    double value = 0.0;
    switch (rng.uniform_int(0, 3)) {
      case 0: value = lo; break;
      case 1: value = hi; break;
      case 2: value = lo + (hi - lo) * rng.uniform() * scale; break;
      default: value = rng.uniform(lo, hi); break;
    }
    if (knob.contains(value)) return value;
  }
}

/// An integer in the knob's range (which lies inside the member's type).
std::uint64_t draw_int(const Knob& knob, util::Rng& rng) {
  const auto lo = static_cast<std::uint64_t>(knob.lo);
  const auto hi = std::isinf(knob.hi) ? lo + 1000000 : static_cast<std::uint64_t>(knob.hi);
  switch (rng.uniform_int(0, 3)) {
    case 0: return lo;
    case 1: return hi;
    default: return rng.uniform_int(lo, std::min(hi, lo + 1000));
  }
}

/// A random config drawn knob by knob from the table's ranges and enum
/// sets, then repaired to satisfy the four cross-field rules.
NetworkConfig random_config(util::Rng& rng) {
  NetworkConfig config;
  for (const Knob& knob : knobs()) {
    std::visit(
        [&](auto* value) {
          using T = std::remove_pointer_t<decltype(value)>;
          if constexpr (std::is_same_v<T, double>) {
            *value = draw_real(knob, rng);
          } else if constexpr (std::is_same_v<T, bool>) {
            *value = rng.uniform_int(0, 1) == 1;
          } else if constexpr (std::is_same_v<T, std::string>) {
            *value = knob.choices[rng.uniform_int(0, knob.choices.size() - 1)];
          } else if constexpr (std::is_same_v<T, channel::FadingKind>) {
            *value = channel::fading_kind_from_string(
                knob.choices[rng.uniform_int(0, knob.choices.size() - 1)]);
          } else {
            *value = static_cast<T>(draw_int(knob, rng));
          }
        },
        knob.field(config));
  }
  if (config.burst.max_packets < config.burst.min_packets) {
    std::swap(config.burst.min_packets, config.burst.max_packets);
  }
  if (config.mobility_kind == "waypoint" && !(config.mobility_max_speed_mps > 0.0)) {
    config.mobility_max_speed_mps = 1.0 + std::fabs(config.mobility_max_speed_mps);
  }
  UplinkRoutingConfig& routing = config.routing;
  const bool geometric = routing.kind != "direct" || routing.sink_x_m >= 0.0;
  routing.sink_x_m = geometric ? std::fabs(routing.sink_x_m) : -1.0 - std::fabs(routing.sink_x_m);
  routing.sink_y_m = geometric ? std::fabs(routing.sink_y_m) : -1.0 - std::fabs(routing.sink_y_m);
  return config;
}

std::vector<NetworkConfig> random_configs(std::size_t count) {
  util::Rng rng(2005);
  std::vector<NetworkConfig> configs;
  for (std::size_t i = 0; i < count; ++i) configs.push_back(random_config(rng));
  return configs;
}

/// Every knob as `override_key=value`.
util::Config as_overrides(const NetworkConfig& config) {
  util::Config overrides;
  for (const Knob& knob : knobs()) overrides.set(knob.override_key(), knob.text(config));
  return overrides;
}

TEST(KnobTable, DeclaresEveryKnobOnceInCanonicalOrder) {
  ASSERT_EQ(knobs().size(), 65u);
  NetworkConfig config;
  std::set<std::string> keys;
  std::set<std::string> override_keys;
  std::size_t aliased = 0;
  bool in_routing_block = false;
  for (const Knob& knob : knobs()) {
    EXPECT_TRUE(keys.insert(knob.key).second) << knob.key;
    EXPECT_TRUE(override_keys.insert(knob.override_key()).second) << knob.override_key();
    aliased += knob.alias != nullptr ? 1 : 0;
    // The routing block is the table's tail: it renders after the rest.
    EXPECT_TRUE(knob.routing_block || !in_routing_block) << knob.key;
    in_routing_block = knob.routing_block;
    const KnobField field = knob.field(config);
    const bool numeric = std::holds_alternative<std::size_t*>(field) ||
                         std::holds_alternative<std::uint32_t*>(field) ||
                         std::holds_alternative<double*>(field);
    EXPECT_EQ(knob.choices.empty(), numeric) << knob.key;
    // An integer row's range must fit its member, or a valid override
    // could wrap in the cast.
    if (std::holds_alternative<std::size_t*>(field) ||
        std::holds_alternative<std::uint32_t*>(field)) {
      EXPECT_GE(knob.lo, 0.0) << knob.key;
      EXPECT_FALSE(knob.lo_open) << knob.key;
    }
    if (std::holds_alternative<std::uint32_t*>(field)) {
      EXPECT_LE(knob.hi, 4294967295.0) << knob.key;
    }
    // Every listed value is one apply_overrides accepts.
    for (const char* value : knob.choices) {
      NetworkConfig applied;
      applied.apply_overrides(util::Config::from_args(
          {std::string(knob.override_key()) + "=" + value, "routing.sink_x_m=0",
           "routing.sink_y_m=0"}));
      EXPECT_EQ(knob.text(applied), value) << knob.key;
    }
  }
  EXPECT_EQ(aliased, 6u);
  EXPECT_TRUE(in_routing_block);
}

TEST(KnobTable, CanonicalTextMatchesTheHandWrittenRenderer) {
  std::vector<NetworkConfig> configs{NetworkConfig{}};
  for (const test_support::GoldenCell& cell : test_support::golden_matrix()) {
    configs.push_back(cell.config);
  }
  for (const test_support::GoldenCell& cell : test_support::golden_uplink_cells()) {
    configs.push_back(cell.config);
  }
  // The v3 routing configs of test_core_config.cpp.
  NetworkConfig routed;
  routed.routing.max_hops = 5;
  configs.push_back(routed);
  routed = NetworkConfig{};
  routed.routing.kind = "greedy";
  routed.routing.sink_x_m = 0.0;
  routed.routing.sink_y_m = 0.0;
  configs.push_back(routed);
  routed.routing.kind = "chain";
  routed.routing.max_hops = 6;
  configs.push_back(routed);
  const std::vector<NetworkConfig> drawn = random_configs(1000);
  configs.insert(configs.end(), drawn.begin(), drawn.end());

  std::size_t v3 = 0;
  for (const NetworkConfig& config : configs) {
    const std::string text = config.canonical_text();
    ASSERT_EQ(text, legacy_canonical_text(config));
    v3 += text.rfind("caem-config-v3\n", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(v3, 3u);  // the random draw reaches the routing block too
  EXPECT_EQ(NetworkConfig{}.digest(), "d5cc9acc34aeb055");
}

TEST(KnobTable, EveryKnobRoundTripsThroughItsOverrideKey) {
  for (const NetworkConfig& config : random_configs(1000)) {
    EXPECT_NO_THROW(config.validate());
    NetworkConfig applied;
    const util::Config overrides = as_overrides(config);
    applied.apply_overrides(overrides);
    EXPECT_TRUE(overrides.unconsumed().empty());
    ASSERT_EQ(applied.digest(), config.digest()) << config.canonical_text();
  }
}

TEST(KnobTable, NegativeValuesForUnsignedKnobsAreRejectedByKey) {
  for (const char* key : {"node_count", "buffer_capacity", "sample_every_m", "arm_queue_length",
                          "backoff_cw", "routing.max_hops"}) {
    NetworkConfig config;
    try {
      config.apply_overrides(util::Config::from_args({std::string(key) + "=-1"}));
      ADD_FAILURE() << key << "=-1 was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos) << error.what();
    }
    EXPECT_EQ(config.routing, UplinkRoutingConfig{}) << key;
  }
  // A u32 knob also stops at its type's top instead of truncating.
  NetworkConfig config;
  EXPECT_THROW(config.apply_overrides(util::Config::from_args({"backoff_cw=4294967296"})),
               std::invalid_argument);
  config.apply_overrides(util::Config::from_args({"backoff_cw=4294967295"}));
  EXPECT_EQ(config.backoff.cw, 4294967295u);
}

TEST(KnobTable, SnapshotIntervalsAndTrafficKindAreRangeChecked) {
  for (const char* token :
       {"energy_snapshot_interval_s=0", "energy_snapshot_interval_s=-1",
        "queue_snapshot_interval_s=0", "queue_snapshot_interval_s=-1", "traffic_kind=bogus"}) {
    const std::string text = token;
    const std::string key = text.substr(0, text.find('='));
    NetworkConfig config;
    try {
      config.apply_overrides(util::Config::from_args({text}));
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos) << error.what();
    }
  }
  NetworkConfig config;
  for (const char* kind : {"poisson", "cbr", "burst"}) {
    config.apply_overrides(util::Config::from_args({std::string("traffic_kind=") + kind}));
    EXPECT_EQ(config.traffic_kind, kind);
  }
}

TEST(KnobTable, ValidateRejectsNaN) {
  NetworkConfig config;
  config.field_size_m = std::nan("");
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = NetworkConfig{};
  config.tx_power_dbm = std::nan("");  // unbounded, yet never NaN
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace caem::core
