// golden_matrix.hpp — the seed-2005 cell matrix pinned by
// tests/golden_results.tsv, shared by the golden-results test and the
// knob table's canonical-text oracle test.
#pragma once

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"

namespace caem::test_support {

struct GoldenCell {
  std::string key;
  core::NetworkConfig config;
  core::Protocol protocol;
  core::RunOptions options;
};

// The short cells' base: 20 nodes with short rounds, so several round
// boundaries (link release and re-derivation) fall inside a 20 s
// horizon, and a small battery, so some nodes die within it.
inline core::NetworkConfig golden_base_config() {
  core::NetworkConfig config;
  config.node_count = 20;
  config.field_size_m = 100.0;
  config.ch_fraction = 0.1;
  config.round_duration_s = 4.0;
  config.traffic_rate_pps = 4.0;
  config.initial_energy_j = 0.2;
  return config;
}

inline core::RunOptions golden_short_options() {
  core::RunOptions options;
  options.max_sim_s = 20.0;
  return options;
}

// Paper trio plus caem-deadline x fading x mobility x radio range x SNR
// cache, on the base config.
inline std::vector<GoldenCell> golden_matrix() {
  std::vector<core::Protocol> protocols = core::paper_protocols();
  protocols.push_back(core::protocol_from_string("caem-deadline"));
  std::vector<GoldenCell> cells;
  for (const core::Protocol& protocol : protocols) {
    for (const char* fading : {"jakes", "rician", "block"}) {
      for (const char* mobility : {"static", "waypoint"}) {
        for (const double range_m : {0.0, 40.0}) {
          for (const bool cache : {true, false}) {
            core::NetworkConfig config = golden_base_config();
            config.mobility_kind = mobility;
            config.channel.fading_kind = channel::fading_kind_from_string(fading);
            config.channel.radio_range_m = range_m;
            config.channel.snr_cache_enabled = cache;
            std::ostringstream key;
            key << to_string(protocol) << '/' << fading << '/' << mobility << "/range"
                << range_m << "/cache" << (cache ? 1 : 0);
            cells.push_back({key.str(), config, protocol, golden_short_options()});
          }
        }
      }
    }
  }
  return cells;
}

// Every uplink shape on the base config: the seven built-in protocols
// with and without CH forwarding, at unlimited and 40 m radio range;
// caem-scheme1 under the three routing kinds to a geometric sink at the
// field's corner; and one routed run to the virtual sink.
inline std::vector<GoldenCell> golden_uplink_cells() {
  std::vector<GoldenCell> cells;
  for (const char* name : {"pure-leach", "caem-scheme1", "caem-scheme2", "caem-deadline",
                           "direct", "static-cluster", "caem-adaptive-deadline"}) {
    for (const bool forward : {false, true}) {
      for (const double range_m : {0.0, 40.0}) {
        core::NetworkConfig config = golden_base_config();
        config.ch_forward_enabled = forward;
        config.channel.radio_range_m = range_m;
        std::ostringstream key;
        key << "uplink/" << name << "/forward" << (forward ? 1 : 0) << "/range" << range_m;
        cells.push_back({key.str(), config, core::protocol_from_string(name),
                         golden_short_options()});
      }
    }
  }
  const core::Protocol scheme1 = core::protocol_from_string("caem-scheme1");
  for (const char* kind : {"direct", "greedy", "chain"}) {
    core::NetworkConfig config = golden_base_config();
    config.channel.radio_range_m = 40.0;
    config.routing.kind = kind;
    config.routing.sink_x_m = 0.0;
    config.routing.sink_y_m = 0.0;
    cells.push_back({std::string("uplink/caem-scheme1/routed-") + kind + "/sink0,0/range40",
                     config, scheme1, golden_short_options()});
  }
  core::NetworkConfig config = golden_base_config();
  config.channel.radio_range_m = 40.0;
  config.routing.max_hops = 3;
  cells.push_back({"uplink/caem-scheme1/routed-direct/virtual-sink/range40", config, scheme1,
                   golden_short_options()});
  return cells;
}

// The fig9_fast scenario's cells (examples/scenarios/fig9_fast.scn):
// the paper trio at 5 and 15 pkt/s, 100 nodes, run to extinction or
// 200 s.  Ten 20 s rounds re-resolve the same member->CH pairs long
// after their Links were evicted to memos.
inline std::vector<GoldenCell> golden_fig9_fast_cells() {
  std::vector<GoldenCell> cells;
  for (const double rate : {5.0, 15.0}) {
    for (const core::Protocol& protocol : core::paper_protocols()) {
      core::NetworkConfig config;
      config.traffic_rate_pps = rate;
      core::RunOptions options;
      options.max_sim_s = 200.0;
      options.run_to_death = true;
      std::ostringstream key;
      key << "fig9_fast/" << to_string(protocol) << "/rate" << rate;
      cells.push_back({key.str(), config, protocol, options});
    }
  }
  return cells;
}

// One city-scale cell: 2,000 nodes at the paper's density with a 150 m
// radio range (the spatial grid and the range-cut link path), Poisson
// load, 61 s: four rounds, whose boundaries evict and re-resolve pairs.
inline std::vector<GoldenCell> golden_city_cells() {
  core::NetworkConfig config;
  config.node_count = 2000;
  config.field_size_m = 100.0 * std::sqrt(2000.0 / 100.0);
  config.traffic_kind = "poisson";
  config.traffic_rate_pps = 1.0;
  config.channel.radio_range_m = 150.0;
  core::RunOptions options;
  options.max_sim_s = 61.0;
  return {{"city/2000/range150", config, core::protocol_from_string("caem-scheme1"), options}};
}

}  // namespace caem::test_support
