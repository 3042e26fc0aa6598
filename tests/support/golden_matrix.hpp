// golden_matrix.hpp — the seed-2005 cell matrix pinned by
// tests/golden_results.tsv, shared by the golden-results test and the
// knob table's canonical-text oracle test.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"

namespace caem::test_support {

struct GoldenCell {
  std::string key;
  core::NetworkConfig config;
  core::Protocol protocol;
};

// Paper trio plus caem-deadline x fading x mobility x radio range x SNR
// cache.  Short rounds put several round boundaries (link release and
// re-derivation) inside a 20 s horizon, and the small battery lets some
// nodes die within it.
inline std::vector<GoldenCell> golden_matrix() {
  std::vector<core::Protocol> protocols = core::paper_protocols();
  protocols.push_back(core::protocol_from_string("caem-deadline"));
  std::vector<GoldenCell> cells;
  for (const core::Protocol& protocol : protocols) {
    for (const char* fading : {"jakes", "rician", "block"}) {
      for (const char* mobility : {"static", "waypoint"}) {
        for (const double range_m : {0.0, 40.0}) {
          for (const bool cache : {true, false}) {
            core::NetworkConfig config;
            config.node_count = 20;
            config.field_size_m = 100.0;
            config.ch_fraction = 0.1;
            config.round_duration_s = 4.0;
            config.traffic_rate_pps = 4.0;
            config.initial_energy_j = 0.2;
            config.mobility_kind = mobility;
            config.channel.fading_kind = channel::fading_kind_from_string(fading);
            config.channel.radio_range_m = range_m;
            config.channel.snr_cache_enabled = cache;
            std::ostringstream key;
            key << to_string(protocol) << '/' << fading << '/' << mobility << "/range"
                << range_m << "/cache" << (cache ? 1 : 0);
            cells.push_back({key.str(), config, protocol});
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace caem::test_support
