// bench_routing — acceptance harness for the routed-uplink layer.
//
// Greedy routing earns its keep, enforced by the exit code: on a
// corner-sink field where part of the network cannot reach the sink in
// one hop, greedy must deliver strictly more packets than direct at the
// same energy budget (the unreachable half books as drops under direct
// and is relayed under greedy).  The results of every uplink shape are
// pinned by the golden table (tests/golden_results.tsv).
//
// Usage: bench_routing [--fast] [key=value ...]
//   --fast | fast=1   smoke variant: shorter horizons (CI)
//   seed=<n>          master seed (default 2005)
//   json=<path>       output path (default BENCH_routing.json)
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "util/config.hpp"

namespace {

using namespace caem;

core::NetworkConfig corner_sink_config() {
  core::NetworkConfig config;
  config.node_count = 100;
  config.field_size_m = 200.0;
  config.ch_fraction = 0.08;
  config.channel.radio_range_m = 150.0;
  config.routing.sink_x_m = 0.0;
  config.routing.sink_y_m = 0.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--fast") {
      fast = true;
    } else {
      tokens.push_back(token);
    }
  }
  std::uint64_t seed = 2005;
  std::string json_path = "BENCH_routing.json";
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    fast = overrides.get_bool("fast", fast);
    seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    json_path = overrides.get_string("json", json_path);
    const std::vector<std::string> typos = overrides.unconsumed();
    if (!typos.empty()) {
      std::cerr << "unknown override key(s):";
      for (const std::string& key : typos) std::cerr << " '" << key << "'";
      std::cerr << "\n";
      return 1;
    }
  } catch (const std::exception& error) {
    std::cerr << "bad arguments: " << error.what() << "\n";
    return 1;
  }

  std::printf("==== bench_routing ====\n");

  const core::NetworkConfig base = corner_sink_config();
  core::RunOptions corner_options;
  corner_options.max_sim_s = fast ? 60.0 : 300.0;
  const core::Protocol scheme1 = core::protocol_from_string("caem-scheme1");

  core::NetworkConfig direct_config = base;
  direct_config.routing.kind = "direct";
  core::NetworkConfig greedy_config = base;
  greedy_config.routing.kind = "greedy";

  const core::RunResult direct_run =
      core::SimulationRunner::run(direct_config, scheme1, seed, corner_options);
  const core::RunResult greedy_run =
      core::SimulationRunner::run(greedy_config, scheme1, seed, corner_options);
  const bool greedy_wins = greedy_run.delivered_air > direct_run.delivered_air;
  std::printf(
      "corner sink:   direct %llu delivered (%llu unreachable), greedy %llu delivered "
      "(%llu unreachable, %llu relay hops) -> %s\n",
      static_cast<unsigned long long>(direct_run.delivered_air),
      static_cast<unsigned long long>(direct_run.dropped_unreachable),
      static_cast<unsigned long long>(greedy_run.delivered_air),
      static_cast<unsigned long long>(greedy_run.dropped_unreachable),
      static_cast<unsigned long long>(greedy_run.relay_hops),
      greedy_wins ? "greedy wins" : "FAIL");

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"corner sink 200 m field, range 150 m (%.0f s), seed %llu\",\n"
               "  \"greedy_vs_direct\": {\n"
               "    \"delivered_direct\": %llu,\n"
               "    \"delivered_greedy\": %llu,\n"
               "    \"unreachable_direct\": %llu,\n"
               "    \"unreachable_greedy\": %llu,\n"
               "    \"relay_hops_greedy\": %llu,\n"
               "    \"greedy_wins\": %s\n"
               "  }\n"
               "}\n",
               corner_options.max_sim_s, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(direct_run.delivered_air),
               static_cast<unsigned long long>(greedy_run.delivered_air),
               static_cast<unsigned long long>(direct_run.dropped_unreachable),
               static_cast<unsigned long long>(greedy_run.dropped_unreachable),
               static_cast<unsigned long long>(greedy_run.relay_hops),
               greedy_wins ? "true" : "false");
  std::fclose(out);
  std::printf("\nBENCH_routing -> %s\n", json_path.c_str());
  return greedy_wins ? 0 : 1;
}
