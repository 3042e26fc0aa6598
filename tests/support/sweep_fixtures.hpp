// sweep_fixtures.hpp — shared fixtures for the merge, worker and service
// tests: scratch dirs, the small battery sweep, job entry paths, and
// rendered-artifact snapshots for byte-identity checks.
#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"

namespace caem::test_support {

namespace fs = std::filesystem;

/// Fresh scratch dir `caem_<name>` under the temp dir.  ctest runs tests
/// concurrently, so every test passes its own name.
inline fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("caem_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

inline std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Small but non-trivial sweep, drained on one thread: 2 points x 2
/// protocols x 2 reps = 8 cells, each a fraction of a second.
inline scenario::ScenarioSpec battery_spec(const std::string& name) {
  scenario::ScenarioSpec spec;
  spec.name = name;
  spec.base_config.node_count = 10;
  spec.base_config.field_size_m = 40.0;
  spec.base_config.ch_fraction = 0.2;
  spec.base_config.round_duration_s = 5.0;
  spec.base_seed = 42;
  spec.replications = 2;
  spec.options.max_sim_s = 8.0;
  spec.threads = 1;
  spec.protocols = {core::protocol_from_string("leach"), core::protocol_from_string("scheme2")};
  spec.axes = {scenario::Axis{"traffic_rate_pps", {"3", "6"}}};
  return spec;
}

/// Entry path of every job, in job order.
inline std::vector<std::string> job_paths(const scenario::ScenarioSpec& spec,
                                          const scenario::ResultCache& cache) {
  std::vector<std::string> paths;
  for (const std::string& key : scenario::job_keys(spec)) {
    paths.push_back((fs::path(cache.root()) / key).string());
  }
  return paths;
}

struct Artifacts {
  std::string csv;
  std::string json;
  std::map<std::string, std::string> traces;  ///< filename -> bytes
};

/// Render CSV + JSON + trace artifacts of `result` into `dir`.
inline Artifacts render_to(const scenario::ScenarioResult& result, scenario::ScenarioSpec spec,
                           const fs::path& dir) {
  spec.csv_path = (dir / "out.csv").string();
  spec.json_path = (dir / "out.json").string();
  spec.trace_dir = (dir / "traces").string();
  spec.trace_points = 9;
  std::ostringstream log;
  scenario::write_outputs(result, spec, log);
  Artifacts artifacts;
  artifacts.csv = read_file(spec.csv_path);
  artifacts.json = read_file(spec.json_path);
  for (const auto& entry : fs::directory_iterator(spec.trace_dir)) {
    artifacts.traces[entry.path().filename().string()] = read_file(entry.path());
  }
  return artifacts;
}

}  // namespace caem::test_support
