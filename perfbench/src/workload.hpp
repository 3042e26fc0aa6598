// workload.hpp — the benchmark's workloads and the passes that measure them.
//
// Every workload is a scenario text (the same keys `caem run` reads),
// generated from the workload seed.  An untraced pass runs it the way a
// user does — `run_scenario` with a result store, cold then warm — and
// yields the end-to-end metrics.  The traced pass drives the same cells
// through Network's public API in 1-simulated-second slices, records a
// span around every call into a layer, reads the public counters at
// each slice boundary, and then times per-layer probes sized from the
// counts it recorded.  Nothing here reaches inside src/: every number is
// taken at a public boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation_runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "trace.hpp"

namespace perfbench {

/// The reference seed: the one whose outputs perfbench/reference.json pins.
inline constexpr std::uint64_t kReferenceSeed = 2005;

struct Workload {
  std::string name;
  std::string scenario_text;  ///< scenario keys; the store and output paths are set per pass
  bool sweep = false;         ///< cold pass = worker drains + merge fold (as `caem serve`)
};

/// Build a named workload for `seed`; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One output digest, compared with the reference by run.py.  `ops`
/// counts the attempted operations a mismatch fails (per pass).
struct Check {
  std::string id;
  std::string digest;
  std::uint64_t ops = 1;
};

/// A probe's size rule: calls = clamp(sized_from, floor, cap).
struct Probe {
  std::string name;
  std::uint64_t sized_from = 0;  ///< the recorded counter the probe was sized from
  std::uint64_t floor = 0;
  std::uint64_t cap = 0;
  std::uint64_t calls = 0;       ///< calls the probe actually timed
};

[[nodiscard]] std::uint64_t probe_calls(std::uint64_t sized_from, std::uint64_t floor,
                                        std::uint64_t cap);

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Check> checks;          ///< digests of the first pass
  std::uint64_t passes = 0;

  // Traced pass only: the evidence perfbench_test audits.
  std::vector<Span> spans;
  std::vector<std::string> traced_digests;    ///< per cell, traced pass
  std::vector<std::string> untraced_digests;  ///< per cell, SimulationRunner::run
  std::vector<Probe> probes;
};

struct Options {
  double seconds = 10.0;   ///< measuring window of the untraced passes
  std::string work_dir;    ///< scratch for result stores and artifacts
  std::string trace_dir;   ///< traced pass: where spans and the self-time table go ("" = skip)
};

/// Digest of a RunResult's simulated content: to_json with the engine's
/// execution stamps (wall_ms, exec_host, exec_pid) cleared.
[[nodiscard]] std::string result_digest(caem::core::RunResult result);

/// Untraced passes for `options.seconds`: every end-to-end metric.
[[nodiscard]] Report run_untraced(const Workload& workload, const Options& options);

/// One traced pass plus probes: every per-layer metric.
[[nodiscard]] Report run_traced(const Workload& workload, const Options& options);

}  // namespace perfbench
