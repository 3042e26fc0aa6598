// test_perfbench.cpp — audits the traced pass on small workloads.
//
//   perfbench_test <scratch dir>
//
// Checks that spans nest, that self times sum to the traced wall, that
// the traced pass's simulated statistics equal the untraced run's, and
// that every probe made exactly the calls its size rule gives for the
// counter it was sized from.  Exit code 0 when every check holds.
#include <cstdlib>
#include <iostream>
#include <map>
#include <numeric>
#include <string>

#include "trace.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_span_arithmetic() {
  // root [0, 100] with children [10, 30] and [40, 90]; [50, 60] inside the second.
  std::vector<perfbench::Span> spans = {
      {"root", 0, 100, -1, -1}, {"a", 10, 30, 0, 0}, {"b", 40, 90, 0, 1}, {"c", 50, 60, 2, 1}};
  check(perfbench::check_nesting(spans).empty(), "well-formed spans nest");
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  check(self[0] == 30 && self[1] == 20 && self[2] == 40 && self[3] == 10, "self times");
  check(std::accumulate(self.begin(), self.end(), std::int64_t{0}) == 100,
        "self times sum to the root");
  spans[3].end_ns = 95;
  check(!perfbench::check_nesting(spans).empty(), "a child escaping its parent is reported");
}

void audit(const perfbench::Workload& workload, const std::string& dir) {
  perfbench::Options options;
  options.work_dir = dir;
  options.trace_dir = dir + "/trace";
  const perfbench::Report report = perfbench::run_traced(workload, options);
  const std::string name = workload.name + ": ";
  for (const std::string& failure : report.failures) std::cerr << name << failure << "\n";
  check(report.failed == 0 && report.attempted > 0, name + "no failed operations");

  // 1. Spans nest.
  check(perfbench::check_nesting(report.spans).empty(),
        name + "spans nest: " + perfbench::check_nesting(report.spans));

  // 2. Self times sum to the traced wall (the single root span).
  std::int64_t roots = 0;
  std::int64_t root_ns = 0;
  for (const perfbench::Span& span : report.spans) {
    if (span.parent < 0) {
      ++roots;
      root_ns += span.end_ns - span.start_ns;
    }
  }
  const std::vector<std::int64_t> self = perfbench::self_times_ns(report.spans);
  check(roots == 1, name + "one root span");
  check(std::accumulate(self.begin(), self.end(), std::int64_t{0}) == root_ns,
        name + "self times sum to the traced wall");

  // 3. Traced statistics equal the untraced run's.
  check(!report.traced_digests.empty() && report.traced_digests == report.untraced_digests,
        name + "traced results equal SimulationRunner::run results");

  // 4. Probe calls match the counters they were sized from.
  std::map<std::string, double> metric;
  for (const perfbench::Metric& m : report.metrics) metric[m.name] = m.value;
  const std::map<std::string, std::string> source = {{"sim.hold", "sim.events_fired"},
                                                     {"channel.snr", "mac.checks"},
                                                     {"energy.account", "mac.checks"},
                                                     {"leach.form", "leach.rounds"}};
  for (const perfbench::Probe& probe : report.probes) {
    const auto it = source.find(probe.name);
    const double expected_from = it != source.end()
                                     ? metric.at(it->second)
                                     : static_cast<double>(report.traced_digests.size());
    check(static_cast<double>(probe.sized_from) == expected_from,
          name + probe.name + " sized from its counter");
    check(probe.calls == perfbench::probe_calls(probe.sized_from, probe.floor, probe.cap),
          name + probe.name + " made the calls its size rule gives");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "perfbench_test_out";
  test_span_arithmetic();

  // Small cousins of the real workloads: one run to extinction, one
  // fixed-horizon sweep drained by worker threads.
  perfbench::Workload death{"tiny-death",
                            "scenario.protocols = pure-leach,caem-scheme1\n"
                            "scenario.reps = 1\nscenario.seed = 7\n"
                            "scenario.max_sim_s = 400\nscenario.run_to_death = true\n"
                            "scenario.threads = 1\nnode_count = 12\nfield_size_m = 50\n"
                            "initial_energy_j = 0.5\ntraffic_rate_pps = 5\n",
                            false};
  perfbench::Workload sweep{"tiny-sweep",
                            "scenario.protocols = caem-scheme2,caem-deadline\n"
                            "scenario.reps = 3\nscenario.seed = 11\nscenario.max_sim_s = 6\n"
                            "node_count = 10\nsweep.traffic_rate_pps = list:2,4\n",
                            true};
  audit(death, dir + "/death");
  audit(sweep, dir + "/sweep");

  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench_test: all checks passed\n";
  return EXIT_SUCCESS;
}
