// bench_scale — wall-clock scaling of one whole-network run vs node
// count, the acceptance harness for the city-scale work (spatial
// cluster formation, in-range lazy links, SoA hot state).
//
// The sweep holds node DENSITY constant (the field grows as sqrt(N)) so
// a node's neighborhood — and therefore the per-node work an
// O(N * neighbors) simulator should do — stays fixed while N grows.
// Every point runs with the city-scale knobs on (radio_range_m = 150,
// auto spatial bin); the headline number is the wall-time growth from
// N=1k to N=10k, which must stay strictly below the 100x a quadratic
// simulator would show.
//
// Each point runs in its own child process (fork + wait4), so its peak
// resident set is its own, not the high-water mark of every point
// before it.  The footprint gate: bytes per node (peak RSS / N) at the
// largest N may be at most 1.25x the 10k value, i.e. memory tracks the
// network, not the horizon or some super-linear structure.  The exit
// code enforces both gates.
//
// Each point also reports its wall ns per event, and the JSON carries
// the growth of that figure from 1k to the largest N.  At constant
// density per-event cost should not grow with N; the growth is recorded
// as a baseline and not gated.
//
// The horizon axis bounds memory in simulated time.  One N runs twice,
// to a short horizon and to four times it, each in its own child.  The
// delay sample must grow with time, 8 B per delivered packet (an exact
// p95 needs every sample), so the gate is
//   peak(long) <= 1.10 x (peak(short) + 8 B x extra delivered packets).
// Everything else that accumulates per round (the 32 B record each
// channel pair keeps) must fit in the 10%; a 152 B Link kept per pair
// ever used, or packet buffers kept at their high-water mark, do not.
// The exit code enforces it beside the other two.
//
// Usage: bench_scale [--fast] [key=value ...]
//   --fast | fast=1   smoke sweep: N up to 20k, shorter horizon, and a
//                     horizon axis of 5k nodes at 30 s and 120 s instead
//                     of 10k nodes at 60 s and 240 s
//   seed=<n>          master seed (default 2005)
//   sim_s=<t>         horizon per point of the N sweep (default 40, fast 20)
//   json=<path>       output path (default BENCH_scale.json)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "util/config.hpp"

namespace {

using namespace caem;

struct ScalePoint {
  std::size_t n = 0;
  double field_size_m = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;  // packets delivered over the air: one delay sample each
  double sim_end_s = 0.0;
  double peak_rss_mb = 0.0;  // child process peak resident set
  double bytes_per_node = 0.0;
};

// The footprint gate's slack: bytes per node at the largest N over the
// 10k value.
constexpr double kFootprintSlack = 1.25;
// The horizon gate: the long run may add 8 B per extra delivered packet
// to the short run's peak, plus this slack.
constexpr double kHorizonSlack = 1.10;
constexpr double kBytesPerDelivered = 8.0;
constexpr double kHorizonFactor = 4.0;

ScalePoint run_point(std::size_t n, std::uint64_t seed, double sim_s) {
  core::NetworkConfig config;
  config.node_count = n;
  // Constant density: the paper's 100 nodes / (100 m)^2.
  config.field_size_m = 100.0 * std::sqrt(static_cast<double>(n) / 100.0);
  config.traffic_rate_pps = 1.0;
  config.channel.radio_range_m = 150.0;
  config.channel.spatial_bin_m = 0.0;  // auto
  core::RunOptions options;
  options.max_sim_s = sim_s;
  options.run_to_death = false;

  const core::Protocol protocol = core::protocol_from_string("caem-scheme1");
  ScalePoint point;
  point.n = n;
  point.field_size_m = config.field_size_m;
  const auto start = std::chrono::steady_clock::now();
  const core::RunResult result = core::SimulationRunner::run(config, protocol, seed, options);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  point.wall_s = elapsed.count();
  point.events = result.executed_events;
  point.delivered = result.delivered_air;
  point.sim_end_s = result.sim_end_s;
  return point;
}

// Run one point in a forked child and collect its peak RSS from wait4.
// The child reports the (trivially copyable) point back through a pipe.
ScalePoint run_point_isolated(std::size_t n, std::uint64_t seed, double sim_s) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const ScalePoint point = run_point(n, seed, sim_s);
      if (write(fds[1], &point, sizeof(point)) != static_cast<ssize_t>(sizeof(point))) code = 1;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "N=%zu failed: %s\n", n, error.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  ScalePoint point;
  const ssize_t got = read(fds[0], &point, sizeof(point));
  close(fds[0]);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got != static_cast<ssize_t>(sizeof(point))) {
    std::fprintf(stderr, "N=%zu: child run failed\n", n);
    std::exit(1);
  }
  const double peak_bytes = static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
  point.peak_rss_mb = peak_bytes / (1024.0 * 1024.0);
  point.bytes_per_node = peak_bytes / static_cast<double>(n);
  return point;
}

double ns_per_event(const ScalePoint& point) {
  return point.events > 0 ? point.wall_s * 1e9 / static_cast<double>(point.events) : 0.0;
}

/// The horizon axis: one N at a short and a long horizon.
struct HorizonAxis {
  ScalePoint short_run;
  ScalePoint long_run;
  double bound_mb = 0.0;
  bool time_bounded = false;
};

void write_json(const std::vector<ScalePoint>& points, double growth_1k_10k,
                bool sub_quadratic, double footprint_growth, bool footprint_flat,
                double ns_growth, const HorizonAxis& horizon, double sim_s,
                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"caem-scheme1, constant density, radio_range_m=150, "
               "auto spatial bin, %.0f s horizon per point\",\n"
               "  \"points\": [\n",
               sim_s);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(out,
                 "    {\"n\": %zu, \"field_size_m\": %.1f, \"wall_s\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, \"ns_per_event\": %.0f, "
                 "\"peak_rss_mb\": %.1f, \"bytes_per_node\": %.0f}%s\n",
                 p.n, p.field_size_m, p.wall_s, static_cast<unsigned long long>(p.events),
                 p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0,
                 ns_per_event(p), p.peak_rss_mb, p.bytes_per_node,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"wall_growth_1k_to_10k\": %.2f,\n"
               "  \"quadratic_would_be\": 100.0,\n"
               "  \"sub_quadratic\": %s,\n"
               "  \"bytes_per_node_growth_10k_to_max\": %.2f,\n"
               "  \"footprint_slack\": %.2f,\n"
               "  \"footprint_flat\": %s,\n"
               "  \"ns_per_event_growth_1k_to_max\": %.2f,\n",
               growth_1k_10k, sub_quadratic ? "true" : "false", footprint_growth, kFootprintSlack,
               footprint_flat ? "true" : "false", ns_growth);
  std::fprintf(out, "  \"horizon\": {\"n\": %zu, \"points\": [\n", horizon.short_run.n);
  for (const ScalePoint* p : {&horizon.short_run, &horizon.long_run}) {
    std::fprintf(out,
                 "    {\"sim_s\": %.0f, \"wall_s\": %.3f, \"events\": %llu, "
                 "\"delivered\": %llu, \"peak_rss_mb\": %.1f}%s\n",
                 p->sim_end_s, p->wall_s, static_cast<unsigned long long>(p->events),
                 static_cast<unsigned long long>(p->delivered), p->peak_rss_mb,
                 p == &horizon.short_run ? "," : "");
  }
  std::fprintf(out,
               "  ], \"bound_mb\": %.1f, \"slack\": %.2f, \"bytes_per_delivered\": %.0f},\n"
               "  \"time_bounded\": %s\n"
               "}\n",
               horizon.bound_mb, kHorizonSlack, kBytesPerDelivered,
               horizon.time_bounded ? "true" : "false");
  std::fclose(out);
  std::printf("\nBENCH_scale -> %s\n", path.c_str());
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
  double sim_s = 0.0;
  std::string json_path = "BENCH_scale.json";
  try {
    const util::Config overrides = util::Config::from_args(tokens);
    fast = overrides.get_bool("fast", fast);
    seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
    sim_s = overrides.get_double("sim_s", 0.0);
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
  if (sim_s <= 0.0) sim_s = fast ? 20.0 : 40.0;
  const std::size_t horizon_n = fast ? 5000 : 10000;
  const double horizon_s = fast ? 30.0 : 60.0;

  // The fast sweep keeps one point past 10k so the footprint gate has
  // something to compare.
  std::vector<std::size_t> sizes{100, 1000, 10000};
  if (fast) {
    sizes.push_back(20000);
  } else {
    sizes.push_back(50000);
    sizes.push_back(100000);
  }

  std::printf("==== bench_scale ====\n");
  std::printf("%8s %12s %10s %14s %14s %8s %10s %10s\n", "nodes", "field (m)", "wall (s)",
              "events", "events/s", "ns/ev", "peak MB", "B/node");
  std::vector<ScalePoint> points;
  double wall_1k = 0.0;
  double wall_10k = 0.0;
  double bytes_10k = 0.0;
  double ns_1k = 0.0;
  for (const std::size_t n : sizes) {
    const ScalePoint point = run_point_isolated(n, seed, sim_s);
    std::printf("%8zu %12.1f %10.3f %14llu %14.0f %8.0f %10.1f %10.0f\n", point.n,
                point.field_size_m, point.wall_s, static_cast<unsigned long long>(point.events),
                point.wall_s > 0.0 ? static_cast<double>(point.events) / point.wall_s : 0.0,
                ns_per_event(point), point.peak_rss_mb, point.bytes_per_node);
    std::fflush(stdout);
    if (point.n == 1000) {
      wall_1k = point.wall_s;
      ns_1k = ns_per_event(point);
    }
    if (point.n == 10000) {
      wall_10k = point.wall_s;
      bytes_10k = point.bytes_per_node;
    }
    points.push_back(point);
  }

  const double growth = wall_1k > 0.0 ? wall_10k / wall_1k : 0.0;
  const bool sub_quadratic = growth > 0.0 && growth < 100.0;
  std::printf("\nwall growth 1k -> 10k: %.2fx (quadratic would be 100x) -> %s\n", growth,
              sub_quadratic ? "sub-quadratic" : "NOT sub-quadratic");
  const double footprint_growth = bytes_10k > 0.0 ? points.back().bytes_per_node / bytes_10k : 0.0;
  const bool footprint_flat = footprint_growth > 0.0 && footprint_growth <= kFootprintSlack;
  std::printf("bytes/node 10k -> %zu: %.2fx (gate <= %.2fx) -> %s\n", points.back().n,
              footprint_growth, kFootprintSlack, footprint_flat ? "flat" : "NOT flat");
  const double ns_growth = ns_1k > 0.0 ? ns_per_event(points.back()) / ns_1k : 0.0;
  std::printf("ns/event 1k -> %zu: %.2fx (recorded, not gated)\n", points.back().n, ns_growth);

  HorizonAxis horizon;
  std::printf("\nhorizon axis at N=%zu:\n%8s %10s %14s %12s %10s\n", horizon_n, "sim s",
              "wall (s)", "events", "delivered", "peak MB");
  for (ScalePoint* run : {&horizon.short_run, &horizon.long_run}) {
    const double run_s = run == &horizon.short_run ? horizon_s : kHorizonFactor * horizon_s;
    *run = run_point_isolated(horizon_n, seed, run_s);
    std::printf("%8.0f %10.3f %14llu %12llu %10.1f\n", run->sim_end_s, run->wall_s,
                static_cast<unsigned long long>(run->events),
                static_cast<unsigned long long>(run->delivered), run->peak_rss_mb);
    std::fflush(stdout);
  }
  const double extra_delivered = static_cast<double>(horizon.long_run.delivered) -
                                 static_cast<double>(horizon.short_run.delivered);
  horizon.bound_mb =
      kHorizonSlack * (horizon.short_run.peak_rss_mb +
                       kBytesPerDelivered * std::max(extra_delivered, 0.0) / (1024.0 * 1024.0));
  horizon.time_bounded = horizon.long_run.peak_rss_mb <= horizon.bound_mb;
  std::printf("peak %.0f s -> %.0f s: %.1f -> %.1f MB (gate <= %.2fx (%.1f MB + 8 B x %.0f "
              "extra delivered) = %.1f MB) -> %s\n",
              horizon_s, kHorizonFactor * horizon_s, horizon.short_run.peak_rss_mb,
              horizon.long_run.peak_rss_mb, kHorizonSlack, horizon.short_run.peak_rss_mb,
              extra_delivered, horizon.bound_mb,
              horizon.time_bounded ? "bounded in time" : "NOT bounded in time");
  write_json(points, growth, sub_quadratic, footprint_growth, footprint_flat, ns_growth, horizon,
             sim_s, json_path);
  return sub_quadratic && footprint_flat && horizon.time_bounded ? 0 : 1;
}
