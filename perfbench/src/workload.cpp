#include "workload.hpp"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "channel/link_manager.hpp"
#include "core/network.hpp"
#include "core/run_result_io.hpp"
#include "energy/battery.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/radio_energy_model.hpp"
#include "leach/cluster.hpp"
#include "leach/round_manager.hpp"
#include "metrics/lifetime.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "sim/rng_registry.hpp"
#include "sim/simulator.hpp"
#include "util/config.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using caem::core::NetworkConfig;
using caem::core::RunResult;
using caem::scenario::ScenarioResult;
using caem::scenario::ScenarioSpec;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds this process has used, all threads, user + kernel, at
/// nanosecond resolution.  On a shared VM the wall clock also runs while
/// the hypervisor schedules other guests on this vCPU (steal time, which
/// no code change moves); CPU time does not.
double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// User-mode and kernel-mode CPU seconds so far, all threads.  The
/// split is tick-sampled, so it is only used over multi-second spans.
struct CpuSplit {
  double user = 0.0;
  double sys = 0.0;
};

CpuSplit cpu_split() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest percentile with at least ten samples beyond it (the
/// maximum when there are fewer than eleven samples).
struct Tail {
  double value = 0.0;
  double pct = 100.0;
};

Tail tail_of(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  if (values.size() < 11) return {values.back(), 100.0};
  const std::size_t k = values.size() - 11;
  return {values[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(values.size())};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Drain threads of the sweep's cold pass: two (`caem serve`'s default),
/// or one on a single core.  Two keep the claim board contended.  Four, on the 4-vCPU VM the
/// benchmark was built on, doubled kernel time and spread user CPU time
/// 11% between runs; two spread it 4%.
std::size_t drain_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores == 0 ? 1 : cores, 1, 2);
}

ScenarioSpec parse_spec(const Workload& workload) {
  return ScenarioSpec::from_config(caem::util::Config::from_text(workload.scenario_text));
}

/// One simulation cell of a workload, in the engine's job order.
struct Cell {
  NetworkConfig config;
  caem::core::Protocol protocol;
  std::uint64_t seed = 0;
  std::string id;  ///< "p<point>.<protocol>.r<rep>"
};

std::vector<Cell> expand_cells(const ScenarioSpec& spec) {
  std::vector<Cell> cells;
  cells.reserve(spec.total_jobs());
  for (const caem::scenario::GridPoint& point : caem::scenario::expand_grid(spec.axes)) {
    const NetworkConfig config = spec.config_at(point);
    for (const caem::core::Protocol protocol : spec.protocols) {
      for (std::size_t rep = 0; rep < spec.replications; ++rep) {
        cells.push_back({config, protocol, spec.base_seed + rep,
                         "p" + std::to_string(point.index) + "." + protocol.name() + ".r" +
                             std::to_string(rep)});
      }
    }
  }
  return cells;
}

/// CPU seconds of scenario parse, grid expansion and every cell's config
/// digest and store key: the engine's work before its first cell, once.
double expand_once(const Workload& workload) {
  const double start = cpu_seconds();
  const ScenarioSpec spec = parse_spec(workload);
  const caem::scenario::ResultCache keys("store");
  std::size_t key_bytes = 0;
  for (const caem::scenario::GridPoint& point : caem::scenario::expand_grid(spec.axes)) {
    const NetworkConfig config = spec.config_at(point);
    for (const caem::core::Protocol protocol : spec.protocols) {
      for (std::size_t rep = 0; rep < spec.replications; ++rep) {
        key_bytes += keys.entry_key(config, protocol, spec.base_seed + rep, spec.options).size();
      }
    }
  }
  const double elapsed = cpu_seconds() - start;
  if (key_bytes == 0) throw std::logic_error("expansion produced no store keys");
  return elapsed;
}

/// CPU seconds of everything before a workload's first event or cell,
/// once.  Sweeps: the expansion above.  Simulations: Network
/// construction + start(), summed over the cells (teardown excluded).
double setup_once(const Workload& workload, const std::vector<Cell>& cells) {
  if (workload.sweep) return expand_once(workload);
  double total = 0.0;
  for (const Cell& cell : cells) {
    const double start = cpu_seconds();
    auto network = std::make_unique<caem::core::Network>(cell.config, cell.protocol, cell.seed);
    network->start();
    total += cpu_seconds() - start;
  }
  return total;
}

/// Median of repeated timings (at least three, then more until half a
/// second has gone, at most 200).
template <typename Timed>
double median_of_repeats(const Timed& timed) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 3 || (seconds_since(start) < 0.5 && samples.size() < 200)) {
    samples.push_back(timed());
  }
  return median(samples);
}

/// Invariants every finished run must satisfy; "" when it does.
std::string check_run(const RunResult& run, const NetworkConfig& config,
                      const caem::core::RunOptions& options) {
  const std::uint64_t drops =
      run.dropped_overflow + run.dropped_retry + run.dropped_death + run.dropped_unreachable;
  if (run.delivered_air + run.delivered_self + drops > run.generated) {
    return "more packets delivered or dropped than generated";
  }
  const double budget_j = static_cast<double>(config.node_count) * config.initial_energy_j;
  if (!(run.total_consumed_j >= 0.0) || run.total_consumed_j > budget_j * (1.0 + 1e-9)) {
    return "consumed energy outside [0, N x initial energy]";
  }
  if (run.final_alive > config.node_count) return "more nodes alive than deployed";
  if (run.sim_end_s > options.max_sim_s + 1e-9) return "ran past the horizon";
  if (options.run_to_death && run.final_alive != 0 && run.sim_end_s < options.max_sim_s) {
    return "stopped before extinction";
  }
  if (run.executed_events == 0) return "fired no events";
  const std::string json = caem::core::to_json(run);
  if (caem::core::to_json(caem::core::run_result_from_json(json)) != json) {
    return "result does not survive a serialize round trip";
  }
  return "";
}

/// One untraced pass: the cold run that executes and stores every cell
/// (plus the merge fold for sweeps) and the warm run that serves them
/// all from the store.  A non-null tracer wraps each engine call in a
/// span; the engine itself runs exactly as untraced.
struct PassOutcome {
  double cold_s = 0.0;
  double warm_s = 0.0;        ///< median of the pass's warm repetitions
  double cold_cpu_s = 0.0;    ///< process CPU seconds of the cold pass
  double cold_user_s = 0.0;   ///< of which user mode
  double warm_cpu_s = 0.0;    ///< median CPU seconds of the warm repetitions
  double drain_s = 0.0;       ///< wall of the drain phase (all drain threads)
  std::size_t drains = 0;
  std::size_t cells = 0;
  std::uint64_t events = 0;   ///< kernel events fired by the cold pass
  std::size_t claims_stolen = 0;
  std::uint64_t store_bytes = 0;
  double fold_ms = 0.0;       ///< first warm repetition: run_scenario (load + fold)
  double outputs_ms = 0.0;    ///< first warm repetition: write_outputs
  std::vector<RunResult> runs;  ///< served by the warm pass, in job order
  std::string csv;              ///< the cold pass's summary CSV
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

PassOutcome run_pass(const Workload& workload, const std::string& dir, Tracer* tracer,
                     bool measure_store) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScenarioSpec spec = parse_spec(workload);
  spec.cache_dir = (fs::path(dir) / "store").string();
  spec.json_path.clear();
  spec.trace_dir.clear();
  const std::string cold_csv = (fs::path(dir) / "cold.csv").string();
  const std::string warm_csv = (fs::path(dir) / "warm.csv").string();
  std::ostringstream log;

  PassOutcome out;
  out.cells = spec.total_jobs();
  const auto fail = [&out](std::uint64_t ops, std::string what) {
    out.failed += ops;
    out.failures.push_back(std::move(what));
  };

  const auto cold_start = Clock::now();
  const double cold_cpu_start = cpu_seconds();
  const CpuSplit cold_split = cpu_split();
  {
    const Scope cold(tracer, "engine.cold");
    ScenarioResult folded;
    ScenarioSpec fold_spec = spec;
    fold_spec.csv_path = cold_csv;
    if (workload.sweep) {
      // `caem serve`'s drain: in-process worker-mode run_scenario
      // threads sharing one store through its claim board, then the
      // merge fold over the complete store.
      out.drains = drain_threads();
      std::vector<ScenarioResult> workers(out.drains);
      std::vector<std::string> errors(out.drains);
      {
        const Scope drains(tracer, "engine.drains");
        const auto drain_start = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(out.drains);
        for (std::size_t k = 0; k < out.drains; ++k) {
          threads.emplace_back([&spec, &workers, &errors, k] {
            ScenarioSpec worker = spec;
            worker.worker_mode = true;
            worker.csv_path.clear();
            try {
              workers[k] = caem::scenario::run_scenario(worker);
            } catch (const std::exception& error) {
              errors[k] = error.what();
            }
          });
        }
        for (std::thread& thread : threads) thread.join();
        out.drain_s = seconds_since(drain_start);
      }
      for (const std::string& error : errors) {
        if (!error.empty()) throw std::runtime_error("drain thread failed: " + error);
      }
      std::size_t executed = 0;
      for (const ScenarioResult& worker : workers) {
        executed += worker.executed_jobs;
        out.claims_stolen += worker.claims_stolen;
      }
      if (executed != out.cells) {
        fail(executed > out.cells ? executed - out.cells : out.cells - executed,
             "drains executed " + std::to_string(executed) + " of " + std::to_string(out.cells) +
                 " cells");
      }
      fold_spec.merge_shards = true;
      {
        const Scope merge(tracer, "engine.merge_fold");
        folded = caem::scenario::run_scenario(fold_spec);
      }
      if (folded.executed_jobs != 0) {
        fail(folded.executed_jobs, "the merge fold found " +
                                       std::to_string(folded.executed_jobs) + " cells missing");
      }
    } else {
      out.drains = 1;
      const auto drain_start = Clock::now();
      {
        const Scope run(tracer, "engine.run_scenario");
        folded = caem::scenario::run_scenario(fold_spec);
      }
      out.drain_s = seconds_since(drain_start);
      if (folded.executed_jobs != out.cells) {
        fail(out.cells, "cold pass executed " + std::to_string(folded.executed_jobs) + " of " +
                            std::to_string(out.cells) + " cells");
      }
    }
    const Scope outputs(tracer, "engine.outputs");
    caem::scenario::write_outputs(folded, fold_spec, log);
  }
  out.cold_s = seconds_since(cold_start);
  out.cold_cpu_s = cpu_seconds() - cold_cpu_start;
  out.cold_user_s = cpu_split().user - cold_split.user;
  out.csv = read_file(cold_csv);

  if (measure_store) {
    for (const auto& entry : caem::scenario::ResultCache(spec.cache_dir).enumerate()) {
      out.store_bytes += entry.bytes;
    }
  }

  // Warm: every cell is a hit.  Repeated for 1.5 seconds so the median
  // is steady even when one warm run takes a fraction of a millisecond
  // (one-cell stores); shorter windows let a second of host noise move it.
  ScenarioSpec warm_spec = spec;
  warm_spec.csv_path = warm_csv;
  std::vector<double> warm;
  std::vector<double> warm_cpu;
  const auto warm_start = Clock::now();
  while (warm.empty() || (seconds_since(warm_start) < 1.5 && warm.size() < 20000)) {
    Tracer* const span_tracer = warm.empty() ? tracer : nullptr;
    const Scope rep(span_tracer, "engine.warm");
    const auto start = Clock::now();
    const double cpu_start = cpu_seconds();
    ScenarioResult result;
    {
      const Scope fold(span_tracer, "engine.warm_fold");
      result = caem::scenario::run_scenario(warm_spec);
    }
    const auto folded_at = Clock::now();
    {
      // A log per repetition, so the timed loop does not grow one string
      // by a line per repetition.
      std::ostringstream rep_log;
      const Scope outputs(span_tracer, "engine.outputs");
      caem::scenario::write_outputs(result, warm_spec, rep_log);
    }
    warm.push_back(seconds_since(start));
    warm_cpu.push_back(cpu_seconds() - cpu_start);
    if (warm.size() > 1) continue;
    out.fold_ms = std::chrono::duration<double, std::milli>(folded_at - start).count();
    out.outputs_ms = std::chrono::duration<double, std::milli>(Clock::now() - folded_at).count();
    if (result.cache_hits != out.cells || result.executed_jobs != 0) {
      fail(result.executed_jobs, "warm pass re-executed " +
                                     std::to_string(result.executed_jobs) + " cells");
    }
    for (const caem::scenario::PointResult& point : result.points) {
      for (const caem::scenario::ProtocolResult& protocol : point.protocols) {
        for (const RunResult& run : protocol.replicated.runs) out.runs.push_back(run);
      }
    }
    if (read_file(warm_csv) != out.csv) fail(1, "warm-pass CSV differs from the cold pass");
  }
  out.warm_s = median(warm);
  out.warm_cpu_s = median(warm_cpu);
  for (const RunResult& run : out.runs) out.events += run.executed_events;
  fs::remove_all(dir);
  return out;
}

/// Fold one pass's outcome into the report: attempted operations,
/// invariant failures, digests (kept from the first pass; later passes
/// must reproduce them exactly).
void audit_pass(Report& report, const PassOutcome& pass, const Workload& workload,
                const std::vector<Cell>& cells, const caem::core::RunOptions& options) {
  report.attempted += pass.cells;
  report.failed += pass.failed;
  const auto note = [&report](std::string what) {
    if (report.failures.size() < 8) report.failures.push_back(std::move(what));
  };
  for (const std::string& failure : pass.failures) note(failure);
  if (pass.runs.size() != cells.size()) {
    report.failed += cells.size();
    note("warm pass served " + std::to_string(pass.runs.size()) + " of " +
         std::to_string(cells.size()) + " cells");
    return;
  }
  std::vector<Check> checks;
  std::string cell_digests;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string problem = check_run(pass.runs[i], cells[i].config, options);
    if (!problem.empty()) {
      ++report.failed;
      note(cells[i].id + ": " + problem);
    }
    const std::string digest = result_digest(pass.runs[i]);
    if (workload.sweep) {
      cell_digests += digest;
    } else {
      checks.push_back({cells[i].id, digest, 1});
    }
  }
  if (workload.sweep) {
    checks.push_back({"cells", caem::util::content_digest(cell_digests), cells.size()});
  }
  checks.push_back({"summary_csv", caem::util::content_digest(pass.csv), 1});
  if (report.checks.empty()) {
    report.checks = std::move(checks);
    return;
  }
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (checks[i].digest != report.checks[i].digest) {
      report.failed += checks[i].ops;
      note("pass " + std::to_string(report.passes + 1) + " differs from pass 1 on " +
           checks[i].id);
    }
  }
}

/// Harvest a finished Network into a RunResult exactly as
/// SimulationRunner::run does.
RunResult harvest(caem::core::Network& network, caem::core::Protocol protocol,
                  std::uint64_t seed) {
  using caem::queueing::DropReason;
  const auto& m = network.metrics();
  RunResult result;
  result.protocol = protocol;
  result.seed = seed;
  result.sim_end_s = network.simulator().now();
  result.executed_events = network.simulator().executed_events();
  result.generated = m.generated();
  result.delivered_air = m.delivered();
  result.delivered_self = m.self_delivered();
  result.dropped_overflow = m.dropped(DropReason::kBufferOverflow);
  result.dropped_retry = m.dropped(DropReason::kRetryExhausted);
  result.dropped_death = m.dropped(DropReason::kNodeDeath);
  result.dropped_unreachable = m.dropped(DropReason::kUnreachable);
  result.relay_hops = network.relay_hops_total();
  result.collisions = network.collisions_total();
  result.delivery_rate = m.delivery_rate();
  result.mean_delay_s = m.delays().mean();
  result.p95_delay_s = m.delays().quantile(0.95);
  result.throughput_bps = m.aggregate_throughput_bps(result.sim_end_s);
  result.total_consumed_j = network.total_consumed_j();
  result.energy_per_delivered_packet_j =
      m.delivered() == 0 ? 0.0 : result.total_consumed_j / static_cast<double>(m.delivered());
  result.avg_remaining_energy = m.avg_remaining_energy();
  result.lifetime =
      caem::metrics::lifetime_from_death_times(m.death_times(), network.config().dead_fraction);
  result.nodes_alive = caem::metrics::alive_series(m.death_times(), result.sim_end_s);
  result.final_alive = m.alive_count();
  result.mean_queue_stddev = m.fairness().mean_queue_stddev();
  result.mac = network.mac_totals();
  const auto controller = network.controller_totals();
  result.threshold_lower_events = controller.lower_events;
  result.threshold_raise_events = controller.raise_events;
  for (caem::phy::ModeIndex mode = 0; mode < caem::phy::kModeCount; ++mode) {
    result.delivered_per_mode[mode] = m.delivered_at_mode(mode);
  }
  return result;
}

/// One 1-simulated-second slice: host ms, and whether a LEACH round
/// began or an energy snapshot was taken inside it.
struct Slice {
  double ms = 0.0;
  bool round = false;
  bool snapshot = false;
};

/// What the traced pass records across every cell.
struct TracedSim {
  double wall_ms = 0.0;  ///< sum of the cell spans
  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  double pending_sum = 0.0;
  std::uint64_t pending_samples = 0;
  std::uint64_t rounds = 0;
  caem::mac::SensorMacCounters mac;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::vector<Slice> slices;             ///< every slice of every cell, in order
  std::vector<std::size_t> cell_slices;  ///< index of each cell's first slice
  std::vector<double> build_ms;
  std::vector<double> start_ms;
  std::vector<double> finalize_ms;
  double core_ms = 0.0;  ///< build + start + finalize + harvest + serialize
  std::vector<RunResult> results;

  // The first cell's network at its second round boundary (or its first,
  // when it has one round): the channel and clustering probes replay it.
  bool captured = false;
  double captured_at_s = 0.0;
  std::vector<caem::channel::Vec2> positions;
  std::vector<bool> is_head;
  std::vector<bool> alive;
};

void add_mac(caem::mac::SensorMacCounters& total, const caem::mac::SensorMacCounters& c) {
  total.checks += c.checks;
  total.csi_denied += c.csi_denied;
  total.busy_denied += c.busy_denied;
  total.frames_sent += c.frames_sent;
  total.frames_failed += c.frames_failed;
  total.collisions += c.collisions;
}

/// Drive one cell through Network's public API: construct, start(),
/// run_until in 1-simulated-second slices, finalize(), harvest,
/// serialize — a span around each call, counters read at every slice
/// boundary.  The slicing keeps SimulationRunner::run's stop rule: a
/// run-to-death cell checks extinction once per round_duration_s chunk,
/// a fixed-horizon cell runs one chunk to the horizon, and a slice that
/// ends on a simulator stop ends its chunk.  Returns the cell's span.
int trace_cell(Tracer& tracer, const Cell& cell, std::size_t i,
               const caem::core::RunOptions& options, TracedSim& out,
               std::vector<std::string>& problems) {
  const auto note = [&problems](std::string what) { problems.push_back(std::move(what)); };
  const auto run_id = static_cast<std::int64_t>(i);
  const Scope cell_span(&tracer, "cell", run_id);
  out.cell_slices.push_back(out.slices.size());
  {
    std::unique_ptr<caem::core::Network> network;
    int span = -1;
    {
      const Scope build(&tracer, "core.build", run_id);
      span = build.index();
      network = std::make_unique<caem::core::Network>(cell.config, cell.protocol, cell.seed);
    }
    out.build_ms.push_back(tracer.duration_ms(span));
    {
      const Scope start(&tracer, "core.start", run_id);
      span = start.index();
      network->start();
    }
    out.start_ms.push_back(tracer.duration_ms(span));

    caem::sim::Simulator& sim = network->simulator();
    {
      const Scope run(&tracer, "core.run", run_id);
      std::uint32_t rounds_seen = network->rounds_started();
      std::size_t snapshots_seen = network->metrics().avg_remaining_energy().size();
      const auto run_chunk = [&](double until) {
        for (;;) {
          const double slice_end = std::min(sim.now() + 1.0, until);
          int slice_span = -1;
          {
            const Scope slice(&tracer, "slice", run_id);
            slice_span = slice.index();
            sim.run_until(slice_end);
          }
          const double ms = tracer.duration_ms(slice_span);
          const std::uint32_t rounds = network->rounds_started();
          const std::size_t snapshots = network->metrics().avg_remaining_energy().size();
          const bool round = rounds != rounds_seen;
          const bool snapshot = snapshots != snapshots_seen;
          out.slices.push_back({ms, round, snapshot});
          out.pending_sum += static_cast<double>(sim.pending_events());
          ++out.pending_samples;
          if (i == 0 && round && rounds <= 2) {
            const auto& hot = network->hot_state();
            out.captured = true;
            out.captured_at_s = sim.now();
            out.positions.assign(hot.position.begin(), hot.position.end());
            out.is_head.assign(hot.is_ch.begin(), hot.is_ch.end());
            out.alive.assign(hot.alive.begin(), hot.alive.end());
          }
          rounds_seen = rounds;
          snapshots_seen = snapshots;
          if (sim.stop_requested() || sim.now() >= until) return;
        }
      };
      if (options.run_to_death) {
        const double chunk = std::max(cell.config.round_duration_s, 1.0);
        while (network->alive_count() > 0 && sim.now() < options.max_sim_s) {
          run_chunk(std::min(sim.now() + chunk, options.max_sim_s));
        }
      } else {
        run_chunk(options.max_sim_s);
      }
    }
    {
      const Scope finalize(&tracer, "core.finalize", run_id);
      span = finalize.index();
      network->finalize();
    }
    out.finalize_ms.push_back(tracer.duration_ms(span));
    RunResult result;
    int harvest_span = -1;
    {
      const Scope harvest_scope(&tracer, "core.harvest", run_id);
      harvest_span = harvest_scope.index();
      result = harvest(*network, cell.protocol, cell.seed);
    }
    int serialize_span = -1;
    {
      const Scope serialize(&tracer, "core.serialize", run_id);
      serialize_span = serialize.index();
      (void)caem::core::to_json(result);
    }
    out.core_ms += out.build_ms.back() + out.start_ms.back() + out.finalize_ms.back() +
                   tracer.duration_ms(harvest_span) + tracer.duration_ms(serialize_span);

    // Exact packet balance and the energy bound, on the live network.
    const auto& m = network->metrics();
    std::uint64_t queued = 0;
    for (std::size_t n = 0; n < network->node_count(); ++n) queued += network->node(n).queue().size();
    if (m.generated() != m.delivered() + m.self_delivered() + m.dropped_total() + queued) {
      note(cell.id + ": packets do not balance (generated " + std::to_string(m.generated()) +
           " != delivered + dropped + queued " +
           std::to_string(m.delivered() + m.self_delivered() + m.dropped_total() + queued) + ")");
    }
    const double budget_j =
        static_cast<double>(cell.config.node_count) * cell.config.initial_energy_j;
    if (network->total_consumed_j() > budget_j * (1.0 + 1e-9)) {
      note(cell.id + ": consumed more than N x initial energy");
    }

    const caem::sim::KernelCounters kernel = sim.kernel_counters();
    out.fired += kernel.fired;
    out.scheduled += kernel.scheduled;
    out.cancelled += kernel.cancelled;
    out.rounds += network->rounds_started();
    for (std::size_t n = 0; n < network->node_count(); ++n) {
      add_mac(out.mac, network->node(n).mac().counters());
    }
    out.generated += m.generated();
    out.delivered += m.delivered() + m.self_delivered();
    out.dropped += m.dropped_total();
    out.results.push_back(std::move(result));
  }
  return cell_span.index();
}

/// Host cost of round boundaries and energy snapshots: each such slice
/// minus the mean of the nearest plain slices before and after it in the
/// same cell (so the baseline follows the run as nodes die), medians
/// over all such slices.  A round slice that also took a snapshot has
/// the snapshot cost subtracted.
struct SliceCosts {
  double round_ms = 0.0;
  double snapshot_ms = 0.0;
  std::size_t snapshots = 0;
};

SliceCosts slice_costs(const TracedSim& traced) {
  std::vector<double> snapshot_extra;
  std::vector<std::pair<double, bool>> round_extra;
  std::size_t snapshots = 0;
  for (std::size_t c = 0; c < traced.cell_slices.size(); ++c) {
    const std::size_t begin = traced.cell_slices[c];
    const std::size_t end =
        c + 1 < traced.cell_slices.size() ? traced.cell_slices[c + 1] : traced.slices.size();
    const auto plain = [&traced](std::size_t k) {
      return !traced.slices[k].round && !traced.slices[k].snapshot;
    };
    for (std::size_t k = begin; k < end; ++k) {
      const Slice& slice = traced.slices[k];
      if (plain(k)) continue;
      snapshots += slice.snapshot ? 1 : 0;
      double baseline = 0.0;
      int found = 0;
      for (std::size_t j = k; j-- > begin;) {
        if (plain(j)) {
          baseline += traced.slices[j].ms;
          ++found;
          break;
        }
      }
      for (std::size_t j = k + 1; j < end; ++j) {
        if (plain(j)) {
          baseline += traced.slices[j].ms;
          ++found;
          break;
        }
      }
      if (found == 0) continue;
      const double extra = slice.ms - baseline / found;
      if (slice.round) {
        round_extra.emplace_back(extra, slice.snapshot);
      } else {
        snapshot_extra.push_back(extra);
      }
    }
  }
  SliceCosts costs;
  costs.snapshot_ms = median(snapshot_extra);
  costs.snapshots = snapshots;
  std::vector<double> rounds;
  for (const auto& [extra, with_snapshot] : round_extra) {
    rounds.push_back(extra - (with_snapshot ? costs.snapshot_ms : 0.0));
  }
  costs.round_ms = median(rounds);
  return costs;
}

TracedSim traced_sim(Tracer& tracer, const std::vector<Cell>& cells,
                     const caem::core::RunOptions& options, Report& report) {
  TracedSim out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<std::string> problems;
    const int span = trace_cell(tracer, cells[i], i, options, out, problems);
    out.wall_ms += tracer.duration_ms(span);
    report.failed += problems.size();
    for (std::string& problem : problems) {
      if (report.failures.size() < 8) report.failures.push_back(std::move(problem));
    }
  }
  report.attempted += cells.size();
  return out;
}

// ------------------------------------------------------------------ probes
//
// Each probe times one layer's public functions in isolation, on inputs
// taken from the traced pass, and returns the median (or mean, for
// tight loops) cost of one call.

Probe make_probe(std::string name, std::uint64_t sized_from, std::uint64_t floor,
                 std::uint64_t cap) {
  Probe probe;
  probe.name = std::move(name);
  probe.sized_from = sized_from;
  probe.floor = floor;
  probe.cap = cap;
  probe.calls = probe_calls(sized_from, floor, cap);
  return probe;
}

/// Kernel hold model at the traced pass's mean pending size: every fired
/// event schedules one successor, so each call is one schedule + fire.
double probe_hold_ns(Probe& probe, double pending_mean, std::uint64_t seed) {
  struct HoldState {
    caem::sim::Simulator* sim;
    caem::util::Rng rng;
    std::uint64_t left;
  };
  struct HoldEvent {
    HoldState* state;
    void operator()(double now) const {
      if (state->left == 0) {
        state->sim->stop();
        return;
      }
      --state->left;
      state->sim->schedule_at(now + state->rng.exponential_mean(1.0), HoldEvent{state});
    }
  };
  caem::sim::Simulator sim;
  HoldState state{&sim, caem::util::Rng(seed, "perfbench/hold"), 0};
  const auto pending = static_cast<std::size_t>(std::max(1.0, std::round(pending_mean)));
  for (std::size_t k = 0; k < pending; ++k) {
    sim.schedule_at(state.rng.exponential_mean(1.0), HoldEvent{&state});
  }
  state.left = probe.calls;
  const auto start = Clock::now();
  sim.run_until();
  const double elapsed = seconds_since(start);
  if (state.left != 0) throw std::logic_error("hold probe stopped early");
  return elapsed * 1e9 / static_cast<double>(probe.calls);
}

/// LinkManager::snr_db on the captured round's member -> CH pairs,
/// stepped at the tone-check cadence, links materialised first.
double probe_snr_ns(Probe& probe, const TracedSim& traced, const Cell& cell) {
  if (!traced.captured) {
    probe.calls = 0;
    return 0.0;
  }
  const auto clusters = caem::leach::form_clusters(traced.positions, traced.is_head, traced.alive,
                                                   cell.config.channel.spatial_bin_m);
  std::vector<std::pair<caem::channel::NodeId, caem::channel::NodeId>> pairs;
  for (const auto& cluster : clusters) {
    for (const std::uint32_t member : cluster.members) pairs.emplace_back(member, cluster.head);
  }
  if (pairs.empty()) {
    probe.calls = 0;
    return 0.0;
  }
  caem::sim::RngRegistry rng(cell.seed);
  caem::channel::LinkManager links(cell.config.channel, &rng);
  for (const caem::channel::Vec2& position : traced.positions) links.add_static_node(position);
  const caem::channel::LinkBudget budget = cell.config.link_budget();
  double t = traced.captured_at_s;
  double sink = 0.0;
  for (const auto& [a, b] : pairs) sink += links.snr_db(a, b, t, budget);
  std::uint64_t done = 0;
  const auto start = Clock::now();
  while (done < probe.calls) {
    t += cell.config.check_interval_s;
    for (const auto& [a, b] : pairs) {
      sink += links.snr_db(a, b, t, budget);
      if (++done == probe.calls) break;
    }
  }
  const double elapsed = seconds_since(start);
  if (std::isnan(sink)) throw std::logic_error("snr probe produced NaN");
  return elapsed * 1e9 / static_cast<double>(probe.calls);
}

/// One energy accounting step: a radio state change, a settle, a
/// battery draw and a ledger entry.
double probe_energy_ns(Probe& probe, const NetworkConfig& config) {
  caem::energy::Battery battery(1e12);
  caem::energy::EnergyLedger ledger;
  caem::energy::Radio radio(caem::energy::RadioId::kTone, config.tone_radio_profile(), &battery,
                            &ledger);
  double t = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k < probe.calls; ++k) {
    t += config.check_interval_s;
    radio.transition(t, (k & 1) != 0 ? caem::energy::RadioState::kRx
                                     : caem::energy::RadioState::kIdle);
    radio.settle(t + 1e-3);
    ledger.add(caem::energy::RadioId::kData, caem::energy::RadioState::kTx,
               battery.drain(1e-9, t + 1e-3));
  }
  const double elapsed = seconds_since(start);
  if (!(ledger.total() > 0.0)) throw std::logic_error("energy probe drew nothing");
  return elapsed * 1e9 / static_cast<double>(probe.calls);
}

/// RoundManager::next_round (election + form_clusters) on the workload's
/// positions with every node alive.
double probe_form_ms(Probe& probe, const TracedSim& traced, const Cell& cell) {
  if (!traced.captured) {
    probe.calls = 0;
    return 0.0;
  }
  caem::leach::RoundManager manager(traced.positions.size(), cell.config.ch_fraction,
                                    cell.config.round_duration_s,
                                    cell.config.channel.spatial_bin_m);
  const std::vector<bool> alive(traced.positions.size(), true);
  caem::util::Rng rng(cell.seed, "perfbench/leach");
  std::vector<double> samples;
  std::size_t members = 0;
  for (std::uint64_t k = 0; k < probe.calls; ++k) {
    const auto start = Clock::now();
    const auto clusters = manager.next_round(traced.positions, alive, rng);
    samples.push_back(seconds_since(start) * 1e3);
    members += clusters.size();
  }
  if (members == 0) throw std::logic_error("clustering probe formed no clusters");
  return median(samples);
}

struct IoProbe {
  double serialize_us = 0.0;
  double parse_us = 0.0;
  double bytes = 0.0;
  double store_ms = 0.0;
  double load_ms = 0.0;
};

/// run_result_io and ResultCache on the workload's own results.
IoProbe probe_io(Probe& codec, Probe& store, const std::vector<RunResult>& runs,
                 const std::string& dir) {
  IoProbe out;
  std::vector<double> serialize;
  std::vector<double> parse;
  double bytes = 0.0;
  for (std::uint64_t k = 0; k < codec.calls; ++k) {
    const RunResult& run = runs[k % runs.size()];
    auto start = Clock::now();
    const std::string json = caem::core::to_json(run);
    serialize.push_back(seconds_since(start) * 1e6);
    start = Clock::now();
    const RunResult back = caem::core::run_result_from_json(json);
    parse.push_back(seconds_since(start) * 1e6);
    if (back.executed_events != run.executed_events) throw std::logic_error("parse mismatch");
    bytes += static_cast<double>(json.size());
  }
  out.serialize_us = median(serialize);
  out.parse_us = median(parse);
  out.bytes = bytes / static_cast<double>(codec.calls);

  fs::remove_all(dir);
  const caem::scenario::ResultCache cache(dir);
  std::vector<double> stores;
  std::vector<double> loads;
  for (std::uint64_t k = 0; k < store.calls; ++k) {
    const std::string path = (fs::path(dir) / ("c" + std::to_string(k) + ".json")).string();
    const auto start = Clock::now();
    cache.store(path, runs[k % runs.size()]);
    stores.push_back(seconds_since(start) * 1e3);
  }
  for (std::uint64_t k = 0; k < store.calls; ++k) {
    const std::string path = (fs::path(dir) / ("c" + std::to_string(k) + ".json")).string();
    const auto start = Clock::now();
    const auto loaded = cache.load(path);
    loads.push_back(seconds_since(start) * 1e3);
    if (!loaded) throw std::runtime_error("store probe lost " + path);
  }
  fs::remove_all(dir);
  out.store_ms = median(stores);
  out.load_ms = median(loads);
  return out;
}

}  // namespace

std::uint64_t probe_calls(std::uint64_t sized_from, std::uint64_t floor, std::uint64_t cap) {
  return std::clamp(sized_from, floor, cap);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  std::ostringstream text;
  text << "scenario.name = " << name << "\nscenario.seed = " << seed << "\n";
  if (name == "fig9-paper") {
    // The paper's Fig. 9 cell: 100 nodes, 100 m field, 5 pkt/s/node,
    // unlimited radio range, each paper protocol run to extinction.
    text << "scenario.protocols = pure-leach,caem-scheme1,caem-scheme2\n"
            "scenario.reps = 1\n"
            "scenario.max_sim_s = 4000\n"
            "scenario.run_to_death = true\n"
            "scenario.threads = 1\n"
            "node_count = 100\n"
            "field_size_m = 100\n"
            "traffic_rate_pps = 5\n"
            "channel.radio_range_m = 0\n";
    return {name, text.str(), false};
  }
  if (name == "city-10k") {
    // 10,000 nodes at the paper's density: three 20 s LEACH rounds of
    // Poisson telemetry under a 150 m radio range and the auto spatial bin.
    text << "scenario.protocols = caem-scheme1\n"
            "scenario.reps = 1\n"
            "scenario.max_sim_s = 60\n"
            "scenario.threads = 1\n"
            "node_count = 10000\n"
            "field_size_m = 1000\n"
            "traffic_rate_pps = 1\n"
            "traffic_kind = poisson\n"
            "channel.radio_range_m = 150\n"
            "channel.spatial_bin_m = 0\n";
    return {name, text.str(), false};
  }
  if (name == "sweep-cache") {
    // 2,000 tiny cells: 4 protocols x 10 loads x 50 reps of a 20-node,
    // 5-simulated-second network (its one energy snapshot fires at 5 s).
    text << "scenario.protocols = pure-leach,caem-scheme1,caem-scheme2,caem-deadline\n"
            "scenario.reps = 50\n"
            "scenario.max_sim_s = 5\n"
            "node_count = 20\n"
            "field_size_m = 100\n"
            "sweep.traffic_rate_pps = list:1,2,3,4,5,6,7,8,9,10\n";
    return {name, text.str(), true};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string result_digest(RunResult result) {
  result.wall_ms = 0.0;
  result.exec_host.clear();
  result.exec_pid = 0;
  return caem::util::content_digest(caem::core::to_json(result));
}

Report run_untraced(const Workload& workload, const Options& options) {
  const ScenarioSpec spec = parse_spec(workload);
  const std::vector<Cell> cells = expand_cells(spec);
  Report report;

  // Set-up is timed before every pass, so its median spans the run
  // rather than one half-second of it.
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> events_per_s;
  std::vector<double> cells_per_s;
  std::vector<double> warm_cells_per_s;
  std::vector<double> cpu;
  std::vector<double> sys;
  std::vector<double> events_per_cpu_s;
  std::vector<double> cells_per_cpu_s;
  std::vector<double> warm_cells_per_cpu_s;
  const std::string dir = (fs::path(options.work_dir) / "pass").string();
  const auto start = Clock::now();
  do {
    setup.push_back(median_of_repeats([&] { return setup_once(workload, cells); }));
    const PassOutcome pass = run_pass(workload, dir, nullptr, false);
    audit_pass(report, pass, workload, cells, spec.options);
    ++report.passes;
    const auto n = static_cast<double>(pass.cells);
    wall.push_back(pass.cold_s + pass.warm_s);
    events_per_s.push_back(static_cast<double>(pass.events) / pass.cold_s);
    cells_per_s.push_back(n / pass.cold_s);
    warm_cells_per_s.push_back(n / pass.warm_s);
    cpu.push_back(pass.cold_cpu_s + pass.warm_cpu_s);
    sys.push_back(pass.cold_cpu_s - pass.cold_user_s);
    events_per_cpu_s.push_back(static_cast<double>(pass.events) / pass.cold_user_s);
    cells_per_cpu_s.push_back(n / pass.cold_user_s);
    warm_cells_per_cpu_s.push_back(n / pass.warm_cpu_s);
  } while (seconds_since(start) < options.seconds);

  report.metrics = {
      {"events_per_cpu_s", median(events_per_cpu_s), "1/s"},
      {"setup_s", median(setup), "s"},
      {"cells_per_cpu_s", median(cells_per_cpu_s), "1/s"},
      {"warm_cells_per_cpu_s", median(warm_cells_per_cpu_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"cold_sys_s", median(sys), "s"},
      {"events_per_s", median(events_per_s), "1/s"},
      {"cells_per_s", median(cells_per_s), "1/s"},
      {"warm_cells_per_s", median(warm_cells_per_s), "1/s"},
  };
  return report;
}

Report run_traced(const Workload& workload, const Options& options) {
  const ScenarioSpec spec = parse_spec(workload);
  const std::vector<Cell> cells = expand_cells(spec);
  Report report;
  Tracer tracer;

  double expand_ms = 0.0;
  PassOutcome pass;
  std::vector<RunResult> untraced(cells.size());
  double untraced_s = 0.0;
  TracedSim traced;
  Probe hold;
  Probe snr;
  Probe energy;
  Probe form;
  Probe codec;
  Probe store;
  double hold_ns = 0.0;
  double snr_ns = 0.0;
  double account_ns = 0.0;
  double form_ms = 0.0;
  IoProbe io;
  {
    const Scope root(&tracer, "perfbench.traced");
    {
      const Scope setup(&tracer, "scenario.expand");
      expand_ms = median_of_repeats([&] { return expand_once(workload); }) * 1e3;
    }
    {
      // The engine pass runs untraced inside; spans sit around its calls.
      const Scope engine(&tracer, "engine.pass");
      pass = run_pass(workload, (fs::path(options.work_dir) / "pass").string(), &tracer, true);
    }
    audit_pass(report, pass, workload, cells, spec.options);
    report.passes = 1;
    {
      const Scope run(&tracer, "untraced.sim");
      const auto start = Clock::now();
      for (std::size_t i = 0; i < cells.size(); ++i) {
        untraced[i] = caem::core::SimulationRunner::run(cells[i].config, cells[i].protocol,
                                                        cells[i].seed, spec.options);
      }
      untraced_s = seconds_since(start);
    }
    {
      const Scope sim(&tracer, "traced.sim");
      traced = traced_sim(tracer, cells, spec.options, report);
    }
    {
      const Scope probes(&tracer, "probes");
      const double pending_mean =
          traced.pending_samples == 0
              ? 0.0
              : traced.pending_sum / static_cast<double>(traced.pending_samples);
      hold = make_probe("sim.hold", traced.fired, 100000, 1000000);
      {
        const Scope span(&tracer, "probe.sim.hold");
        hold_ns = probe_hold_ns(hold, pending_mean, cells.front().seed);
      }
      snr = make_probe("channel.snr", traced.mac.checks, 10000, 1000000);
      {
        const Scope span(&tracer, "probe.channel.snr");
        snr_ns = probe_snr_ns(snr, traced, cells.front());
      }
      energy = make_probe("energy.account", traced.mac.checks, 10000, 1000000);
      {
        const Scope span(&tracer, "probe.energy.account");
        account_ns = probe_energy_ns(energy, cells.front().config);
      }
      form = make_probe("leach.form", traced.rounds, 1, 200);
      {
        const Scope span(&tracer, "probe.leach.form");
        form_ms = probe_form_ms(form, traced, cells.front());
      }
      codec = make_probe("core.codec", cells.size(), 200, 2000);
      store = make_probe("scenario.store", cells.size(), 50, 2000);
      {
        const Scope span(&tracer, "probe.io");
        io = probe_io(codec, store, traced.results,
                      (fs::path(options.work_dir) / "probe-store").string());
      }
    }
  }

  // Simulated statistics must not depend on how a cell is driven.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.traced_digests.push_back(result_digest(traced.results[i]));
    report.untraced_digests.push_back(result_digest(untraced[i]));
    const bool engine_ok =
        i < pass.runs.size() && result_digest(pass.runs[i]) == report.untraced_digests[i];
    if (report.traced_digests[i] != report.untraced_digests[i] || !engine_ok) {
      ++report.failed;
      if (report.failures.size() < 8) {
        report.failures.push_back(cells[i].id + ": traced, untraced and engine results differ");
      }
    }
  }
  report.probes = {hold, snr, energy, form, codec, store};
  report.spans = tracer.spans();
  if (!options.trace_dir.empty()) tracer.write(options.trace_dir);

  const double wall_ms = traced.wall_ms;
  const auto fired = static_cast<double>(traced.fired);
  const auto checks = static_cast<double>(traced.mac.checks);
  const SliceCosts costs = slice_costs(traced);
  std::vector<double> slice_ms;
  for (const Slice& slice : traced.slices) slice_ms.push_back(slice.ms);
  const Tail slice_tail = tail_of(slice_ms);

  std::vector<double> cell_ms;
  double cell_ms_sum = 0.0;
  for (const RunResult& run : pass.runs) {
    cell_ms.push_back(run.wall_ms);
    cell_ms_sum += run.wall_ms;
  }
  const Tail cell_tail = tail_of(cell_ms);

  const double sim_share = hold_ns * 1e-6 * fired / wall_ms;
  const double channel_share = snr_ns * 1e-6 * checks / wall_ms;
  const double energy_share = account_ns * 1e-6 * checks / wall_ms;
  const double leach_share = form_ms * static_cast<double>(traced.rounds) / wall_ms;
  const double metrics_share =
      std::max(0.0, costs.snapshot_ms) * static_cast<double>(costs.snapshots) / wall_ms;
  const double core_share = traced.core_ms / wall_ms;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  report.metrics = {
      {"sim.events_fired", fired, "count"},
      {"sim.events_scheduled", static_cast<double>(traced.scheduled), "count"},
      {"sim.cancel_ratio", ratio(static_cast<double>(traced.cancelled),
                                 static_cast<double>(traced.scheduled)), "ratio"},
      {"sim.pending_mean", ratio(traced.pending_sum, static_cast<double>(traced.pending_samples)),
       "count"},
      {"sim.hold_ns", hold_ns, "ns"},
      {"sim.share", sim_share, "ratio"},
      {"channel.snr_ns", snr_ns, "ns"},
      {"channel.share", channel_share, "ratio"},
      {"mac.checks", checks, "count"},
      {"mac.frames_sent", static_cast<double>(traced.mac.frames_sent), "count"},
      {"mac.frames_failed", static_cast<double>(traced.mac.frames_failed), "count"},
      {"mac.collisions", static_cast<double>(traced.mac.collisions), "count"},
      {"mac.csi_denied", static_cast<double>(traced.mac.csi_denied), "count"},
      {"mac.busy_denied", static_cast<double>(traced.mac.busy_denied), "count"},
      {"mac.ns_per_check", ratio(untraced_s * 1e9, checks), "ns"},
      {"queueing.generated", static_cast<double>(traced.generated), "count"},
      {"queueing.delivered", static_cast<double>(traced.delivered), "count"},
      {"queueing.dropped", static_cast<double>(traced.dropped), "count"},
      {"energy.account_ns", account_ns, "ns"},
      {"energy.share", energy_share, "ratio"},
      {"leach.rounds", static_cast<double>(traced.rounds), "count"},
      {"leach.form_ms", form_ms, "ms"},
      {"leach.share", leach_share, "ratio"},
      {"core.round_boundary_ms", costs.round_ms, "ms"},
      {"metrics.snapshot_ms", costs.snapshot_ms, "ms"},
      {"metrics.share", metrics_share, "ratio"},
      {"run.slices", static_cast<double>(slice_ms.size()), "count"},
      {"run.slice_ms_p50", median(slice_ms), "ms"},
      {"run.slice_ms_tail", slice_tail.value, "ms"},
      {"run.slice_tail_pct", slice_tail.pct, "%"},
      {"core.build_ms", median(traced.build_ms), "ms"},
      {"core.start_ms", median(traced.start_ms), "ms"},
      {"core.finalize_ms", median(traced.finalize_ms), "ms"},
      {"core.share", core_share, "ratio"},
      {"core.serialize_us", io.serialize_us, "us"},
      {"core.parse_us", io.parse_us, "us"},
      {"core.result_bytes", io.bytes, "bytes"},
      {"scenario.expand_ms", expand_ms, "ms"},
      {"scenario.store_ms", io.store_ms, "ms"},
      {"scenario.load_ms", io.load_ms, "ms"},
      {"scenario.cell_ms_p50", median(cell_ms), "ms"},
      {"scenario.cell_ms_tail", cell_tail.value, "ms"},
      {"scenario.cell_tail_pct", cell_tail.pct, "%"},
      {"scenario.drain_overhead_share",
       1.0 - ratio(cell_ms_sum, static_cast<double>(pass.drains) * pass.drain_s * 1e3), "ratio"},
      {"scenario.claims_stolen", static_cast<double>(pass.claims_stolen), "count"},
      {"scenario.store_bytes", static_cast<double>(pass.store_bytes), "bytes"},
      {"scenario.fold_ms", pass.fold_ms, "ms"},
      {"scenario.outputs_ms", pass.outputs_ms, "ms"},
      {"trace.overhead", ratio(wall_ms, untraced_s * 1e3) - 1.0, "ratio"},
      {"model.unattributed_share",
       1.0 - (sim_share + channel_share + energy_share + leach_share + metrics_share + core_share),
       "ratio"},
  };
  return report;
}

}  // namespace perfbench
