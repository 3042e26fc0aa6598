#include "scenario/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "scenario/cost_model.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/sweep_manifest.hpp"
#include "scenario/work_queue.hpp"
#include "sim/kernel_stats.hpp"
#include "util/table_writer.hpp"
#include "util/time_series.hpp"

namespace caem::scenario {

namespace {

const std::string& exec_hostname() {
  static const std::string host = [] {
    char buffer[256] = {0};
    if (::gethostname(buffer, sizeof(buffer) - 1) != 0 || buffer[0] == '\0') {
      return std::string("unknown-host");
    }
    return std::string(buffer);
  }();
  return host;
}

/// Periodic one-line drain report on its own thread: cells done/total,
/// hit/executed split, executed cells/s and the ETA that rate implies.
/// A last line is written at stop(), so a drain shorter than the
/// interval (or one whose reporter thread was starved of CPU) still
/// reports its final state.  Interval <= 0 constructs a no-op (no
/// thread).  stop() is idempotent and joins; the destructor stops too,
/// so the reporter can never outlive the counters or stream it watches.
class ProgressReporter {
 public:
  ProgressReporter(double interval_s, std::ostream& out, std::size_t total,
                   const std::atomic<std::size_t>& hits, const std::atomic<std::size_t>& executed)
      : interval_s_(interval_s), out_(out), total_(total), hits_(hits), executed_(executed) {
    if (interval_s_ > 0.0) thread_ = std::thread([this] { loop(); });
  }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  ~ProgressReporter() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    const auto started = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    const auto interval = std::chrono::duration<double>(interval_s_);
    while (!cv_.wait_for(lock, interval, [this] { return stopped_; })) {
      report(started);
    }
    report(started);
  }

  void report(std::chrono::steady_clock::time_point started) const {
    const std::size_t hits = hits_.load();
    const std::size_t executed = executed_.load();
    const std::size_t done = std::min(hits + executed, total_);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    const double rate = elapsed_s > 0.0 ? static_cast<double>(executed) / elapsed_s : 0.0;
    out_ << "progress: " << done << "/" << total_ << " cell(s) (" << hits << " hit, "
         << executed << " executed), " << util::format_fixed(rate, 2) << " cells/s, ETA ";
    if (done >= total_) {
      out_ << "0 s";
    } else if (rate > 0.0) {
      out_ << util::format_fixed(static_cast<double>(total_ - done) / rate, 0) << " s";
    } else {
      out_ << "unknown";
    }
    // Kernel op totals across every completed run in this process
    // (counters fold in when a cell finishes, so they trail in-flight
    // cells slightly).
    const sim::KernelCounters kernel = sim::kernel_totals();
    out_ << "; kernel: " << kernel.scheduled << " sched / " << kernel.fired << " fired / "
         << kernel.cancelled << " cancelled / " << kernel.tombstones_pruned << " pruned";
    out_ << std::endl;  // flush per line: progress is watched live
  }

  double interval_s_;
  std::ostream& out_;
  std::size_t total_;
  const std::atomic<std::size_t>& hits_;
  const std::atomic<std::size_t>& executed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// RAII heartbeat on one claimed cell: re-stamps the claim every
/// lease/3 so a healthy holder is never mistaken for a crashed one.
/// Join (destruct) BEFORE releasing the claim — a refresh racing the
/// release would resurrect the claim file.
class LeaseRefresher {
 public:
  LeaseRefresher(const ClaimBoard& board, std::size_t job, double lease_s)
      : thread_([this, &board, job, lease_s] {
          std::unique_lock<std::mutex> lock(mutex_);
          const auto period = std::chrono::duration<double>(lease_s / 3.0);
          while (!cv_.wait_for(lock, period, [this] { return stopped_; })) {
            board.refresh(job);
          }
        }) {}

  LeaseRefresher(const LeaseRefresher&) = delete;
  LeaseRefresher& operator=(const LeaseRefresher&) = delete;

  ~LeaseRefresher() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Worker-mode cell source: each cell is won by whichever process claims it
/// first in the store's ClaimBoard (work_queue.hpp), so a fast worker
/// simply claims more cells.  Passes repeat over the cells not yet
/// stored until the STORE says the sweep is complete — claims gate
/// execution, never completion — so a worker also outlives its peers'
/// crashes: their stale claims expire and are stolen here.  One drainer
/// per process.
class ClaimSource {
 public:
  ClaimSource(ClaimBoard& board, std::vector<std::size_t> queue, double lease_s,
              std::function<bool()> cancelled, std::function<bool(std::size_t)> stored,
              std::function<void(std::size_t)> on_hit, std::atomic<std::size_t>& stolen)
      : board_(board),
        queue_(std::move(queue)),
        lease_s_(lease_s),
        // Poll cadence while every remaining cell is held by a healthy
        // peer: fast enough to pick freed cells up promptly, and well
        // under the lease so a stale claim is stolen soon after expiry.
        poll_(std::min(0.5, lease_s / 4.0)),
        cancelled_(std::move(cancelled)),
        stored_(std::move(stored)),
        on_hit_(std::move(on_hit)),
        stolen_(stolen) {}

  /// The next cell this worker claimed, or nullopt once the store holds
  /// every cell (or cancellation stopped the drain).
  std::optional<std::size_t> next() {
    for (;;) {
      if (at_ == queue_.size()) {
        stolen_.store(board_.stolen());
        if (blocked_.empty()) return std::nullopt;
        if (!progressed_) std::this_thread::sleep_for(poll_);
        queue_ = std::exchange(blocked_, {});
        at_ = 0;
        progressed_ = false;
      }
      const std::size_t job = queue_[at_++];
      // Cooperative stop between cells (never mid-cell: a started cell
      // completes and stores, and its claim is released).
      if (cancelled_()) {
        stopped_ = true;
        return std::nullopt;
      }
      if (stored_(job)) {  // a peer finished it since our last look
        on_hit_(job);
        progressed_ = true;
        continue;
      }
      if (board_.try_claim(job) == ClaimBoard::Claim::kBusy) {
        blocked_.push_back(job);
        continue;
      }
      // Won.  Re-check under the claim: the previous holder may have
      // stored and released between our look and our acquire.
      if (stored_(job)) {
        board_.release(job);
        on_hit_(job);
        progressed_ = true;
        continue;
      }
      progressed_ = true;
      return job;
    }
  }

  /// Run `cell` on a claimed job, then release the claim.
  void execute(std::size_t job, const std::function<void(std::size_t)>& cell) {
    try {
      // Heartbeat while computing; joined before the release so a late
      // refresh can never resurrect a released claim.
      const LeaseRefresher heartbeat(board_, job, lease_s_);
      cell(job);
    } catch (...) {
      // Never exit holding a claim: peers would wait a full lease to
      // steal a cell this worker isn't computing.
      board_.release(job);
      throw;
    }
    board_.release(job);
    executed_.push_back(job);
  }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  /// Cells this worker claimed, executed and stored, ascending.
  [[nodiscard]] std::vector<std::size_t> executed() const {
    std::vector<std::size_t> sorted = executed_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  ClaimBoard& board_;
  std::vector<std::size_t> queue_;
  std::vector<std::size_t> blocked_;
  std::size_t at_ = 0;
  bool progressed_ = false;
  bool stopped_ = false;
  double lease_s_;
  std::chrono::duration<double> poll_;
  std::function<bool()> cancelled_;
  std::function<bool(std::size_t)> stored_;
  std::function<void(std::size_t)> on_hit_;
  std::atomic<std::size_t>& stolen_;
  std::vector<std::size_t> executed_;
};

/// Every grid point's materialised config, in expansion order.
std::vector<core::NetworkConfig> point_configs(const ScenarioSpec& spec,
                                               const std::vector<GridPoint>& grid) {
  std::vector<core::NetworkConfig> configs;
  configs.reserve(grid.size());
  for (const GridPoint& point : grid) configs.push_back(spec.config_at(point));
  return configs;
}

std::vector<std::string> keys_of(const ScenarioSpec& spec,
                                 const std::vector<core::NetworkConfig>& configs) {
  std::vector<std::string> keys(configs.size() * spec.protocols.size() * spec.replications);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const JobCoords c = job_coords(spec, i);
    keys[i] = ResultCache::entry_key(configs[c.point], spec.protocols[c.protocol],
                                     spec.base_seed + c.rep, spec.options);
  }
  return keys;
}

}  // namespace

JobCoords job_coords(const ScenarioSpec& spec, std::size_t index) {
  const std::size_t reps = spec.replications;
  const std::size_t protocol_count = spec.protocols.size();
  return JobCoords{index / (reps * protocol_count), (index / reps) % protocol_count,
                   index % reps};
}

std::vector<std::string> job_keys(const ScenarioSpec& spec) {
  return keys_of(spec, point_configs(spec, expand_grid(spec.axes)));
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto started = std::chrono::steady_clock::now();
  const auto seconds_since_start = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  };

  // -- expand: the grid and every point's config --
  ScenarioResult result;
  result.scenario_name = spec.name;
  for (const Axis& axis : spec.axes) {
    for (std::string& key : axis_key_components(axis.key)) {
      result.axis_keys.push_back(std::move(key));
    }
  }
  const std::vector<GridPoint> grid = expand_grid(spec.axes);
  const std::size_t protocol_count = spec.protocols.size();
  const std::size_t reps = spec.replications;
  // Snapshot every point's NetworkConfig up front: drainers read value
  // copies and never touch a shared util::Config.
  const std::vector<core::NetworkConfig> configs = point_configs(spec, grid);

  result.total_jobs = grid.size() * protocol_count * reps;
  result.cache_enabled = !spec.cache_dir.empty() && spec.use_cache;
  result.worker_mode = spec.worker_mode;
  result.merged = spec.merge_shards;
  if (spec.worker_mode && spec.merge_shards) {
    throw std::invalid_argument(
        "a worker cannot also merge: run `caem merge` once every worker has exited");
  }
  if ((spec.worker_mode || spec.merge_shards) && !result.cache_enabled) {
    throw std::invalid_argument(
        "worker and merge runs require the result cache — the shared cache directory is the "
        "coordination substrate workers and the merge meet through (set "
        "--cache-dir/scenario.cache_dir and drop --no-cache)");
  }
  if (spec.worker_mode && !(spec.lease_s > 0.0)) {
    throw std::invalid_argument("--lease must be a positive number of seconds");
  }

  // Live drain counters for --progress, the worker report, and any
  // embedding host (caem serve) watching through spec.progress_sink.
  ProgressSink local_sink;
  ProgressSink& sink = spec.progress_sink != nullptr ? *spec.progress_sink : local_sink;
  sink.total.store(result.total_jobs);
  const auto cancel_requested = [&spec] {
    return spec.cancel != nullptr && spec.cancel->load();
  };

  // LPT drain order: longest-expected cells first, so the drain never
  // saves a run-to-extinction cell for last (scenario/cost_model.hpp),
  // refined by the measured wall_ms of the hits resolve observes.
  // Purely a scheduling hint — every result binds to its job index.
  CostModel model;
  const auto family = [&](std::size_t i) {
    const JobCoords c = job_coords(spec, i);
    return std::pair{std::string(core::to_string(spec.protocols[c.protocol])),
                     configs[c.point].node_count};
  };

  // -- resolve: cache keys, then hits loaded and misses listed --
  // A worker keeps no results (the merge folds); every other run keeps
  // one slot per job for the fold.
  std::vector<core::RunResult> runs(spec.worker_mode ? 0 : result.total_jobs);
  std::vector<std::size_t> misses;
  std::optional<ResultCache> cache;
  std::vector<std::string> paths;
  if (result.cache_enabled) {
    cache.emplace(spec.cache_dir);
    const std::vector<std::string> keys = keys_of(spec, configs);
    paths.reserve(keys.size());
    for (const std::string& key : keys) {
      paths.push_back((std::filesystem::path(spec.cache_dir) / key).string());
    }
    result.sweep_digest = sweep_digest(keys);
  }
  // Utility bookkeeping for the store janitor: every observed hit bumps
  // the entry's touch sidecar when the host asked for it.
  const auto count_hit = [&](std::size_t i) {
    if (spec.record_touches) cache->touch(paths[i]);
    ++result.cache_hits;
    sink.hits.fetch_add(1);
  };
  for (std::size_t i = 0; i < result.total_jobs; ++i) {
    std::optional<core::RunResult> hit;
    if (cache) hit = cache->load(paths[i]);
    if (!hit) {
      misses.push_back(i);
      continue;
    }
    const auto [protocol, node_count] = family(i);
    model.observe(protocol, node_count, spec.options.max_sim_s, hit->wall_ms);
    count_hit(i);
    if (!spec.worker_mode) runs[i] = std::move(*hit);
  }
  if (spec.merge_shards) {
    // Worker telemetry census: which worker drained what, at what cost
    // — load imbalance and crash recovery made visible.
    result.workers = SweepManifest(spec.cache_dir, result.sweep_digest).collect_workers();
  }

  // -- drain: one cost-ordered loop over the misses --
  const std::vector<std::size_t> order = cost_order(misses, [&](std::size_t i) {
    const auto [protocol, node_count] = family(i);
    return model.estimate_ms(protocol, node_count, spec.options.max_sim_s);
  });
  std::atomic<std::size_t> executed{0};
  const auto run_cell = [&](std::size_t job) {
    const JobCoords c = job_coords(spec, job);
    const auto t0 = std::chrono::steady_clock::now();
    core::RunResult run = core::SimulationRunner::run(
        configs[c.point], spec.protocols[c.protocol], spec.base_seed + c.rep, spec.options);
    if (cache) {
      // Execution provenance is stamped here — by the engine, only on
      // runs headed for the store — so the simulator itself stays a
      // pure function of (config, protocol, seed) and two fresh
      // computations remain bit-identical (a tested contract).  Each
      // cell is stored the moment it finishes: a cancelled or failing
      // drain never loses a finished cell.
      run.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      run.exec_host = exec_hostname();
      run.exec_pid = static_cast<std::uint64_t>(::getpid());
      cache->store(paths[job], run);
    }
    executed.fetch_add(1);
    sink.executed.fetch_add(1);
    if (!spec.worker_mode) runs[job] = std::move(run);
  };

  // The drain takes its next cell from an in-process ticket over the
  // cost-ordered misses on spec.threads threads, or — in worker mode —
  // from the store's ClaimBoard, one drainer per process.
  std::optional<ClaimBoard> board;
  std::optional<ClaimSource> claims;
  std::atomic<std::size_t> ticket{0};
  std::function<std::optional<std::size_t>()> next;
  std::function<void(std::size_t)> cell = run_cell;
  std::size_t drainers = 1;
  if (spec.worker_mode) {
    board.emplace(spec.cache_dir, result.sweep_digest, spec.lease_s);
    std::error_code error;
    std::filesystem::create_directories(board->dir(), error);
    if (error) {
      throw std::runtime_error("cannot create claim dir '" + board->dir() +
                               "': " + error.message());
    }
    result.worker_token = board->token();
    claims.emplace(
        *board, order, spec.lease_s, cancel_requested,
        [&](std::size_t job) { return cache->load(paths[job]).has_value(); }, count_hit,
        sink.stolen);
    next = [&] { return claims->next(); };
    cell = [&](std::size_t job) { claims->execute(job, run_cell); };
  } else {
    // Cancellation throws from the next draw, so a started cell always
    // completes (and stores) first.
    next = [&]() -> std::optional<std::size_t> {
      const std::size_t k = ticket.fetch_add(1);
      if (k >= order.size()) return std::nullopt;
      if (cancel_requested()) throw SweepCancelled();
      return order[k];
    };
    drainers = core::drain_threads(spec.threads, order.size());
  }
  {
    ProgressReporter reporter(spec.progress_s,
                              spec.progress_stream != nullptr ? *spec.progress_stream : std::cerr,
                              result.total_jobs, sink.hits, sink.executed);
    core::drain_parallel(drainers, next, cell);
  }
  result.executed_jobs = executed.load();
  result.cache_misses = result.executed_jobs;

  if (spec.worker_mode) {
    // No fold: `caem merge` folds the full sweep from pure cache hits
    // once the last worker exits.  Publish this worker's telemetry.
    result.cancelled = claims->stopped();
    result.claims_stolen = board->stolen();
    sink.stolen.store(result.claims_stolen);
    result.wall_s = seconds_since_start();
    WorkerMarker report;
    report.token = board->token();
    report.host = board->host();
    report.pid = static_cast<std::uint64_t>(::getpid());
    report.total_jobs = result.total_jobs;
    report.cache_hits = result.cache_hits;
    report.stolen = board->stolen();
    report.wall_ms = result.wall_s * 1000.0;
    report.stored = claims->executed();
    const SweepManifest manifest(spec.cache_dir, result.sweep_digest);
    manifest.write_worker_done(report);
    result.marker_path = manifest.worker_marker_path(board->token());
    return result;
  }

  // -- fold: per (point, protocol) in expansion order --
  result.points.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p) {
    PointResult point_result;
    point_result.point = grid[p];
    point_result.config = configs[p];
    point_result.protocols.reserve(protocol_count);
    for (std::size_t pr = 0; pr < protocol_count; ++pr) {
      const std::size_t base = (p * protocol_count + pr) * reps;
      std::vector<core::RunResult> slice(
          std::make_move_iterator(runs.begin() + static_cast<std::ptrdiff_t>(base)),
          std::make_move_iterator(runs.begin() + static_cast<std::ptrdiff_t>(base + reps)));
      point_result.protocols.push_back({spec.protocols[pr], core::fold_runs(std::move(slice))});
    }
    result.points.push_back(std::move(point_result));
  }
  result.wall_s = seconds_since_start();
  return result;
}

util::TableWriter summary_table(const ScenarioResult& result) {
  std::vector<std::string> headers = result.axis_keys;
  for (const char* column :
       {"protocol", "lifetime_s", "first_death_s", "delivery_rate", "mean_delay_s",
        "p95_delay_s", "energy_per_packet_j", "throughput_bps", "queue_stddev",
        "consumed_j", "reps", "n_delivering"}) {
    headers.emplace_back(column);
  }
  util::TableWriter table(std::move(headers));
  for (const PointResult& point : result.points) {
    for (const ProtocolResult& entry : point.protocols) {
      table.new_row();
      for (const auto& [key, value] : point.point.assignments) {
        (void)key;
        table.cell(value);
      }
      const core::Replicated& r = entry.replicated;
      table.cell(std::string(core::to_string(entry.protocol)))
          .cell(r.lifetime_s.mean(), 1)
          .cell(r.first_death_s.mean(), 1)
          .cell(r.delivery_rate.mean(), 4)
          .cell(r.mean_delay_s.mean(), 4)
          .cell(r.p95_delay_s.mean(), 4)
          .cell(r.energy_per_packet_j.mean(), 6)
          .cell(r.throughput_bps.mean(), 0)
          .cell(r.queue_stddev.mean(), 3)
          .cell(r.total_consumed_j.mean(), 2)
          .cell(r.runs.size())
          // Runs that delivered over the air — the only ones fold_runs
          // lets contribute to the delivery/delay/energy-per-packet
          // means above.  n_delivering < reps flags cells whose means
          // rest on a subset of the replications.
          .cell(r.delivery_rate.count());
    }
  }
  return table;
}

namespace {

void write_with(const util::TableWriter& table, const std::string& path, const char* what,
                void (util::TableWriter::*render)(std::ostream&) const, std::ostream& log) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("cannot write ") + what + " to '" + path + "'");
  (table.*render)(out);
  log << "wrote " << what << ": " << path << "\n";
}

/// One trace CSV per (point, protocol): the replication-mean Fig 8
/// (remaining energy, piecewise-linear) and Fig 9 (nodes alive, step)
/// traces on a uniform grid over the cell's simulated span.  Every value
/// is rendered at full round-trip precision, so a sweep re-run from pure
/// cache hits produces byte-identical files (a tested contract).
void write_trace_artifacts(const ScenarioResult& result, const ScenarioSpec& spec,
                           std::ostream& log) {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(spec.trace_dir, error);
  if (error) {
    throw std::runtime_error("cannot create trace dir '" + spec.trace_dir +
                             "': " + error.message());
  }
  for (const PointResult& point : result.points) {
    for (const ProtocolResult& entry : point.protocols) {
      const std::vector<core::RunResult>& runs = entry.replicated.runs;
      double span_s = 0.0;
      std::vector<const util::TimeSeries*> energy;
      std::vector<const util::TimeSeries*> alive;
      energy.reserve(runs.size());
      alive.reserve(runs.size());
      for (const core::RunResult& run : runs) {
        span_s = std::max(span_s, run.sim_end_s);
        energy.push_back(&run.avg_remaining_energy);
        alive.push_back(&run.nodes_alive);
      }
      const std::vector<double> grid = util::uniform_grid(0.0, span_s, spec.trace_points);
      const util::TimeSeries energy_mean = util::fold_mean(energy, grid, util::FoldMode::kLinear);
      const util::TimeSeries alive_mean = util::fold_mean(alive, grid, util::FoldMode::kStep);

      const fs::path path = fs::path(spec.trace_dir) /
                            ("p" + std::to_string(point.point.index) + "_" +
                             core::to_string(entry.protocol) + ".csv");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot write trace to '" + path.string() + "'");
      out << "# scenario " << result.scenario_name << ": " << describe(point.point)
          << "; protocol " << core::to_string(entry.protocol) << "; reps " << runs.size()
          << "\n";
      out << "t_s,avg_remaining_energy_j,nodes_alive\n";
      for (std::size_t i = 0; i < grid.size(); ++i) {
        out << util::format_full(energy_mean.points()[i].time_s) << ','
            << util::format_full(energy_mean.points()[i].value) << ','
            << util::format_full(alive_mean.points()[i].value) << '\n';
      }
      log << "wrote trace: " << path.string() << "\n";
    }
  }
}

}  // namespace

void write_outputs(const ScenarioResult& result, const ScenarioSpec& spec, std::ostream& log) {
  if (!spec.csv_path.empty() || !spec.json_path.empty()) {
    const util::TableWriter table = summary_table(result);
    if (!spec.csv_path.empty()) {
      write_with(table, spec.csv_path, "csv", &util::TableWriter::render_csv, log);
    }
    if (!spec.json_path.empty()) {
      write_with(table, spec.json_path, "json", &util::TableWriter::render_json, log);
    }
  }
  if (!spec.trace_dir.empty()) write_trace_artifacts(result, spec, log);
}

}  // namespace caem::scenario
