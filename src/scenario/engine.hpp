// engine.hpp — execute a ScenarioSpec as one job queue.
//
// The engine expands the whole (grid point x protocol x replication)
// cross product up front and drains it as ONE queue — the
// irregular-wavefront idiom (arXiv:1605.00930): keep every drainer busy
// as long as ANY cell remains, regardless of which sweep point it
// belongs to.  run_scenario is four steps:
//
//   expand   the grid and each point's config;
//   resolve  cache keys, then hits loaded and misses listed (every cell
//            is a miss when the cache is off);
//   drain    one cost-ordered loop over the misses, fed by an
//            in-process ticket on spec.threads threads or, in worker
//            mode, by the store's ClaimBoard; each cell is stored the
//            moment it finishes;
//   fold     results back per (point, protocol) — skipped in worker
//            mode, where `caem merge` folds.
//
// Determinism is preserved bit-for-bit: job (p, proto, rep) always runs
// seed base_seed + rep on an identical config, whatever thread or
// process picks it up, and results bind to job indices, never to drain
// order.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_manifest.hpp"
#include "util/table_writer.hpp"

namespace caem::scenario {

/// Live drain counters a host can watch while run_scenario executes
/// (ScenarioSpec::progress_sink).  `total` is set once the queue is
/// expanded; `hits`/`executed` tick as cells resolve, so done ==
/// hits + executed at any instant.  The sweep service polls these from
/// HTTP handler threads while drain threads write them.
struct ProgressSink {
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> stolen{0};  ///< stale claims stolen (worker mode)
};

/// Thrown by non-worker runs when ScenarioSpec::cancel flips mid-drain
/// (worker mode returns a partial result flagged `cancelled` instead —
/// it holds distributed state worth reporting).  Cells finished before
/// the stop are already stored when the cache is on.
class SweepCancelled : public std::runtime_error {
 public:
  SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Folded replications of one protocol at one grid point.
struct ProtocolResult {
  core::Protocol protocol;  ///< default-constructs to pure-leach
  core::Replicated replicated;
};

/// One grid point: its materialised config and per-protocol summaries
/// (aligned with ScenarioSpec::protocols).
struct PointResult {
  GridPoint point;
  core::NetworkConfig config;
  std::vector<ProtocolResult> protocols;
};

struct ScenarioResult {
  std::string scenario_name;
  /// Component axis keys (joint axes split), sorted by axis, matching
  /// each point's assignment order.
  std::vector<std::string> axis_keys;
  std::vector<PointResult> points;     ///< grid expansion order
  std::size_t total_jobs = 0;
  bool cache_enabled = false;
  /// Stats contract, the same in every mode: cache_hits counts the
  /// cells this process found stored, executed_jobs the cells it
  /// simulated, and cache_misses == executed_jobs.  A run that completes
  /// observes every cell once, so cache_hits + executed_jobs ==
  /// total_jobs — uncached (0 hits), cached, merge, and worker runs
  /// alike.  Summing executed_jobs over a sweep's workers (plus the
  /// merge's) reconstructs the sweep's miss count.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t executed_jobs = 0;
  double wall_s = 0.0;  ///< end-to-end engine time (expand + resolve + drain + fold)

  std::string sweep_digest;     ///< job-list digest (set whenever the cache is on)
  bool merged = false;          ///< merge mode: worker census + full fold

  // -- worker mode (dynamic claiming, see scenario/work_queue.hpp) --
  /// Worker run: this process drained the shared claim queue; points
  /// stays empty (the merge folds).  cache_hits counts every cell this
  /// worker observed already stored — at resolve or mid-drain when
  /// another worker got there first.
  bool worker_mode = false;
  std::string worker_token;         ///< this worker's claim token
  std::string marker_path;          ///< telemetry marker this worker published
  std::size_t claims_stolen = 0;    ///< stale/corrupt claims this worker stole
  /// Worker mode only: spec.cancel flipped mid-drain; the held claim
  /// was released, the telemetry marker written, and this result covers
  /// only the cells resolved before the stop.
  bool cancelled = false;
  /// Merge: per-worker telemetry reports found for this sweep (sorted by
  /// token) — the straggler census.
  std::vector<WorkerMarker> workers;
};

/// Decomposed job index: job i is replication `rep` of
/// `protocols[protocol]` at grid point `point` (rep varies fastest,
/// point slowest), simulated at seed base_seed + rep.
struct JobCoords {
  std::size_t point = 0;
  std::size_t protocol = 0;
  std::size_t rep = 0;
};

/// The (point, protocol, rep) coordinates of job `index`.
[[nodiscard]] JobCoords job_coords(const ScenarioSpec& spec, std::size_t index);

/// The cache entry key (ResultCache::entry_key) of every job, in job
/// order: what resolve looks up, and what sweep_digest() pins.  Throws
/// std::invalid_argument when a grid point's config does not validate.
[[nodiscard]] std::vector<std::string> job_keys(const ScenarioSpec& spec);

/// Run the scenario (expand -> resolve -> drain -> fold, see the header
/// comment).
///
/// With spec.cache_dir set (and use_cache), every (config digest,
/// protocol, seed) cell is first looked up in the ResultCache: hits are
/// never drained, misses execute and are stored one by one, so
/// re-running a sweep after editing one axis only executes the new
/// cells.
///
/// With spec.merge_shards (`caem merge`), the run is a cached run that
/// also censuses the sweep's worker telemetry markers into `workers`:
/// whatever cells crashed workers left unfinished are exactly the
/// remaining misses, which the merge executes before folding — so the
/// render is byte-identical to a single-process run.
///
/// With spec.worker_mode, this process cooperatively drains the ONE
/// shared queue: cells are claimed dynamically in the cache dir
/// (crash-safe lease/steal protocol — scenario/work_queue.hpp), and the
/// worker only exits once every cell of the sweep is durably cached —
/// so killing any worker delays nothing beyond one lease.  It publishes
/// a telemetry marker and never folds.
///
/// Worker and merge runs require the cache and are mutually exclusive;
/// both throw std::invalid_argument otherwise.  Every drain is
/// longest-expected-first (LPT): a-priori node_count x horizon, refined
/// by the measured wall_ms of cache entries already present for the
/// same (protocol, node_count) family.  Order affects wall clock only.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Summary table: one row per (point, protocol) with the axis columns
/// first, then the headline scalars.  `reps` counts all folded runs;
/// `n_delivering` counts the runs that delivered at least one packet
/// over the air and therefore contributed to the delivery_rate /
/// delay / energy-per-packet means (core::fold_runs excludes the rest —
/// this column is that exclusion contract made visible).
[[nodiscard]] util::TableWriter summary_table(const ScenarioResult& result);

/// Write spec-requested artifacts: CSV/JSON of the summary table, plus —
/// when spec.trace_dir is set — one per-(point, protocol) time-series
/// CSV (`t_s, avg_remaining_energy_j, nodes_alive`, replication-mean,
/// spec.trace_points samples over the cell's simulated span).  Logs each
/// written path to `log`.  Throws on unwritable paths.
void write_outputs(const ScenarioResult& result, const ScenarioSpec& spec, std::ostream& log);

}  // namespace caem::scenario
