// experiment.hpp — parallel execution of independent simulation runs.
//
// The benchmark harness sweeps (protocol x load x seed) grids; every
// point is an independent Network, so we parallelise with a plain thread
// pool over the job list (explicit parallelism, no shared mutable state —
// the HPC-guide idiom).  Replication folding lives here too; the
// scenario engine (scenario/engine.hpp) is what runs sweeps.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/simulation_runner.hpp"
#include "util/stats.hpp"

namespace caem::core {

/// Drainer count for `cells` cells on `threads` threads (0 = hardware
/// concurrency): never more drainers than cells.
[[nodiscard]] std::size_t drain_threads(std::size_t threads, std::size_t cells) noexcept;

/// The one parallel drain loop: `drainers` threads (the caller's own
/// thread when there is at most one) each run `cell` on whatever `next`
/// hands out until it returns nullopt.  `next` must be thread-safe when
/// drainers > 1.  The first exception — from `next` or `cell` — stops
/// every drainer at its next draw and is rethrown once all have joined.
void drain_parallel(std::size_t drainers, const std::function<std::optional<std::size_t>()>& next,
                    const std::function<void(std::size_t)>& cell);

/// Run `job(i)` for i in [0, count) on up to `threads` workers (0 =
/// hardware concurrency) and return the results in index order.  The
/// first exception stops the remaining jobs and propagates.
std::vector<RunResult> parallel_runs(std::size_t count,
                                     const std::function<RunResult(std::size_t)>& job,
                                     std::size_t threads = 0);

/// Scalar summary over replications.
struct Replicated {
  util::OnlineStats lifetime_s;          ///< network lifetime (dead-fraction)
  util::OnlineStats first_death_s;
  util::OnlineStats energy_per_packet_j;
  util::OnlineStats delivery_rate;
  util::OnlineStats mean_delay_s;
  util::OnlineStats p95_delay_s;
  util::OnlineStats throughput_bps;
  util::OnlineStats queue_stddev;
  util::OnlineStats total_consumed_j;
  std::vector<RunResult> runs;           ///< the raw per-seed results
};

/// Fold already-computed runs into the replication summary.  Delay and
/// delivery statistics only exist when a run delivered at least one
/// packet over the air — runs with `delivered_air == 0` would report a
/// meaningless 0 and drag the replication mean toward it, so they are
/// excluded from `delivery_rate`, `mean_delay_s`, `p95_delay_s` and
/// `energy_per_packet_j` (check `.count()` against `runs.size()` to see
/// how many contributed).  Lifetimes of -1 (never crossed inside the
/// horizon) fold as the horizon, a conservative lower bound.
Replicated fold_runs(std::vector<RunResult> runs);

}  // namespace caem::core
