#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace caem::core {

std::size_t drain_threads(std::size_t threads, std::size_t cells) noexcept {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(threads, cells);
}

void drain_parallel(std::size_t drainers, const std::function<std::optional<std::size_t>()>& next,
                    const std::function<void(std::size_t)>& cell) {
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto loop = [&] {
    try {
      while (!failed.load()) {
        const std::optional<std::size_t> job = next();
        if (!job) return;
        cell(*job);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true);
    }
  };
  if (drainers <= 1) {
    loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(drainers);
    for (std::size_t t = 0; t < drainers; ++t) pool.emplace_back(loop);
    for (std::thread& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<RunResult> parallel_runs(std::size_t count,
                                     const std::function<RunResult(std::size_t)>& job,
                                     std::size_t threads) {
  if (!job) throw std::invalid_argument("parallel_runs: null job");
  std::vector<RunResult> results(count);
  std::atomic<std::size_t> ticket{0};
  drain_parallel(
      drain_threads(threads, count),
      [&]() -> std::optional<std::size_t> {
        const std::size_t i = ticket.fetch_add(1);
        if (i >= count) return std::nullopt;
        return i;
      },
      [&](std::size_t i) { results[i] = job(i); });
  return results;
}

Replicated fold_runs(std::vector<RunResult> runs) {
  Replicated summary;
  summary.runs = std::move(runs);
  for (const RunResult& run : summary.runs) {
    // A lifetime of -1 means the threshold was never crossed inside the
    // horizon; fold it as the horizon (a conservative lower bound).
    const double lifetime =
        run.lifetime.network_death_s >= 0.0 ? run.lifetime.network_death_s : run.sim_end_s;
    summary.lifetime_s.add(lifetime);
    const double first =
        run.lifetime.first_death_s >= 0.0 ? run.lifetime.first_death_s : run.sim_end_s;
    summary.first_death_s.add(first);
    // Delay/delivery scalars are undefined (reported as 0) when nothing
    // was delivered over the air; folding those zeros would bias the
    // replication mean, so such runs are skipped — same guard as
    // energy_per_packet_j.
    if (run.delivered_air > 0) {
      summary.energy_per_packet_j.add(run.energy_per_delivered_packet_j);
      summary.delivery_rate.add(run.delivery_rate);
      summary.mean_delay_s.add(run.mean_delay_s);
      summary.p95_delay_s.add(run.p95_delay_s);
    }
    summary.throughput_bps.add(run.throughput_bps);
    summary.queue_stddev.add(run.mean_queue_stddev);
    summary.total_consumed_j.add(run.total_consumed_j);
  }
  return summary;
}

}  // namespace caem::core
