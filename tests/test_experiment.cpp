// Tests for the parallel drain primitive, parallel_runs and fold_runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hpp"

namespace caem::core {
namespace {

NetworkConfig tiny_config() {
  NetworkConfig config;
  config.node_count = 10;
  config.field_size_m = 40.0;
  config.ch_fraction = 0.2;
  config.round_duration_s = 5.0;
  config.traffic_rate_pps = 3.0;
  return config;
}

TEST(ParallelRuns, PreservesIndexOrder) {
  std::atomic<int> executed{0};
  const auto results = parallel_runs(
      8,
      [&](std::size_t i) {
        ++executed;
        RunResult result;
        result.seed = i;
        return result;
      },
      3);
  EXPECT_EQ(executed.load(), 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i].seed, i);
}

TEST(ParallelRuns, EmptyAndErrors) {
  EXPECT_TRUE(parallel_runs(0, [](std::size_t) { return RunResult{}; }).empty());
  EXPECT_THROW(parallel_runs(1, nullptr), std::invalid_argument);
  EXPECT_THROW(parallel_runs(
                   4, [](std::size_t i) -> RunResult {
                     if (i == 2) throw std::runtime_error("boom");
                     return RunResult{};
                   }),
               std::runtime_error);
}

TEST(ParallelRuns, DrainHandsOutEveryCellOnceAndStopsAtTheFirstError) {
  // The engine's drain primitive: every cell `next` hands out runs
  // exactly once, whichever drainer takes it ...
  constexpr std::size_t kCells = 64;
  std::atomic<std::size_t> ticket{0};
  std::vector<std::atomic<int>> runs(kCells);
  const auto next = [&]() -> std::optional<std::size_t> {
    const std::size_t k = ticket.fetch_add(1);
    if (k >= kCells) return std::nullopt;
    return k;
  };
  drain_parallel(4, next, [&](std::size_t i) { ++runs[i]; });
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);

  // ... and the first failure stops every drainer at its next draw, so
  // the cells behind it never start, then propagates.
  ticket.store(0);
  std::atomic<std::size_t> started{0};
  EXPECT_THROW(drain_parallel(4, next,
                              [&](std::size_t i) {
                                ++started;
                                if (i == 0) throw std::runtime_error("boom");
                                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                              }),
               std::runtime_error);
  EXPECT_LT(started.load(), kCells);
  EXPECT_EQ(drain_threads(0, 3), std::min<std::size_t>(
                                     3, std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(drain_threads(8, 3), 3u);
  EXPECT_EQ(drain_threads(2, 0), 0u);
}

TEST(ParallelRuns, MatchesSequentialSimulation) {
  RunOptions options;
  options.max_sim_s = 10.0;
  const NetworkConfig config = tiny_config();
  const RunResult sequential = SimulationRunner::run(config, protocol_from_string("scheme1"), 5, options);
  const auto parallel = parallel_runs(
      3,
      [&](std::size_t i) {
        return SimulationRunner::run(config, protocol_from_string("scheme1"), 5 + i, options);
      },
      3);
  EXPECT_EQ(parallel[0].generated, sequential.generated);
  EXPECT_DOUBLE_EQ(parallel[0].total_consumed_j, sequential.total_consumed_j);
}

TEST(FoldRuns, GuardsDelayAndDeliveryAgainstZeroDeliveryRuns) {
  RunResult delivered;
  delivered.delivered_air = 10;
  delivered.delivery_rate = 0.8;
  delivered.mean_delay_s = 2.0;
  delivered.p95_delay_s = 5.0;
  delivered.energy_per_delivered_packet_j = 0.01;
  delivered.throughput_bps = 1000.0;
  RunResult starved;  // no over-the-air delivery: its delay/delivery
  starved.delivered_air = 0;  // scalars are meaningless zeros
  starved.delivery_rate = 0.0;
  starved.mean_delay_s = 0.0;
  starved.p95_delay_s = 0.0;
  starved.throughput_bps = 500.0;
  const Replicated summary = fold_runs({delivered, starved});
  // Regression: the starved run must not drag these means toward 0.
  EXPECT_EQ(summary.delivery_rate.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.delivery_rate.mean(), 0.8);
  EXPECT_EQ(summary.mean_delay_s.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.mean_delay_s.mean(), 2.0);
  EXPECT_EQ(summary.p95_delay_s.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.p95_delay_s.mean(), 5.0);
  EXPECT_EQ(summary.energy_per_packet_j.count(), 1u);
  // Scalars that stay meaningful without deliveries still fold all runs.
  EXPECT_EQ(summary.throughput_bps.count(), 2u);
  EXPECT_EQ(summary.runs.size(), 2u);
}

TEST(ParallelRuns, FlattenedQueueOutpacesPerPointBarriers) {
  // The scheduling property behind the sweep engine: one queue over the
  // whole (point x protocol x rep) cross product keeps all workers busy,
  // while per-cell pools drain to their straggler before the next cell
  // starts.  Sleep-based jobs emulate the imbalance without CPU load.
  constexpr std::size_t kCells = 8;
  constexpr std::size_t kReps = 2;
  constexpr std::size_t kThreads = 8;
  const auto job_ms = [](std::size_t cell, std::size_t rep) {
    return 10 + 7 * ((3 * cell + rep) % 5);
  };
  const auto sleepy = [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(job_ms(i / kReps, i % kReps)));
    return RunResult{};
  };
  const auto tick = [] { return std::chrono::steady_clock::now(); };
  const auto t0 = tick();
  (void)parallel_runs(kCells * kReps, sleepy, kThreads);
  const double flat_s = std::chrono::duration<double>(tick() - t0).count();
  const auto t1 = tick();
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    (void)parallel_runs(kReps, [&](std::size_t rep) { return sleepy(cell * kReps + rep); },
                        kThreads);
  }
  const double barrier_s = std::chrono::duration<double>(tick() - t1).count();
  // Flat bound ~= sum(job)/threads (~40 ms); barrier bound = sum of
  // per-cell maxima (~190 ms).  Generous margin for loaded CI machines.
  EXPECT_LT(flat_s, 0.7 * barrier_s)
      << "flat " << flat_s << " s vs barrier " << barrier_s << " s";
}

TEST(FoldRuns, FoldsScalarsOfReplications) {
  RunOptions options;
  options.max_sim_s = 10.0;
  const Replicated summary = fold_runs(parallel_runs(
      3,
      [&](std::size_t i) {
        return SimulationRunner::run(tiny_config(), protocol_from_string("leach"), 100 + i,
                                     options);
      },
      3));
  EXPECT_EQ(summary.runs.size(), 3u);
  EXPECT_EQ(summary.delivery_rate.count(), 3u);
  EXPECT_GT(summary.total_consumed_j.mean(), 0.0);
  // Lifetime not reached inside the horizon folds as the horizon.
  EXPECT_NEAR(summary.lifetime_s.mean(), 10.0, 1e-9);
  // Replications use distinct seeds.
  EXPECT_NE(summary.runs[0].generated, summary.runs[1].generated);
}

}  // namespace
}  // namespace caem::core
