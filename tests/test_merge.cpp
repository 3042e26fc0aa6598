// Tests for completing a sweep through the shared store: the sweep
// digest, merge over a partly stored sweep (exactly the missing cells
// execute, and the render is byte-identical to a single-process run),
// the merge's validation surface, and concurrent-writer atomicity of
// the cache.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_manifest.hpp"
#include "scenario/sweep.hpp"
#include "support/sweep_fixtures.hpp"

namespace caem::scenario {
namespace {

namespace fs = std::filesystem;
using test_support::Artifacts;
using test_support::battery_spec;
using test_support::job_paths;
using test_support::read_file;
using test_support::render_to;
using test_support::scratch_dir;

// ---------------------------------------------------------------- digest

TEST(SweepDigest, PinsContentCountAndOrder) {
  const std::vector<std::string> keys = {"a/x.json", "b/y.json", "c/z.json"};
  EXPECT_EQ(sweep_digest(keys), sweep_digest(keys));
  EXPECT_EQ(sweep_digest(keys).size(), 16u);
  std::vector<std::string> reordered = {"b/y.json", "a/x.json", "c/z.json"};
  EXPECT_NE(sweep_digest(keys), sweep_digest(reordered));
  std::vector<std::string> edited = keys;
  edited[2] = "c/w.json";
  EXPECT_NE(sweep_digest(keys), sweep_digest(edited));
  std::vector<std::string> shorter(keys.begin(), keys.end() - 1);
  EXPECT_NE(sweep_digest(keys), sweep_digest(shorter));
}

// ------------------------------------------------ partly stored sweeps

TEST(Merge, PartlyStoredSweepExecutesExactlyTheMissingCells) {
  const ScenarioSpec spec = battery_spec("mergebat");
  const fs::path cache_dir = scratch_dir("merge_partial_cache");
  const ResultCache cache(cache_dir.string());
  const std::vector<std::string> paths = job_paths(spec, cache);
  const std::vector<GridPoint> grid = expand_grid(spec.axes);

  // Crashed workers leave a partly stored sweep behind: here jobs 0, 1,
  // 3 and 6 made it into the store and the other four never did.
  // Stored directly, exactly what killed processes leave behind.
  const std::vector<std::size_t> stored = {0, 1, 3, 6};
  for (const std::size_t job : stored) {
    const JobCoords c = job_coords(spec, job);
    cache.store(paths[job],
                core::SimulationRunner::run(spec.config_at(grid[c.point]),
                                            spec.protocols[c.protocol],
                                            spec.base_seed + c.rep, spec.options));
  }
  const std::string stored_bytes = read_file(paths[3]);

  // The merge executes exactly the missing cells and stores them; the
  // stored half is loaded, never re-run.
  ScenarioSpec merge = spec;
  merge.cache_dir = cache_dir.string();
  merge.merge_shards = true;
  const ScenarioResult merged = run_scenario(merge);
  EXPECT_TRUE(merged.merged);
  EXPECT_TRUE(merged.workers.empty());  // no worker ever reported
  EXPECT_EQ(merged.executed_jobs, 4u);
  EXPECT_EQ(merged.cache_hits, 4u);
  EXPECT_EQ(merged.cache_misses, merged.executed_jobs);
  EXPECT_EQ(merged.cache_hits + merged.executed_jobs, merged.total_jobs);
  EXPECT_EQ(read_file(paths[3]), stored_bytes);
  for (const std::string& path : paths) EXPECT_TRUE(cache.load(path).has_value()) << path;

  // A second merge finds the sweep complete and executes nothing.
  const ScenarioResult again = run_scenario(merge);
  EXPECT_EQ(again.executed_jobs, 0u);
  EXPECT_EQ(again.cache_hits, spec.total_jobs());

  // Both folds are indistinguishable from a single-process run.
  const fs::path ref_dir = scratch_dir("merge_partial_ref");
  const fs::path out_dir = scratch_dir("merge_partial_out");
  const fs::path again_dir = scratch_dir("merge_partial_again");
  const Artifacts ref = render_to(run_scenario(spec), spec, ref_dir);
  const Artifacts out = render_to(merged, spec, out_dir);
  const Artifacts out_again = render_to(again, spec, again_dir);
  EXPECT_EQ(out.csv, ref.csv);
  EXPECT_EQ(out.json, ref.json);
  EXPECT_EQ(out.traces, ref.traces);
  EXPECT_EQ(out_again.csv, ref.csv);
  EXPECT_EQ(out_again.traces, ref.traces);
  fs::remove_all(cache_dir);
  fs::remove_all(ref_dir);
  fs::remove_all(out_dir);
  fs::remove_all(again_dir);
}

TEST(Merge, RequiresTheCache) {
  ScenarioSpec spec = battery_spec("mergebat");
  spec.merge_shards = true;
  // A merge without a cache has nothing to complete from.
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  spec.cache_dir = (fs::temp_directory_path() / "caem_merge_never_created").string();
  spec.use_cache = false;  // --no-cache disables the substrate too
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  EXPECT_FALSE(fs::exists(spec.cache_dir));
}

// ------------------------------------------------- concurrent cache writers

TEST(ShardCache, ConcurrentStoresOnOneCellNeverTearReads) {
  const fs::path dir = scratch_dir("merge_concurrent_store");
  const ResultCache cache(dir.string());
  core::NetworkConfig config;
  core::RunOptions options;
  core::RunResult a;
  a.protocol = core::protocol_from_string("scheme2");
  a.seed = 1;
  a.total_consumed_j = 111.5;
  a.avg_remaining_energy.add(0.0, 10.0);
  core::RunResult b = a;
  b.total_consumed_j = 222.25;
  const std::string path = cache.entry_path(config, core::protocol_from_string("scheme2"), 1, options);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> observed{0};
  std::thread reader([&] {
    bool seen = false;
    while (!stop.load()) {
      const std::optional<core::RunResult> loaded = cache.load(path);
      if (loaded.has_value()) {
        seen = true;
        ++observed;
        if (loaded->total_consumed_j != 111.5 && loaded->total_consumed_j != 222.25) ++torn;
      } else if (seen) {
        ++torn;  // entry vanished or tore after the first complete write
      }
    }
  });
  std::thread writer_a([&] {
    for (int i = 0; i < 200; ++i) cache.store(path, a);
  });
  std::thread writer_b([&] {
    for (int i = 0; i < 200; ++i) cache.store(path, b);
  });
  writer_a.join();
  writer_b.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(observed.load(), 0);
  // Whoever renamed last wins; either way the entry is one valid run.
  const std::optional<core::RunResult> final_entry = cache.load(path);
  ASSERT_TRUE(final_entry.has_value());
  EXPECT_TRUE(final_entry->total_consumed_j == 111.5 ||
              final_entry->total_consumed_j == 222.25);
  // No temp litter: every write was finalised or cleaned up.
  std::size_t temps = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) ++temps;
  }
  EXPECT_EQ(temps, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace caem::scenario
