// bench_micro_components — google-benchmark micro-benchmarks of the hot
// substrate components (event queue, fading, PER, LEACH election,
// whole-network throughput), plus the kernel perf-tracking harness:
// after the micro suite runs, the binary measures
//   * event-kernel throughput (schedule + fire + cancel) against an
//     in-binary emulation of the pre-EventFn kernel (std::function
//     callbacks, O(n) linear-scan cancellation), and
//   * fig9-style end-to-end wall clock (run-to-extinction, all three
//     protocols) with the coherence-window SNR cache off vs on,
// and writes the machine-readable BENCH_kernel.json that future PRs are
// measured against.
//
// Usage: bench_micro_components [--benchmark_* flags] [key=value ...]
//   fast=1         shrink the kernel/fig9 harness for smoke runs
//   seed=<n>       base seed for the fig9 harness (default 2005)
//   json=<path>    output path (default BENCH_kernel.json)
//   micro=0        skip the google-benchmark micro suite
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "channel/fading.hpp"
#include "channel/link_manager.hpp"
#include "core/network.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"
#include "leach/election.hpp"
#include "phy/error_model.hpp"
#include "support/event_queue.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

using namespace caem;

// ------------------------------------------------------------------------
// Pre-change kernel emulation: the seed's EventQueue verbatim —
// std::function callbacks (heap allocation per capture beyond the
// libstdc++ 16-byte SBO) and tombstone cancellation via linear scan.
// Kept here so the "2x over baseline" acceptance number is measured in
// the same binary, same compiler, same machine as the new kernel.
class LegacyEventQueue {
 public:
  using Callback = std::function<void(double)>;

  std::uint64_t schedule(double time_s, Callback callback) {
    const std::uint64_t id = next_sequence_++;
    heap_.push_back(Entry{time_s, id, std::move(callback), false});
    sift_up(heap_.size() - 1);
    ++live_count_;
    return id;
  }

  bool cancel(std::uint64_t id) noexcept {
    for (auto& entry : heap_) {
      if (entry.sequence == id) {
        if (entry.cancelled) return false;
        entry.cancelled = true;
        entry.callback = nullptr;
        --live_count_;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }

  struct Fired {
    double time_s;
    Callback callback;
  };
  Fired pop() {
    drop_dead_top();
    Entry top = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    --live_count_;
    drop_dead_top();
    return Fired{top.time_s, std::move(top.callback)};
  }

 private:
  struct Entry {
    double time_s;
    std::uint64_t sequence;
    Callback callback;
    bool cancelled = false;
  };
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.time_s != b.time_s) return a.time_s > b.time_s;
    return a.sequence > b.sequence;
  }
  void drop_dead_top() {
    while (!heap_.empty() && heap_.front().cancelled) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
    }
  }
  void sift_up(std::size_t index) noexcept {
    while (index > 0) {
      const std::size_t parent = (index - 1) / 2;
      if (!later(heap_[parent], heap_[index])) break;
      std::swap(heap_[parent], heap_[index]);
      index = parent;
    }
  }
  void sift_down(std::size_t index) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * index + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = index;
      if (left < n && later(heap_[smallest], heap_[left])) smallest = left;
      if (right < n && later(heap_[smallest], heap_[right])) smallest = right;
      if (smallest == index) return;
      std::swap(heap_[index], heap_[smallest]);
      index = smallest;
    }
  }
  std::vector<Entry> heap_;
  std::uint64_t next_sequence_ = 1;
  std::size_t live_count_ = 0;
};

// ------------------------------------------------------------------------
// Kernel throughput workload: rounds of batch-schedule, cancel a third
// (MAC timers are cancelled constantly: round detach, aborts, holds),
// fire the rest.  Callbacks capture a pointer plus two scalars — the
// kernel's real capture shape, which std::function heap-allocates and
// EventFn stores inline.
template <typename Queue>
double kernel_events_per_sec(std::size_t batch, std::size_t rounds) {
  util::Rng rng(99);
  Queue queue;
  std::vector<std::uint64_t> ids(batch);
  double sink = 0.0;
  std::uint64_t scheduled = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    const double base = static_cast<double>(round);
    for (std::size_t i = 0; i < batch; ++i) {
      const double offset = rng.uniform();
      ids[i] = queue.schedule(base + offset, [&sink, base, offset](double now) {
        sink += now - base + offset;
      });
    }
    scheduled += batch;
    for (std::size_t i = 0; i < batch; i += 3) queue.cancel(ids[i]);
    while (!queue.empty()) {
      auto fired = queue.pop();
      fired.callback(fired.time_s);
    }
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(scheduled) / elapsed.count();
}

// Fig9-style end-to-end: all three protocols run to network extinction,
// sequentially (stable wall-clock), at one seed.  Returns the wall time
// and the kernel events executed — the cache knob perturbs the
// (approximate) channel trajectory, so network lifetimes and event
// counts differ between the two arms and raw wall seconds alone would
// conflate simulator speed with the amount of simulated work.  Wall
// time per executed event is the trajectory-robust throughput metric.
struct Fig9Timing {
  double wall_s = 0.0;
  double simulated_s = 0.0;
  std::uint64_t events = 0;
  [[nodiscard]] double wall_s_per_event() const noexcept {
    return events > 0 ? wall_s / static_cast<double>(events) : 0.0;
  }
};

Fig9Timing fig9_timing(const core::NetworkConfig& config, std::uint64_t seed,
                       double max_sim_s) {
  core::RunOptions options;
  options.max_sim_s = max_sim_s;
  options.run_to_death = true;
  Fig9Timing timing;
  const auto start = std::chrono::steady_clock::now();
  for (const core::Protocol protocol : core::paper_protocols()) {
    const auto result = core::SimulationRunner::run(config, protocol, seed, options);
    timing.simulated_s += result.sim_end_s;
    timing.events += result.executed_events;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  timing.wall_s = elapsed.count();
  return timing;
}

struct KernelReport {
  std::size_t batch = 0;
  std::size_t rounds = 0;
  double legacy_events_per_sec = 0.0;
  double eventfn_events_per_sec = 0.0;
  Fig9Timing fig9_cache_off;
  Fig9Timing fig9_cache_on;
};

void write_json(const KernelReport& report, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const double speedup = report.legacy_events_per_sec > 0.0
                             ? report.eventfn_events_per_sec / report.legacy_events_per_sec
                             : 0.0;
  const double off_rate = report.fig9_cache_off.wall_s_per_event();
  const double on_rate = report.fig9_cache_on.wall_s_per_event();
  const double improvement_pct = off_rate > 0.0 ? 100.0 * (1.0 - on_rate / off_rate) : 0.0;
  std::fprintf(out,
               "{\n"
               "  \"kernel_throughput\": {\n"
               "    \"workload\": \"schedule+fire+cancel, %zu events/round, %zu rounds, "
               "1/3 cancelled\",\n"
               "    \"baseline_std_function_events_per_sec\": %.0f,\n"
               "    \"eventfn_generation_id_events_per_sec\": %.0f,\n"
               "    \"speedup\": %.2f\n"
               "  },\n"
               "  \"fig9_end_to_end\": {\n"
               "    \"workload\": \"3 protocols, run to extinction, sequential; "
               "improvement compares wall time per executed kernel event (lifetimes and "
               "event counts differ between arms)\",\n"
               "    \"snr_cache_off_wall_s\": %.3f,\n"
               "    \"snr_cache_off_simulated_s\": %.1f,\n"
               "    \"snr_cache_off_events\": %llu,\n"
               "    \"snr_cache_on_wall_s\": %.3f,\n"
               "    \"snr_cache_on_simulated_s\": %.1f,\n"
               "    \"snr_cache_on_events\": %llu,\n"
               "    \"improvement_pct\": %.1f\n"
               "  }\n"
               "}\n",
               report.batch, report.rounds, report.legacy_events_per_sec,
               report.eventfn_events_per_sec, speedup, report.fig9_cache_off.wall_s,
               report.fig9_cache_off.simulated_s,
               static_cast<unsigned long long>(report.fig9_cache_off.events),
               report.fig9_cache_on.wall_s, report.fig9_cache_on.simulated_s,
               static_cast<unsigned long long>(report.fig9_cache_on.events),
               improvement_pct);
  std::fclose(out);
  std::printf("\nBENCH_kernel -> %s\n", path.c_str());
  std::printf("  kernel: legacy %.2fM ev/s, eventfn %.2fM ev/s (%.2fx)\n",
              report.legacy_events_per_sec / 1e6, report.eventfn_events_per_sec / 1e6, speedup);
  std::printf("  fig9:   cache off %.3f s wall / %.1fM events, cache on %.3f s / %.1fM events "
              "(%.1f%% faster per event)\n",
              report.fig9_cache_off.wall_s,
              static_cast<double>(report.fig9_cache_off.events) / 1e6,
              report.fig9_cache_on.wall_s,
              static_cast<double>(report.fig9_cache_on.events) / 1e6, improvement_pct);
}

// ------------------------------------------------------------------------
// google-benchmark micro suite (unchanged components + the new kernel).

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      queue.schedule(rng.uniform(), [](double) {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(64)->Arg(512)->Arg(4096);

void BM_EventQueueScheduleFireCancel(benchmark::State& state) {
  // The acceptance workload, exposed as a micro benchmark too.
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel_events_per_sec<sim::EventQueue>(batch, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleFireCancel)->Arg(512);

void BM_LegacyQueueScheduleFireCancel(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel_events_per_sec<LegacyEventQueue>(batch, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_LegacyQueueScheduleFireCancel)->Arg(512);

void BM_JakesFadingEval(benchmark::State& state) {
  channel::JakesRayleighFading fading(3.0, util::Rng(2),
                                      static_cast<std::size_t>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fading.power_gain(t));
    t += 1e-3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JakesFadingEval)->Arg(8)->Arg(16)->Arg(32);

void BM_LinkSnrEval(benchmark::State& state) {
  // state.range(0): 1 = coherence-window cache enabled, 0 = exact eval.
  sim::RngRegistry rng(3);
  channel::ChannelConfig config;
  config.snr_cache_enabled = state.range(0) != 0;
  channel::LinkManager links(config, &rng);
  const auto a = links.add_static_node({0, 0});
  const auto b = links.add_static_node({30, 0});
  const channel::LinkBudget budget{0.0, -101.0};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(links.snr_db(a, b, t, budget));
    t += 1e-3;  // tone-check cadence is well inside the ~141 ms coherence window
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinkSnrEval)->Arg(0)->Arg(1);

void BM_PacketErrorRate(benchmark::State& state) {
  const phy::AbicmTable table;
  const phy::PacketErrorModel model(&table);
  double snr = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.packet_error_rate(snr < 12 ? 0 : 3, snr, 2048.0));
    snr = snr >= 25.0 ? 5.0 : snr + 0.1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketErrorRate);

void BM_LeachElection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  leach::Election election(n, 0.05);
  util::Rng rng(4);
  const std::vector<bool> alive(n, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(election.elect(alive, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LeachElection)->Arg(100)->Arg(1000);

void BM_NetworkSimulatedSecond(benchmark::State& state) {
  // Whole-network throughput: simulated seconds per wall second for the
  // paper's default 100-node network under Scheme 1.
  core::NetworkConfig config;
  config.initial_energy_j = 1e6;
  core::Network network(config, core::protocol_from_string("scheme1"), 7);
  network.start();
  double horizon = 0.0;
  for (auto _ : state) {
    horizon += 1.0;
    network.simulator().run_until(horizon);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(network.simulator().executed_events()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Split argv: --benchmark_* flags go to google-benchmark, key=value
  // tokens are ours (bench_common conventions).
  std::vector<char*> bench_argv{argv[0]};
  std::vector<std::string> kv_tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      bench_argv.push_back(argv[i]);
    } else {
      kv_tokens.push_back(token);
    }
  }
  util::Config overrides;
  core::NetworkConfig config;
  try {
    overrides = util::Config::from_args(kv_tokens);
    config.apply_overrides(overrides);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad arguments: %s\n", error.what());
    return 1;
  }
  const bool fast = overrides.get_bool("fast", false);
  const auto seed = static_cast<std::uint64_t>(overrides.get_int("seed", 2005));
  const std::string json_path = overrides.get_string("json", "BENCH_kernel.json");
  const bool run_micro = overrides.get_bool("micro", true);
  // Reject typo'd keys: a silently ignored override would mislabel the
  // published BENCH_kernel.json.
  const std::vector<std::string> typos = overrides.unconsumed();
  if (!typos.empty()) {
    for (const std::string& key : typos) {
      std::fprintf(stderr, "unknown key: '%s'\n", key.c_str());
    }
    return 1;
  }
  // fast mode shrinks the fig9 arms unless the user pinned the energy.
  if (fast && !overrides.has("initial_energy_j")) config.initial_energy_j = 2.0;

  if (run_micro) {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    benchmark::RunSpecifiedBenchmarks();
  }

  // ---- kernel perf-tracking harness (BENCH_kernel.json) ----
  KernelReport report;
  report.batch = 2048;  // standing pending-set size of a ~500-node network
  report.rounds = fast ? 100 : 1000;
  // Warm up both queues once so allocator state is comparable.
  kernel_events_per_sec<LegacyEventQueue>(report.batch, 10);
  kernel_events_per_sec<sim::EventQueue>(report.batch, 10);
  report.legacy_events_per_sec =
      kernel_events_per_sec<LegacyEventQueue>(report.batch, report.rounds);
  report.eventfn_events_per_sec =
      kernel_events_per_sec<sim::EventQueue>(report.batch, report.rounds);

  const double max_sim_s = fast ? 600.0 : 4000.0;
  config.channel.snr_cache_enabled = false;
  report.fig9_cache_off = fig9_timing(config, seed, max_sim_s);
  config.channel.snr_cache_enabled = true;
  report.fig9_cache_on = fig9_timing(config, seed, max_sim_s);

  write_json(report, json_path);
  return 0;
}
