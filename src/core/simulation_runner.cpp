#include "core/simulation_runner.hpp"

#include "core/network.hpp"
#include "metrics/lifetime.hpp"
#include "sim/kernel_stats.hpp"

namespace caem::core {

RunResult SimulationRunner::run(const NetworkConfig& config, Protocol protocol,
                                std::uint64_t seed, const RunOptions& options) {
  Network network(config, protocol, seed);
  network.start();

  if (options.run_to_death) {
    // Run in horizon chunks until every node is dead or the cap is hit.
    const double chunk = std::max(config.round_duration_s, 1.0);
    while (network.alive_count() > 0 && network.simulator().now() < options.max_sim_s) {
      const double until = std::min(network.simulator().now() + chunk, options.max_sim_s);
      network.simulator().run_until(until);
    }
  } else {
    network.simulator().run_until(options.max_sim_s);
  }
  network.finalize();
  // Fold this run's kernel op counts into the process-wide totals that
  // progress lines and the serve daemon's /stats report.
  sim::add_kernel_totals(network.simulator().kernel_counters());

  const auto& m = network.metrics();
  RunResult result;
  result.protocol = protocol;
  result.seed = seed;
  result.sim_end_s = network.simulator().now();
  result.executed_events = network.simulator().executed_events();
  result.generated = m.generated();
  result.delivered_air = m.delivered();
  result.delivered_self = m.self_delivered();
  result.dropped_overflow = m.dropped(queueing::DropReason::kBufferOverflow);
  result.dropped_retry = m.dropped(queueing::DropReason::kRetryExhausted);
  result.dropped_death = m.dropped(queueing::DropReason::kNodeDeath);
  result.dropped_unreachable = m.dropped(queueing::DropReason::kUnreachable);
  result.relay_hops = network.relay_hops_total();
  result.collisions = network.collisions_total();
  result.delivery_rate = m.delivery_rate();
  // The run is over and its delays are read nowhere else: select p95 in
  // place rather than copy every delivered packet's delay.
  util::Sample& delays = network.metrics().delays();
  result.mean_delay_s = delays.mean();
  result.p95_delay_s = delays.quantile_in_place(0.95);
  result.throughput_bps = m.aggregate_throughput_bps(result.sim_end_s);

  result.total_consumed_j = network.total_consumed_j();
  result.energy_per_delivered_packet_j =
      m.delivered() == 0 ? 0.0
                         : result.total_consumed_j / static_cast<double>(m.delivered());
  result.avg_remaining_energy = m.avg_remaining_energy();

  result.lifetime = metrics::lifetime_from_death_times(m.death_times(), config.dead_fraction);
  result.nodes_alive = metrics::alive_series(m.death_times(), result.sim_end_s);
  result.final_alive = m.alive_count();
  result.mean_queue_stddev = m.fairness().mean_queue_stddev();
  result.mac = network.mac_totals();
  const auto controller = network.controller_totals();
  result.threshold_lower_events = controller.lower_events;
  result.threshold_raise_events = controller.raise_events;
  for (phy::ModeIndex mode = 0; mode < phy::kModeCount; ++mode) {
    result.delivered_per_mode[mode] = m.delivered_at_mode(mode);
  }
  return result;
}

}  // namespace caem::core
