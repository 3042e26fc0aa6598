// collector.hpp — per-run metric aggregation.
//
// One MetricsCollector lives for the duration of a simulation run; the
// network wires the MAC/queue/battery callbacks into it, and the
// simulation runner adds periodic snapshots (remaining energy, queue
// lengths).  At the end it produces the numbers the paper's figures
// plot.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/fairness.hpp"
#include "metrics/lifetime.hpp"
#include "phy/abicm.hpp"
#include "queueing/packet.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"

namespace caem::metrics {

class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t node_count);

  // ---- event hooks ----
  void record_generated(std::uint32_t node, double now_s);
  /// Packet received by a cluster head over the air.
  void record_delivered(const queueing::Packet& packet, phy::ModeIndex mode, double now_s);
  /// CH's own sensed packet aggregated locally (no radio involved).
  void record_self_delivered(const queueing::Packet& packet, double now_s);
  void record_drop(const queueing::Packet& packet, queueing::DropReason reason, double now_s);
  void record_collision();
  void record_node_death(std::uint32_t node, double now_s);

  // ---- periodic snapshots (driven by the simulation runner) ----
  void snapshot_energy(double now_s, const std::vector<double>& remaining_j);
  void snapshot_queues(const std::vector<double>& queue_lengths);

  // ---- results ----
  [[nodiscard]] std::uint64_t generated() const noexcept { return generated_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t self_delivered() const noexcept { return self_delivered_; }
  [[nodiscard]] std::uint64_t delivered_total() const noexcept {
    return delivered_ + self_delivered_;
  }
  [[nodiscard]] std::uint64_t dropped(queueing::DropReason reason) const noexcept;
  [[nodiscard]] std::uint64_t dropped_total() const noexcept;
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }
  [[nodiscard]] std::uint64_t delivered_at_mode(phy::ModeIndex mode) const;

  /// Fraction of generated packets that reached a sink (paper metric).
  [[nodiscard]] double delivery_rate() const noexcept;

  /// Mean end-to-end (queueing + access + air) delay of delivered
  /// packets, seconds.  Self-delivered packets are excluded.
  [[nodiscard]] const util::Sample& delays() const noexcept { return delays_; }
  /// The same sample, mutable: a finished run's harvest selects its
  /// quantiles in place (util::Sample::quantile_in_place).
  [[nodiscard]] util::Sample& delays() noexcept { return delays_; }

  /// Aggregate useful throughput over [0, horizon], bits/second.
  [[nodiscard]] double aggregate_throughput_bps(double horizon_s) const noexcept;

  /// Average remaining energy per node vs time (Fig 8).
  [[nodiscard]] const util::TimeSeries& avg_remaining_energy() const noexcept {
    return avg_energy_;
  }

  /// Per-node death times (negative = survived); Fig 9 / Fig 10 inputs.
  [[nodiscard]] const std::vector<double>& death_times() const noexcept { return death_times_; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_; }

  [[nodiscard]] const FairnessTracker& fairness() const noexcept { return fairness_; }

  [[nodiscard]] std::size_t node_count() const noexcept { return death_times_.size(); }

  /// Delivered bits (useful payload) over the air.
  [[nodiscard]] double delivered_bits() const noexcept { return delivered_bits_; }

 private:
  std::uint64_t generated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t self_delivered_ = 0;
  std::array<std::uint64_t, queueing::kDropReasonCount> drops_{};  // by DropReason
  std::uint64_t collisions_ = 0;
  std::array<std::uint64_t, phy::kModeCount> per_mode_{};
  double delivered_bits_ = 0.0;
  util::Sample delays_;
  util::TimeSeries avg_energy_;
  std::vector<double> death_times_;
  std::size_t alive_;
  FairnessTracker fairness_;
};

}  // namespace caem::metrics
