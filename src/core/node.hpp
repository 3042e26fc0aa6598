// node.hpp — one sensor node: battery, dual radios, queue, controller,
// tone monitor and MAC, wired together.  Nodes are created and owned by
// core::Network, which supplies the cross-cutting pieces (simulator,
// channel, PHY tables, callbacks).
#pragma once

#include <cstdint>
#include <memory>

#include "channel/mobility.hpp"
#include "core/protocol.hpp"
#include "energy/battery.hpp"
#include "energy/energy_ledger.hpp"
#include "energy/radio_energy_model.hpp"
#include "mac/sensor_mac.hpp"
#include "phy/abicm.hpp"
#include "phy/error_model.hpp"
#include "phy/frame.hpp"
#include "queueing/packet_queue.hpp"
#include "queueing/threshold_controller.hpp"
#include "tone/tone_broadcaster.hpp"
#include "tone/tone_monitor.hpp"

namespace caem::core {

struct NetworkConfig;

class Node {
 public:
  /// Built by Network; see network.cpp for the wiring.  `csi` is the
  /// node's round-scoped link to its CH (the tone monitor's oracle,
  /// which the MAC also reads).  The protocol spec supplies the CSI-gate
  /// policy and whether the head-of-line deadline override
  /// (config.csi_gate_deadline_s) is armed.
  Node(std::uint32_t id, channel::Vec2 position, const NetworkConfig& config,
       const ProtocolSpec& protocol, sim::Simulator* sim,
       const phy::AbicmTable* table,
       const phy::FrameTiming* timing, const phy::PacketErrorModel* error_model,
       channel::SnrSource* csi, util::Rng mac_rng, util::Rng csi_rng);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] channel::Vec2 position() const noexcept { return position_; }
  [[nodiscard]] bool alive() const noexcept { return !battery_.depleted(); }

  /// Integrate radio state time up to `now` (metrics snapshots).  Const
  /// so metric reads never need a const_cast; see energy::Radio::settle.
  void settle(double now_s) const;

  [[nodiscard]] energy::Battery& battery() noexcept { return battery_; }
  [[nodiscard]] const energy::Battery& battery() const noexcept { return battery_; }
  [[nodiscard]] energy::EnergyLedger& ledger() noexcept { return ledger_; }
  [[nodiscard]] const energy::EnergyLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] energy::Radio& data_radio() noexcept { return data_radio_; }
  [[nodiscard]] energy::Radio& tone_radio() noexcept { return tone_radio_; }
  [[nodiscard]] queueing::PacketQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const queueing::PacketQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] queueing::ThresholdController& controller() noexcept { return controller_; }
  [[nodiscard]] const queueing::ThresholdController& controller() const noexcept {
    return controller_;
  }
  [[nodiscard]] tone::ToneMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] mac::SensorMac& mac() noexcept { return *mac_; }
  [[nodiscard]] const mac::SensorMac& mac() const noexcept { return *mac_; }

  /// Whether this node serves as a cluster head in the current round.
  [[nodiscard]] bool is_cluster_head() const noexcept { return is_ch_; }
  void set_cluster_head(bool is_ch) noexcept {
    is_ch_ = is_ch;
    if (ch_mirror_) *ch_mirror_ = is_ch ? 1 : 0;
  }

  /// Mirror the CH flag into an externally owned slot (the network's SoA
  /// hot-state array).  The slot must outlive the node.
  void bind_ch_mirror(std::uint8_t* slot) noexcept {
    ch_mirror_ = slot;
    if (slot) *slot = is_ch_ ? 1 : 0;
  }

 private:
  std::uint32_t id_;
  channel::Vec2 position_;
  energy::Battery battery_;
  energy::EnergyLedger ledger_;
  energy::Radio data_radio_;
  energy::Radio tone_radio_;
  queueing::PacketQueue queue_;
  queueing::ThresholdController controller_;
  tone::ToneMonitor monitor_;
  std::unique_ptr<mac::SensorMac> mac_;
  bool is_ch_ = false;
  std::uint8_t* ch_mirror_ = nullptr;
};

}  // namespace caem::core
