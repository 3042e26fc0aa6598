#include "core/node.hpp"

#include "core/config.hpp"

namespace caem::core {

Node::Node(std::uint32_t id, channel::Vec2 position, const NetworkConfig& config,
           const ProtocolSpec& protocol, sim::Simulator* sim,
           const phy::AbicmTable* table,
           const phy::FrameTiming* timing, const phy::PacketErrorModel* error_model,
           channel::SnrSource* csi, util::Rng mac_rng, util::Rng csi_rng)
    : id_(id),
      position_(position),
      battery_(config.initial_energy_j),
      ledger_(),
      data_radio_(energy::RadioId::kData, config.data_radio_profile(), &battery_, &ledger_),
      tone_radio_(energy::RadioId::kTone, config.tone_radio_profile(), &battery_, &ledger_),
      queue_(config.buffer_capacity),
      controller_(protocol.policy, table, config.sample_every_m, config.arm_queue_length),
      monitor_(csi, config.tone_classify_delay_s, config.csi_noise_db, csi_rng) {
  mac::SensorMacConfig mac_config;
  mac_config.backoff = config.backoff;
  mac_config.burst = config.burst;
  mac_config.check_interval_s = config.check_interval_s;
  mac_config.acquisition_delay_s = config.sensing_delay_s;
  mac_config.csi_gate_deadline_s = protocol.deadline_override ? config.csi_gate_deadline_s : 0.0;
  mac_ = std::make_unique<mac::SensorMac>(sim, id, mac_config, &data_radio_, &tone_radio_,
                                          &queue_, &controller_, &monitor_, table, timing,
                                          error_model, mac_rng);
}

void Node::settle(double now_s) const {
  data_radio_.settle(now_s);
  tone_radio_.settle(now_s);
}

}  // namespace caem::core
