#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "util/digest.hpp"
#include "util/table_writer.hpp"

namespace caem::core {

energy::RadioPowerProfile NetworkConfig::data_radio_profile() const noexcept {
  energy::RadioPowerProfile profile;
  profile.sleep_w = data_sleep_w;
  profile.startup_w = data_tx_w;  // synthesiser lock draws transmit-level current
  profile.idle_w = data_idle_w;
  profile.rx_w = data_rx_w;
  profile.tx_w = data_tx_w;
  profile.startup_time_s = data_startup_s;
  return profile;
}

energy::RadioPowerProfile NetworkConfig::tone_radio_profile() const noexcept {
  energy::RadioPowerProfile profile;
  profile.sleep_w = tone_sleep_w;
  profile.startup_w = tone_rx_w;
  profile.idle_w = tone_rx_w * tone_monitor_duty;  // duty-cycled sniffing
  profile.rx_w = tone_rx_w;
  profile.tx_w = tone_tx_w;
  profile.startup_time_s = tone_startup_s;
  return profile;
}

channel::LinkBudget NetworkConfig::link_budget() const noexcept {
  return channel::LinkBudget{
      tx_power_dbm, channel::noise_floor_dbm(noise_bandwidth_hz, rx_noise_figure_db)};
}

namespace {

constexpr double kU32Max = 4294967295.0;

constexpr const char* kFlagValues[] = {"0", "1"};
constexpr const char* kTrafficKinds[] = {"poisson", "cbr", "burst"};
constexpr const char* kMobilityKinds[] = {"static", "waypoint"};
constexpr const char* kRoutingKinds[] = {"direct", "greedy", "chain"};

// The member path, stringised, is the canonical key.
#define CAEM_KNOB(path, ...)                                                              \
  Knob {                                                                                  \
    .key = #path, .field = [](NetworkConfig& c) -> KnobField { return &c.path; }, __VA_ARGS__ \
  }

// Canonical order: reordering or renaming a row changes every digest.
constexpr Knob kKnobs[] = {
    CAEM_KNOB(node_count, .lo = 2),
    CAEM_KNOB(field_size_m, .lo = 0, .lo_open = true),
    CAEM_KNOB(ch_fraction, .lo = 0, .hi = 1, .lo_open = true),
    CAEM_KNOB(round_duration_s, .lo = 0, .lo_open = true),
    CAEM_KNOB(traffic_rate_pps, .lo = 0, .lo_open = true),
    CAEM_KNOB(traffic_kind, .choices = kTrafficKinds),
    CAEM_KNOB(packet_bits, .lo = 0, .lo_open = true),
    CAEM_KNOB(buffer_capacity, .lo = 1),
    CAEM_KNOB(sample_every_m, .lo = 1, .hi = kU32Max),
    CAEM_KNOB(arm_queue_length, .lo = 0),
    CAEM_KNOB(backoff.slot_s, .alias = "backoff_slot_s", .lo = 0),
    CAEM_KNOB(backoff.cw, .alias = "backoff_cw", .lo = 0, .hi = kU32Max),
    CAEM_KNOB(backoff.max_retries, .alias = "backoff_max_retries", .lo = 0, .hi = kU32Max),
    CAEM_KNOB(burst.min_packets, .alias = "burst_min", .lo = 1),
    CAEM_KNOB(burst.max_packets, .alias = "burst_max", .lo = 1),
    CAEM_KNOB(burst.hold_timeout_s, .alias = "burst_hold_s", .lo = 0),
    CAEM_KNOB(check_interval_s, .lo = 0, .lo_open = true),
    CAEM_KNOB(detect_delay_s, .lo = 0),
    CAEM_KNOB(sensing_delay_s, .lo = 0),
    CAEM_KNOB(tone_classify_delay_s, .lo = 0),
    CAEM_KNOB(csi_noise_db, .lo = 0),
    CAEM_KNOB(channel.path_loss_exponent, .lo = 0, .lo_open = true),
    CAEM_KNOB(channel.path_loss_ref_db),
    CAEM_KNOB(channel.shadowing_sigma_db, .lo = 0),
    CAEM_KNOB(channel.shadowing_tau_s, .lo = 0, .lo_open = true),
    CAEM_KNOB(channel.doppler_hz, .lo = 0, .lo_open = true),
    CAEM_KNOB(channel.fading_kind, .choices = channel::kFadingKindNames),
    CAEM_KNOB(channel.rician_k, .lo = 0),
    CAEM_KNOB(channel.jakes_oscillators, .lo = 1, .hi = 4096),
    CAEM_KNOB(channel.snr_cache_enabled, .choices = kFlagValues),
    CAEM_KNOB(channel.radio_range_m, .lo = 0),  // 0 = unlimited
    CAEM_KNOB(channel.spatial_bin_m),  // 0 = auto, < 0 = brute force
    CAEM_KNOB(mobility_kind, .choices = kMobilityKinds),
    CAEM_KNOB(mobility_max_speed_mps),
    CAEM_KNOB(mobility_pause_s, .lo = 0),
    CAEM_KNOB(tx_power_dbm),
    CAEM_KNOB(rx_noise_figure_db),
    CAEM_KNOB(noise_bandwidth_hz, .lo = 0, .lo_open = true),
    CAEM_KNOB(header_bits, .lo = 0),
    CAEM_KNOB(preamble_s, .lo = 0),
    CAEM_KNOB(initial_energy_j, .lo = 0, .lo_open = true),
    CAEM_KNOB(data_tx_w, .lo = 0),
    CAEM_KNOB(data_rx_w, .lo = 0),
    CAEM_KNOB(data_idle_w, .lo = 0),
    CAEM_KNOB(data_sleep_w, .lo = 0),
    CAEM_KNOB(data_startup_s, .lo = 0),
    CAEM_KNOB(tone_tx_w, .lo = 0),
    CAEM_KNOB(tone_rx_w, .lo = 0),
    CAEM_KNOB(tone_monitor_duty, .lo = 0, .hi = 1, .lo_open = true),
    CAEM_KNOB(tone_sleep_w, .lo = 0),
    CAEM_KNOB(tone_startup_s, .lo = 0),
    CAEM_KNOB(ch_forward_enabled, .choices = kFlagValues),
    CAEM_KNOB(bs_distance_m, .lo = 0, .lo_open = true),
    CAEM_KNOB(fwd_e_elec_j_per_bit, .lo = 0),
    CAEM_KNOB(fwd_eps_amp_j_per_bit_m2, .lo = 0),
    CAEM_KNOB(aggregation_ratio, .lo = 0, .hi = 1),
    CAEM_KNOB(csi_gate_deadline_s, .lo = 0),
    CAEM_KNOB(dead_fraction, .lo = 0, .hi = 1, .lo_open = true),
    CAEM_KNOB(energy_snapshot_interval_s, .lo = 0, .lo_open = true),
    CAEM_KNOB(queue_snapshot_interval_s, .lo = 0, .lo_open = true),
    CAEM_KNOB(routing.kind, .choices = kRoutingKinds, .routing_block = true),
    CAEM_KNOB(routing.max_hops, .lo = 1, .hi = kU32Max, .routing_block = true),
    CAEM_KNOB(routing.relay_rx_j_per_bit, .lo = 0, .routing_block = true),
    CAEM_KNOB(routing.sink_x_m, .routing_block = true),
    CAEM_KNOB(routing.sink_y_m, .routing_block = true),
};

[[noreturn]] void reject(const Knob& knob, const std::string& value) {
  throw std::invalid_argument(std::string("config: ") + knob.override_key() + " must be in " +
                              knob.range_text() + " (got '" + value + "')");
}

std::string show(double value) { return util::format_full(value); }
std::string show(bool value) { return value ? "1" : "0"; }
std::string show(const std::string& value) { return value; }
std::string show(channel::FadingKind value) { return channel::to_string(value); }
template <class Count>  // std::size_t or std::uint32_t
std::string show(Count value) { return std::to_string(value); }

}  // namespace

std::span<const Knob> knobs() noexcept { return kKnobs; }

std::string Knob::text(const NetworkConfig& config) const {
  return std::visit([](auto* value) { return show(*value); },
                    field(const_cast<NetworkConfig&>(config)));  // read only
}

std::string Knob::range_text() const {
  if (!choices.empty()) {
    std::string set;
    for (const char* choice : choices) set += (set.empty() ? "{" : ", ") + std::string(choice);
    return set + "}";
  }
  return (lo_open || std::isinf(lo) ? "(" : "[") + util::format_full(lo) + ", " +
         util::format_full(hi) + (std::isinf(hi) ? ")" : "]");
}

void NetworkConfig::validate() const {
  for (const Knob& knob : knobs()) {
    std::visit(
        [&](auto* value) {
          using T = std::remove_pointer_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (std::ranges::find(knob.choices, *value) == knob.choices.end()) reject(knob, *value);
          } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            if (!knob.contains(static_cast<double>(*value))) reject(knob, knob.text(*this));
          }
        },
        knob.field(const_cast<NetworkConfig&>(*this)));  // read only
  }
  // Cross-field checks; each knob's own range is the table's.
  if (burst.max_packets < burst.min_packets) {
    throw std::invalid_argument("config: burst_max must be >= burst_min");
  }
  if (mobility_kind == "waypoint" && !(mobility_max_speed_mps > 0.0)) {
    throw std::invalid_argument("config: waypoint mobility needs mobility_max_speed_mps > 0");
  }
  if ((routing.sink_x_m >= 0.0) != (routing.sink_y_m >= 0.0)) {
    throw std::invalid_argument(
        "config: set both routing.sink_x_m and routing.sink_y_m for a geometric sink "
        "(or neither for the virtual sink at bs_distance_m)");
  }
  if (routing.kind != "direct" && !routing.has_geometric_sink()) {
    // With the virtual sink every node is the same distance out, so no
    // relay is ever closer — greedy/chain would silently run direct.
    throw std::invalid_argument("config: routing.kind='" + routing.kind +
                                "' needs a geometric sink (set routing.sink_x_m and "
                                "routing.sink_y_m)");
  }
}

void NetworkConfig::apply_overrides(const util::Config& overrides) {
  for (const Knob& knob : knobs()) {
    const std::string key = knob.override_key();
    std::visit(
        [&](auto* value) {
          using T = std::remove_pointer_t<decltype(value)>;
          if constexpr (std::is_same_v<T, double>) {
            *value = overrides.get_double(key, *value);
          } else if constexpr (std::is_same_v<T, bool>) {
            *value = overrides.get_bool(key, *value);
          } else if constexpr (std::is_same_v<T, std::string>) {
            *value = overrides.get_string(key, *value);
          } else if constexpr (std::is_same_v<T, channel::FadingKind>) {
            *value = channel::fading_kind_from_string(
                overrides.get_string(key, channel::to_string(*value)));
          } else {
            // Checked while still signed, so -1 cannot wrap into a valid count.
            const long long raw = overrides.get_int(key, static_cast<long long>(*value));
            if (!knob.contains(static_cast<double>(raw))) reject(knob, std::to_string(raw));
            *value = static_cast<T>(raw);
          }
        },
        knob.field(*this));
  }
  validate();
}

std::string NetworkConfig::canonical_text() const {
  const bool routed = routing != UplinkRoutingConfig{};
  // Version header: bump when a knob is added/removed/renamed so stale
  // cache entries from older layouts can never alias a new config.
  //
  // The routing block is conditional: all-default routing knobs render
  // the exact legacy v2 text (no routing lines), so every pre-routing
  // config keeps its digest and cache entries; any non-default routing
  // field switches to v3 and appends the block.  No aliasing is
  // possible — v3 text always contains routing lines, v2 text never
  // does.
  std::string out = routed ? "caem-config-v3\n" : "caem-config-v2\n";
  // Simulation-semantics version: bump whenever SIMULATOR BEHAVIOR
  // changes for identical inputs (kernel reordering, RNG stream
  // changes, model fixes) even though no config or RunResult field
  // moved — it feeds the digest, so existing result-cache directories
  // invalidate structurally instead of serving pre-change numbers.
  // Version 2 books a packet that leaves its CH as delivered only once
  // every leg of its uplink is paid for; only configs whose packets
  // leave the CH render it, so every other digest holds.
  out += routed || ch_forward_enabled ? "sim-semantics=2\n" : "sim-semantics=1\n";
  for (const Knob& knob : knobs()) {
    if (knob.routing_block && !routed) continue;
    out.append(knob.key).append("=").append(knob.text(*this)) += '\n';
  }
  return out;
}

std::string NetworkConfig::digest() const { return util::content_digest(canonical_text()); }

}  // namespace caem::core
