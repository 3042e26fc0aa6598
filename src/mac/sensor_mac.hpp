// sensor_mac.hpp — the sensor-side CAEM medium access state machine
// (paper Fig 3), shared by all three protocols:
//
//   sleep ──(>= min burst queued, or hold timeout)──> monitoring
//   monitoring ──(tone says idle AND CSI >= threshold*)──> backoff
//   backoff expiry ──(still idle AND still permitted)──> warmup -> transmit
//   transmit ──(collision tone)──> monitoring (retry++)
//   transmit ──(burst complete)──> monitoring (more data) | sleep
//   any ──(no tone: CH gone)──> sleep until the next round
//
// (*) the CSI gate is the ThresholdController: pure LEACH always passes,
// Scheme 2 requires the 2 Mbps class, Scheme 1 adapts per Fig 6.
//
// The MAC holds no channel of its own: the gate reads the monitor's
// noisy CSI estimate, and each frame's error draw reads the monitor's
// oracle (the same round-scoped member->CH link) noise-free.
#pragma once

#include <cstdint>
#include <functional>

#include "energy/radio_energy_model.hpp"
#include "mac/backoff.hpp"
#include "mac/burst_policy.hpp"
#include "mac/cluster_head_mac.hpp"
#include "phy/error_model.hpp"
#include "phy/frame.hpp"
#include "queueing/packet_queue.hpp"
#include "queueing/threshold_controller.hpp"
#include "sim/simulator.hpp"
#include "tone/tone_monitor.hpp"
#include "util/rng.hpp"

namespace caem::mac {

enum class SensorState {
  kSleeping,      ///< both radios asleep; data may be queued below min burst
  kMonitoring,    ///< tone radio sniffing for idle pulses and CSI
  kBackoff,       ///< contention delay running
  kWarmup,        ///< data radio starting up before the burst
  kTransmitting,  ///< burst on air (tone radio listening for collision)
  kDetached,      ///< no cluster this round (or CH lost); radios asleep
  kDead,          ///< battery exhausted
};

[[nodiscard]] const char* to_string(SensorState state) noexcept;

struct SensorMacConfig {
  BackoffPolicy backoff;
  BurstPolicy burst;
  double check_interval_s = 50e-3;    ///< tone sniff cadence (idle pulse period)
  double acquisition_delay_s = 8e-3;  ///< initial tone acquisition at wake (Table II)
  /// Deadline override (extension): when > 0, a head-of-line packet older
  /// than this may be sent even if the CSI gate denies.
  double csi_gate_deadline_s = 0.0;
};

struct SensorMacCounters {
  std::uint64_t wakeups = 0;
  std::uint64_t checks = 0;
  std::uint64_t csi_denied = 0;     ///< idle channel but CSI below threshold
  std::uint64_t deadline_overrides = 0;  ///< CSI gate bypassed by packet age
  std::uint64_t busy_denied = 0;    ///< channel not idle at a check
  std::uint64_t bursts_started = 0;
  std::uint64_t bursts_completed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_failed = 0;  ///< CRC failures (kept for retransmission)
  std::uint64_t collisions = 0;
  std::uint64_t packets_dropped_retry = 0;
};

class SensorMac final : public Transmitter {
 public:
  using DropCallback =
      std::function<void(const queueing::Packet&, queueing::DropReason, double now_s)>;

  SensorMac(sim::Simulator* sim, std::uint32_t node_id, SensorMacConfig config,
            energy::Radio* data_radio, energy::Radio* tone_radio,
            queueing::PacketQueue* queue, queueing::ThresholdController* controller,
            tone::ToneMonitor* monitor, const phy::AbicmTable* table,
            const phy::FrameTiming* timing, const phy::PacketErrorModel* error_model,
            util::Rng rng);
  ~SensorMac() override;

  SensorMac(const SensorMac&) = delete;
  SensorMac& operator=(const SensorMac&) = delete;

  // --- round lifecycle (driven by the core network) ---
  /// Join a cluster for the new round.  The monitor must already be
  /// attached to the CH's broadcaster.
  void attach_round(double now_s, ClusterHeadMac* ch);
  /// Leave the current cluster (round boundary); transmissions abort,
  /// queued packets survive.
  void detach_round(double now_s);
  /// Battery exhausted: stop everything, drop queued packets.
  void die(double now_s);

  // --- data path ---
  /// The node glue calls this after pushing an arrival into the queue
  /// (and after feeding the threshold controller).
  void on_packet_arrival(double now_s);

  // --- Transmitter (CH-driven aborts) ---
  void abort_collision(double now_s) override;
  void abort_round_end(double now_s) override;
  [[nodiscard]] std::uint32_t node_id() const noexcept override { return node_id_; }

  [[nodiscard]] SensorState state() const noexcept { return state_; }
  [[nodiscard]] const SensorMacCounters& counters() const noexcept { return counters_; }
  void set_drop_callback(DropCallback callback) { on_drop_ = std::move(callback); }

 private:
  void wake(double now_s);
  void go_to_sleep(double now_s);
  void schedule_check(double delay_s);
  void schedule_jittered_check();
  void check_channel(double now_s);
  void backoff_expired(double now_s);
  void start_transmission(double now_s);
  void complete_transmission(double now_s);
  void cancel_pending();
  void arm_hold_timer(double now_s);
  [[nodiscard]] bool attached_and_alive() const noexcept;
  /// CSI gate with the optional head-of-line deadline override.
  [[nodiscard]] bool gate_permits(double csi_db, double now_s);

  sim::Simulator* sim_;
  std::uint32_t node_id_;
  SensorMacConfig config_;
  energy::Radio* data_radio_;
  energy::Radio* tone_radio_;
  queueing::PacketQueue* queue_;
  queueing::ThresholdController* controller_;
  tone::ToneMonitor* monitor_;
  const phy::AbicmTable* table_;
  const phy::FrameTiming* timing_;
  const phy::PacketErrorModel* error_model_;
  util::Rng rng_;
  DropCallback on_drop_;

  ClusterHeadMac* ch_ = nullptr;
  SensorState state_ = SensorState::kDetached;
  std::uint32_t retry_ = 0;  ///< back-off exponent (collision retries)
  std::size_t burst_frames_ = 0;
  phy::ModeIndex burst_mode_ = 0;
  double burst_start_s_ = 0.0;
  sim::EventId pending_event_ = sim::kInvalidEventId;  // check/backoff/warmup/complete
  sim::EventId hold_event_ = sim::kInvalidEventId;
  std::uint64_t epoch_ = 0;

  SensorMacCounters counters_;
};

}  // namespace caem::mac
