#include "mac/sensor_mac.hpp"

#include <stdexcept>
#include <vector>

namespace caem::mac {

const char* to_string(SensorState state) noexcept {
  switch (state) {
    case SensorState::kSleeping: return "sleeping";
    case SensorState::kMonitoring: return "monitoring";
    case SensorState::kBackoff: return "backoff";
    case SensorState::kWarmup: return "warmup";
    case SensorState::kTransmitting: return "transmitting";
    case SensorState::kDetached: return "detached";
    case SensorState::kDead: return "dead";
  }
  return "?";
}

SensorMac::SensorMac(sim::Simulator* sim, std::uint32_t node_id, SensorMacConfig config,
                     energy::Radio* data_radio, energy::Radio* tone_radio,
                     queueing::PacketQueue* queue, queueing::ThresholdController* controller,
                     tone::ToneMonitor* monitor, const phy::AbicmTable* table,
                     const phy::FrameTiming* timing, const phy::PacketErrorModel* error_model,
                     util::Rng rng)
    : sim_(sim),
      node_id_(node_id),
      config_(config),
      data_radio_(data_radio),
      tone_radio_(tone_radio),
      queue_(queue),
      controller_(controller),
      monitor_(monitor),
      table_(table),
      timing_(timing),
      error_model_(error_model),
      rng_(rng) {
  if (sim_ == nullptr || data_radio_ == nullptr || tone_radio_ == nullptr ||
      queue_ == nullptr || controller_ == nullptr || monitor_ == nullptr ||
      table_ == nullptr || timing_ == nullptr || error_model_ == nullptr) {
    throw std::invalid_argument("SensorMac: null component");
  }
}

SensorMac::~SensorMac() { cancel_pending(); }

void SensorMac::cancel_pending() {
  if (pending_event_ != sim::kInvalidEventId) {
    sim_->cancel(pending_event_);
    pending_event_ = sim::kInvalidEventId;
  }
  if (hold_event_ != sim::kInvalidEventId) {
    sim_->cancel(hold_event_);
    hold_event_ = sim::kInvalidEventId;
  }
}

bool SensorMac::attached_and_alive() const noexcept {
  return state_ != SensorState::kDead && state_ != SensorState::kDetached && ch_ != nullptr;
}

bool SensorMac::gate_permits(double csi_db, double now_s) {
  if (controller_->permits(csi_db)) return true;
  if (config_.csi_gate_deadline_s > 0.0 && !queue_->empty() &&
      now_s - queue_->head().created_s > config_.csi_gate_deadline_s) {
    ++counters_.deadline_overrides;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- lifecycle

void SensorMac::attach_round(double now_s, ClusterHeadMac* ch) {
  if (state_ == SensorState::kDead) return;
  if (ch == nullptr) throw std::invalid_argument("SensorMac: null cluster head");
  cancel_pending();
  ++epoch_;
  ch_ = ch;
  retry_ = 0;
  // The CH changed, so the channel (and its statistics) changed: the
  // adaptive threshold restarts from the energy-optimal class.
  controller_->reset();
  state_ = SensorState::kSleeping;
  data_radio_->transition(now_s, energy::RadioState::kSleep);
  tone_radio_->transition(now_s, energy::RadioState::kSleep);
  if (config_.burst.should_wake(queue_->size())) {
    wake(now_s);
  } else if (!queue_->empty()) {
    arm_hold_timer(now_s);
  }
}

void SensorMac::detach_round(double now_s) {
  if (state_ == SensorState::kDead) return;
  if (state_ == SensorState::kTransmitting && ch_ != nullptr) {
    ch_->finish_transmission(this, now_s);
  }
  cancel_pending();
  ++epoch_;
  ch_ = nullptr;
  state_ = SensorState::kDetached;
  data_radio_->transition(now_s, energy::RadioState::kSleep);
  tone_radio_->transition(now_s, energy::RadioState::kSleep);
}

void SensorMac::die(double now_s) {
  if (state_ == SensorState::kDead) return;
  if (state_ == SensorState::kTransmitting && ch_ != nullptr) {
    ch_->finish_transmission(this, now_s);
  }
  cancel_pending();
  ++epoch_;
  ch_ = nullptr;
  state_ = SensorState::kDead;
  data_radio_->transition(now_s, energy::RadioState::kOff);
  tone_radio_->transition(now_s, energy::RadioState::kOff);
  queue_->drain([&](const queueing::Packet& packet) {
    if (on_drop_) on_drop_(packet, queueing::DropReason::kNodeDeath, now_s);
  });
}

// ----------------------------------------------------------------- arrivals

void SensorMac::on_packet_arrival(double now_s) {
  if (state_ == SensorState::kDead || state_ == SensorState::kDetached) return;
  if (state_ != SensorState::kSleeping) return;  // already contending
  if (config_.burst.should_wake(queue_->size())) {
    wake(now_s);
  } else if (!queue_->empty()) {
    arm_hold_timer(now_s);
  }
}

void SensorMac::arm_hold_timer(double now_s) {
  if (hold_event_ != sim::kInvalidEventId) return;
  const std::uint64_t epoch = epoch_;
  hold_event_ = sim_->schedule_at(now_s + config_.burst.hold_timeout_s,
                                  [this, epoch](double now) {
                                    if (epoch != epoch_) return;
                                    hold_event_ = sim::kInvalidEventId;
                                    if (state_ == SensorState::kSleeping && !queue_->empty()) {
                                      wake(now);
                                    }
                                  });
}

// --------------------------------------------------------------- monitoring

void SensorMac::wake(double now_s) {
  ++counters_.wakeups;
  state_ = SensorState::kMonitoring;
  // Tone radio: startup, then duty-cycled sniffing (the kIdle profile
  // carries the duty-scaled power; see core::NetworkConfig).
  tone_radio_->transition(now_s, energy::RadioState::kStartup);
  const double startup = tone_radio_->startup_time_s();
  // Acquisition: the sensor must catch an idle pulse (uniform phase over
  // the pulse period) and classify the interval (acquisition delay).
  const double acquisition =
      rng_.uniform() * config_.check_interval_s + config_.acquisition_delay_s;
  const std::uint64_t epoch = epoch_;
  pending_event_ = sim_->schedule_at(now_s + startup + acquisition, [this, epoch](double now) {
    if (epoch != epoch_) return;
    pending_event_ = sim::kInvalidEventId;
    tone_radio_->transition(now, energy::RadioState::kIdle);
    check_channel(now);
  });
}

void SensorMac::go_to_sleep(double now_s) {
  state_ = SensorState::kSleeping;
  data_radio_->transition(now_s, energy::RadioState::kSleep);
  tone_radio_->transition(now_s, energy::RadioState::kSleep);
  if (!queue_->empty()) arm_hold_timer(now_s);
}

void SensorMac::schedule_check(double delay_s) {
  const std::uint64_t epoch = epoch_;
  pending_event_ = sim_->schedule_in(delay_s, [this, epoch](double now) {
    if (epoch != epoch_) return;
    pending_event_ = sim::kInvalidEventId;
    check_channel(now);
  });
}

void SensorMac::schedule_jittered_check() {
  // Desynchronised retry: without jitter every sensor that deferred on
  // the same busy/collision event would re-check at the same instant and
  // re-collide forever.
  schedule_check(config_.check_interval_s * (0.5 + rng_.uniform()));
}

void SensorMac::check_channel(double now_s) {
  if (!attached_and_alive()) return;
  ++counters_.checks;
  if (!monitor_->hears_tone()) {
    // CH collapsed or switched: power down until the next round (Fig 3).
    detach_round(now_s);
    return;
  }
  if (queue_->empty()) {
    go_to_sleep(now_s);
    return;
  }
  const tone::ToneState observed = monitor_->observed_state(now_s);
  if (observed != tone::ToneState::kIdle) {
    ++counters_.busy_denied;
    schedule_jittered_check();
    return;
  }
  const double csi_db = monitor_->estimate_csi_db(now_s);
  if (!gate_permits(csi_db, now_s)) {
    ++counters_.csi_denied;
    schedule_check(config_.check_interval_s);
    return;
  }
  // Contend: back off, then re-validate before seizing the channel.
  state_ = SensorState::kBackoff;
  const double delay = config_.backoff.delay_s(rng_, retry_);
  const std::uint64_t epoch = epoch_;
  pending_event_ = sim_->schedule_in(delay, [this, epoch](double now) {
    if (epoch != epoch_) return;
    pending_event_ = sim::kInvalidEventId;
    backoff_expired(now);
  });
}

void SensorMac::backoff_expired(double now_s) {
  if (!attached_and_alive()) return;
  if (!monitor_->hears_tone()) {
    detach_round(now_s);
    return;
  }
  const tone::ToneState observed = monitor_->observed_state(now_s);
  const double csi_db = monitor_->estimate_csi_db(now_s);
  if (observed != tone::ToneState::kIdle || !gate_permits(csi_db, now_s)) {
    // Either condition failed: return to the sensing state (paper III-B).
    state_ = SensorState::kMonitoring;
    if (observed != tone::ToneState::kIdle) ++counters_.busy_denied;
    else ++counters_.csi_denied;
    schedule_jittered_check();
    return;
  }
  // Seize the channel: warm the data radio up, then transmit.
  state_ = SensorState::kWarmup;
  burst_mode_ = table_->mode_for_snr(csi_db).value_or(0);
  data_radio_->transition(now_s, energy::RadioState::kStartup);
  const std::uint64_t epoch = epoch_;
  pending_event_ =
      sim_->schedule_in(data_radio_->startup_time_s(), [this, epoch](double now) {
        if (epoch != epoch_) return;
        pending_event_ = sim::kInvalidEventId;
        start_transmission(now);
      });
}

// ------------------------------------------------------------- transmission

void SensorMac::start_transmission(double now_s) {
  if (!attached_and_alive()) return;
  if (!monitor_->hears_tone()) {
    detach_round(now_s);
    return;
  }
  // The tone radio stayed on through the warm-up: if another burst began
  // meanwhile, defer instead of colliding.
  if (monitor_->observed_state(now_s) != tone::ToneState::kIdle) {
    ++counters_.busy_denied;
    data_radio_->transition(now_s, energy::RadioState::kSleep);
    state_ = SensorState::kMonitoring;
    schedule_jittered_check();
    return;
  }
  state_ = SensorState::kTransmitting;
  ++counters_.bursts_started;
  burst_frames_ = config_.burst.burst_size(queue_->size());
  burst_start_s_ = now_s;
  data_radio_->transition(now_s, energy::RadioState::kTx);
  // The tone radio listens at full power during the burst so the sensor
  // can hear a collision pulse (the paper's collision-detection feature).
  tone_radio_->transition(now_s, energy::RadioState::kRx);
  ch_->begin_transmission(this, now_s);
  const double duration = timing_->burst_air_time_s(burst_mode_, burst_frames_);
  const std::uint64_t epoch = epoch_;
  pending_event_ = sim_->schedule_in(duration, [this, epoch](double now) {
    if (epoch != epoch_) return;
    pending_event_ = sim::kInvalidEventId;
    complete_transmission(now);
  });
}

void SensorMac::complete_transmission(double now_s) {
  if (!attached_and_alive()) return;
  ++counters_.bursts_completed;
  ch_->finish_transmission(this, now_s);
  retry_ = 0;  // clean channel access succeeded; reset the back-off exponent

  // Evaluate each frame against the true channel at its own air time
  // (the channel may drift across an 8-frame burst at low modes).
  const double frame_air = timing_->frame_air_time_s(burst_mode_);
  std::vector<queueing::Packet> failed;
  for (std::size_t i = 0; i < burst_frames_ && !queue_->empty(); ++i) {
    queueing::Packet packet = queue_->pop();
    ++counters_.frames_sent;
    const double frame_mid = burst_start_s_ + (static_cast<double>(i) + 0.5) * frame_air;
    const double snr_db = monitor_->true_snr_db(frame_mid);
    const double per =
        error_model_->packet_error_rate(burst_mode_, snr_db, packet.payload_bits);
    if (!rng_.bernoulli(per)) {
      ch_->deliver(packet, burst_mode_, node_id_, now_s);
    } else {
      ++counters_.frames_failed;
      packet.retries += 1;
      if (packet.retries > config_.backoff.max_retries) {
        ++counters_.packets_dropped_retry;
        if (on_drop_) on_drop_(packet, queueing::DropReason::kRetryExhausted, now_s);
      } else {
        failed.push_back(packet);
      }
    }
  }
  // Failed frames keep their place at the head of the line (in order).
  for (auto it = failed.rbegin(); it != failed.rend(); ++it) {
    queue_->requeue_front(*it);
  }

  data_radio_->transition(now_s, energy::RadioState::kSleep);
  if (config_.burst.should_wake(queue_->size()) || !failed.empty()) {
    // More work: return to monitoring and contend again.
    state_ = SensorState::kMonitoring;
    tone_radio_->transition(now_s, energy::RadioState::kIdle);
    schedule_check(config_.check_interval_s * rng_.uniform());
  } else {
    go_to_sleep(now_s);
  }
}

// ------------------------------------------------------------------- aborts

void SensorMac::abort_collision(double now_s) {
  if (state_ != SensorState::kTransmitting) return;
  ++counters_.collisions;
  cancel_pending();
  ++epoch_;
  if (retry_ < config_.backoff.max_retries) ++retry_;
  // Stop the burst; packets stay queued untouched.  Back to sensing.
  data_radio_->transition(now_s, energy::RadioState::kSleep);
  state_ = SensorState::kMonitoring;
  tone_radio_->transition(now_s, energy::RadioState::kIdle);
  schedule_jittered_check();
}

void SensorMac::abort_round_end(double now_s) {
  if (state_ != SensorState::kTransmitting) return;
  cancel_pending();
  ++epoch_;
  ch_ = nullptr;
  state_ = SensorState::kDetached;
  data_radio_->transition(now_s, energy::RadioState::kSleep);
  tone_radio_->transition(now_s, energy::RadioState::kSleep);
}

}  // namespace caem::mac
