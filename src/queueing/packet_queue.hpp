// packet_queue.hpp — a sensor's transmit buffer.
//
// Bounded FIFO (Table II: buffer size 50 packets) with drop-tail
// overflow and full accounting: every packet that enters is eventually
// classified as delivered, dropped(reason), or still-queued, and the
// integration tests assert that these tallies balance.  Packet storage
// grows on demand up to the capacity and is freed by drain(), so an
// idle or dead node's queue holds none.
#pragma once

#include <cstdint>
#include <functional>

#include "queueing/packet.hpp"
#include "util/ring_buffer.hpp"

namespace caem::queueing {

class PacketQueue {
 public:
  /// Fired when an arriving packet is dropped because the buffer is full.
  using OverflowCallback = std::function<void(const Packet&, double now_s)>;

  explicit PacketQueue(std::size_t capacity);

  /// Enqueue an arrival; returns false (and reports overflow) when full.
  bool push(const Packet& packet, double now_s);

  /// Packet at the head (next to transmit).  Throws when empty.
  [[nodiscard]] const Packet& head() const { return buffer_.front(); }

  /// Mutable access to the head's retry counter.
  Packet& head_mutable() { return buffer_.front(); }

  /// Remove and return the head.  Throws when empty.
  Packet pop();

  /// Re-queue a packet at the head (a frame that failed on air keeps its
  /// place in line).  Returns false when the buffer is full.
  bool requeue_front(const Packet& packet);

  /// i-th queued packet from the head (burst assembly peeks ahead).
  [[nodiscard]] const Packet& peek(std::size_t i) const { return buffer_.at(i); }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return buffer_.capacity(); }
  /// Packet slots currently allocated (0 when idle, at most capacity()).
  [[nodiscard]] std::size_t allocated() const noexcept { return buffer_.allocated(); }

  [[nodiscard]] std::uint64_t total_arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t overflow_drops() const noexcept { return overflow_drops_; }

  void set_overflow_callback(OverflowCallback callback) { on_overflow_ = std::move(callback); }

  /// Mirror the queue depth into an externally owned slot (the network's
  /// SoA hot-state array) on every mutation, so census paths can walk a
  /// contiguous array instead of chasing per-node pointers.  Pass nullptr
  /// to unbind.  The slot must outlive the queue (or be unbound first).
  void set_depth_mirror(std::uint32_t* slot) noexcept {
    depth_mirror_ = slot;
    if (slot) *slot = static_cast<std::uint32_t>(buffer_.size());
  }

  /// Drop every queued packet (node death / end of run), invoking
  /// `sink(packet)` for each so the caller can account for them, and
  /// free the packet storage.
  void drain(const std::function<void(const Packet&)>& sink);

 private:
  void sync_mirror() noexcept {
    if (depth_mirror_) *depth_mirror_ = static_cast<std::uint32_t>(buffer_.size());
  }

  util::RingBuffer<Packet> buffer_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t overflow_drops_ = 0;
  OverflowCallback on_overflow_;
  std::uint32_t* depth_mirror_ = nullptr;
};

}  // namespace caem::queueing
