#include "queueing/packet_queue.hpp"

namespace caem::queueing {

PacketQueue::PacketQueue(std::size_t capacity) : buffer_(capacity) {}

bool PacketQueue::push(const Packet& packet, double now_s) {
  ++arrivals_;
  if (!buffer_.try_push(packet)) {
    ++overflow_drops_;
    if (on_overflow_) on_overflow_(packet, now_s);
    return false;
  }
  sync_mirror();
  return true;
}

Packet PacketQueue::pop() {
  Packet packet = buffer_.pop();
  sync_mirror();
  return packet;
}

bool PacketQueue::requeue_front(const Packet& packet) {
  const bool ok = buffer_.try_push_front(packet);
  if (ok) sync_mirror();
  return ok;
}

void PacketQueue::drain(const std::function<void(const Packet&)>& sink) {
  while (!buffer_.empty()) {
    const Packet packet = buffer_.pop();
    if (sink) sink(packet);
  }
  buffer_.clear();
  sync_mirror();
}

}  // namespace caem::queueing
