// Tests for the packet queue and the queue monitor (dV predictor).
#include <gtest/gtest.h>

#include "queueing/packet_queue.hpp"
#include "queueing/queue_monitor.hpp"

namespace caem::queueing {
namespace {

Packet make_packet(std::uint64_t id, double t = 0.0) {
  Packet packet;
  packet.id = id;
  packet.created_s = t;
  return packet;
}

TEST(PacketQueue, FifoAndAccounting) {
  PacketQueue queue(3);
  EXPECT_TRUE(queue.push(make_packet(1), 0.0));
  EXPECT_TRUE(queue.push(make_packet(2), 0.1));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.head().id, 1u);
  EXPECT_EQ(queue.pop().id, 1u);
  EXPECT_EQ(queue.pop().id, 2u);
  EXPECT_EQ(queue.total_arrivals(), 2u);
  EXPECT_EQ(queue.overflow_drops(), 0u);
}

TEST(PacketQueue, OverflowDropsTailAndReports) {
  PacketQueue queue(2);
  std::vector<std::uint64_t> dropped;
  queue.set_overflow_callback(
      [&](const Packet& packet, double) { dropped.push_back(packet.id); });
  queue.push(make_packet(1), 0.0);
  queue.push(make_packet(2), 0.0);
  EXPECT_FALSE(queue.push(make_packet(3), 0.0));
  EXPECT_EQ(queue.overflow_drops(), 1u);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 3u);  // drop-tail: the arrival is lost
  EXPECT_EQ(queue.head().id, 1u);
  EXPECT_EQ(queue.total_arrivals(), 3u);
}

TEST(PacketQueue, RequeueFrontKeepsOrder) {
  PacketQueue queue(4);
  queue.push(make_packet(2), 0.0);
  queue.push(make_packet(3), 0.0);
  const Packet failed = make_packet(1);
  EXPECT_TRUE(queue.requeue_front(failed));
  EXPECT_EQ(queue.pop().id, 1u);
  EXPECT_EQ(queue.pop().id, 2u);
}

TEST(PacketQueue, PeekAheadForBurstAssembly) {
  PacketQueue queue(5);
  for (std::uint64_t i = 1; i <= 4; ++i) queue.push(make_packet(i), 0.0);
  EXPECT_EQ(queue.peek(0).id, 1u);
  EXPECT_EQ(queue.peek(3).id, 4u);
  EXPECT_THROW((void)queue.peek(4), std::out_of_range);
}

TEST(PacketQueue, DrainDeliversEverything) {
  PacketQueue queue(5);
  for (std::uint64_t i = 1; i <= 4; ++i) queue.push(make_packet(i), 0.0);
  std::vector<std::uint64_t> drained;
  queue.drain([&](const Packet& packet) { drained.push_back(packet.id); });
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(queue.empty());
}

TEST(PacketQueue, RequeueFrontOnFullQueueFails) {
  PacketQueue queue(3);
  for (std::uint64_t i = 1; i <= 3; ++i) EXPECT_TRUE(queue.push(make_packet(i), 0.0));
  EXPECT_FALSE(queue.requeue_front(make_packet(0)));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.head().id, 1u);
  // A requeue that fills the last free slot succeeds; the next fails.
  EXPECT_EQ(queue.pop().id, 1u);
  EXPECT_TRUE(queue.requeue_front(make_packet(1)));
  EXPECT_FALSE(queue.requeue_front(make_packet(0)));
  for (std::uint64_t i = 1; i <= 3; ++i) EXPECT_EQ(queue.pop().id, i);
}

TEST(PacketQueue, StorageTracksUseNotCapacity) {
  PacketQueue queue(50);  // Table II buffer size
  EXPECT_EQ(queue.capacity(), 50u);
  EXPECT_EQ(queue.allocated(), 0u);  // idle queue: no packet storage
  std::uint64_t dropped = 0;
  queue.set_overflow_callback([&](const Packet&, double) { ++dropped; });
  for (std::uint64_t i = 1; i <= 50; ++i) EXPECT_TRUE(queue.push(make_packet(i), 0.0));
  EXPECT_EQ(queue.allocated(), 50u);
  EXPECT_FALSE(queue.push(make_packet(51), 0.0));  // overflow exactly at capacity
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(queue.overflow_drops(), 1u);
  EXPECT_EQ(queue.capacity(), 50u);
  for (std::uint64_t i = 1; i <= 50; ++i) EXPECT_EQ(queue.peek(i - 1).id, i);
  std::size_t drained = 0;
  queue.drain([&](const Packet&) { ++drained; });
  EXPECT_EQ(drained, 50u);
  EXPECT_EQ(queue.allocated(), 0u);  // drained (dead / promoted) node frees it
  EXPECT_TRUE(queue.push(make_packet(52), 1.0));
  EXPECT_EQ(queue.head().id, 52u);
}

TEST(PacketQueue, HeadMutableRetries) {
  PacketQueue queue(2);
  queue.push(make_packet(1), 0.0);
  queue.head_mutable().retries = 3;
  EXPECT_EQ(queue.head().retries, 3u);
}

TEST(QueueMonitor, SamplesEveryMArrivals) {
  QueueMonitor monitor(5);
  // First 4 arrivals: no sample.
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(monitor.on_arrival(i).has_value());
  }
  // 5th arrival: first sample (no variation yet — needs two samples).
  EXPECT_FALSE(monitor.on_arrival(5).has_value());
  EXPECT_EQ(monitor.samples_taken(), 1u);
  for (std::size_t i = 6; i <= 9; ++i) {
    EXPECT_FALSE(monitor.on_arrival(i).has_value());
  }
  // 10th arrival: second sample; dV = 10 - 5 = 5.
  const auto variation = monitor.on_arrival(10);
  ASSERT_TRUE(variation.has_value());
  EXPECT_DOUBLE_EQ(*variation, 5.0);
}

TEST(QueueMonitor, NegativeVariationWhenDraining) {
  QueueMonitor monitor(2);
  monitor.on_arrival(10);
  monitor.on_arrival(10);  // sample: 10
  monitor.on_arrival(6);
  const auto variation = monitor.on_arrival(4);  // sample: 4, dV = -6
  ASSERT_TRUE(variation.has_value());
  EXPECT_DOUBLE_EQ(*variation, -6.0);
  EXPECT_DOUBLE_EQ(monitor.variation().value(), -6.0);
}

TEST(QueueMonitor, MEqualsOneSamplesEveryArrival) {
  QueueMonitor monitor(1);
  EXPECT_FALSE(monitor.on_arrival(1).has_value());
  EXPECT_DOUBLE_EQ(monitor.on_arrival(3).value(), 2.0);
  EXPECT_DOUBLE_EQ(monitor.on_arrival(2).value(), -1.0);
}

TEST(QueueMonitor, ResetForgetsHistory) {
  QueueMonitor monitor(1);
  monitor.on_arrival(1);
  monitor.on_arrival(2);
  monitor.reset();
  EXPECT_FALSE(monitor.variation().has_value());
  EXPECT_FALSE(monitor.on_arrival(5).has_value());  // first sample again
  EXPECT_EQ(monitor.samples_taken(), 1u);
}

TEST(QueueMonitor, Validation) {
  EXPECT_THROW(QueueMonitor(0), std::invalid_argument);
}

TEST(PacketDefaults, PaperValues) {
  const Packet packet;
  EXPECT_DOUBLE_EQ(packet.payload_bits, 2048);  // 2 kbit (Table II)
  EXPECT_EQ(packet.retries, 0u);
}

}  // namespace
}  // namespace caem::queueing
