// Tests for the pending-event set: ordering, FIFO ties, cancellation,
// generation-stamped ids, and the small-buffer-optimised EventFn.
#include <gtest/gtest.h>
#include <cmath>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "support/event_queue.hpp"

namespace caem::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(3.0, [&](double) { fired.push_back(3); });
  queue.schedule(1.0, [&](double) { fired.push_back(1); });
  queue.schedule(2.0, [&](double) { fired.push_back(2); });
  while (!queue.empty()) {
    auto event = queue.pop();
    event.callback(event.time_s);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimes) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 20; ++i) {
    queue.schedule(5.0, [&fired, i](double) { fired.push_back(i); });
  }
  while (!queue.empty()) {
    auto event = queue.pop();
    event.callback(event.time_s);
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.schedule(1.0, [&](double) { ran = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(id));  // double cancel fails
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelInvalidIds) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(kInvalidEventId));
  EXPECT_FALSE(queue.cancel(12345));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId first = queue.schedule(1.0, [](double) {});
  queue.schedule(2.0, [](double) {});
  queue.cancel(first);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, PopSkipsCancelled) {
  EventQueue queue;
  const EventId a = queue.schedule(1.0, [](double) {});
  queue.schedule(2.0, [](double) {});
  queue.cancel(a);
  const auto event = queue.pop();
  EXPECT_DOUBLE_EQ(event.time_s, 2.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EmptyThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.pop(), std::out_of_range);
  EXPECT_THROW((void)queue.next_time(), std::out_of_range);
}

TEST(EventQueue, RejectsBadArguments) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(std::nan(""), [](double) {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(1.0, nullptr), std::invalid_argument);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue queue;
  for (int i = 0; i < 10; ++i) queue.schedule(i, [](double) {});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, StaleIdCancelReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, [](double) {});
  (void)queue.pop();           // fires -> slot released, generation bumped
  EXPECT_FALSE(queue.cancel(id));
  const EventId again = queue.schedule(2.0, [](double) {});
  EXPECT_FALSE(queue.cancel(id));  // still stale even though the slot is reused
  EXPECT_TRUE(queue.cancel(again));
}

TEST(EventQueue, IdReuseIsImpossible) {
  // A slot is recycled after pop/cancel, but the generation stamp makes
  // every issued id distinct — an old handle can never cancel a newer
  // event that happens to land in the same slot.
  EventQueue queue;
  std::vector<EventId> seen;
  for (int round = 0; round < 50; ++round) {
    const EventId id = queue.schedule(static_cast<double>(round), [](double) {});
    for (const EventId old : seen) EXPECT_NE(id, old);
    seen.push_back(id);
    if (round % 2 == 0) {
      EXPECT_TRUE(queue.cancel(id));
    } else {
      (void)queue.pop();
    }
    // Every previously issued id is now dead: cancel must refuse.
    for (const EventId old : seen) EXPECT_FALSE(queue.cancel(old));
  }
}

TEST(EventQueue, IdsStaleAfterClear) {
  EventQueue queue;
  const EventId a = queue.schedule(1.0, [](double) {});
  const EventId b = queue.schedule(2.0, [](double) {});
  queue.clear();
  EXPECT_FALSE(queue.cancel(a));
  EXPECT_FALSE(queue.cancel(b));
  bool ran = false;
  const EventId c = queue.schedule(1.0, [&](double) { ran = true; });
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  queue.pop().callback(1.0);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelledCallbackStateReleasedEagerly) {
  EventQueue queue;
  auto shared = std::make_shared<int>(7);
  const EventId id = queue.schedule(1.0, [shared](double) {});
  EXPECT_EQ(shared.use_count(), 2);
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(shared.use_count(), 1);  // captured copy destroyed on cancel
}

TEST(EventFn, SmallCapturesStayInline) {
  int hits = 0;
  double seen = 0.0;
  // `this`-pointer-plus-scalars captures — the kernel's common case.
  EventFn fn([&hits, &seen](double now) {
    ++hits;
    seen = now;
  });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn(2.5);
  EXPECT_EQ(hits, 1);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  static_assert(EventFn::stores_inline<void (*)(double)>());
  static_assert(EventFn::kInlineCapacity >= 48);
}

TEST(EventFn, OversizedCapturesSpillToHeapAndStillRun) {
  std::array<double, 16> payload{};  // 128 bytes > inline capacity
  payload[3] = 42.0;
  double out = 0.0;
  EventFn fn([payload, &out](double) { out = payload[3]; });
  EXPECT_FALSE(fn.is_inline());
  fn(0.0);
  EXPECT_DOUBLE_EQ(out, 42.0);
}

TEST(EventFn, MoveTransfersInlineCallable) {
  auto shared = std::make_shared<int>(1);
  EventFn source([shared](double) { /* keep the capture alive */ });
  EXPECT_TRUE(source.is_inline());
  EXPECT_EQ(shared.use_count(), 2);

  EventFn target(std::move(source));
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(target));
  EXPECT_EQ(shared.use_count(), 2);  // moved, not copied

  EventFn assigned;
  assigned = std::move(target);
  EXPECT_FALSE(static_cast<bool>(target));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(shared.use_count(), 2);
  assigned.reset();
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventFn, MoveTransfersHeapCallable) {
  std::array<double, 16> payload{};
  payload[0] = 9.0;
  auto shared = std::make_shared<int>(1);
  double out = 0.0;
  EventFn source([payload, shared, &out](double) { out = payload[0]; });
  EXPECT_FALSE(source.is_inline());
  EXPECT_EQ(shared.use_count(), 2);

  EventFn target(std::move(source));
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(shared.use_count(), 2);  // pointer handoff, no copy
  target(0.0);
  EXPECT_DOUBLE_EQ(out, 9.0);
  target.reset();
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventFn, ScheduleNeverCopiesTheCallable) {
  // Move-only capture proves schedule()/pop() move the callable end to
  // end (a copy anywhere would fail to compile).
  EventQueue queue;
  auto owned = std::make_unique<int>(5);
  int result = 0;
  queue.schedule(1.0, [owned = std::move(owned), &result](double) { result = *owned; });
  auto fired = queue.pop();
  fired.callback(1.0);
  EXPECT_EQ(result, 5);
}

TEST(EventQueue, StressInterleavedScheduleCancelPop) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(queue.schedule(static_cast<double>(i % 97), [](double) {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) queue.cancel(ids[i]);
  double last = -1.0;
  std::size_t popped = 0;
  while (!queue.empty()) {
    const auto event = queue.pop();
    EXPECT_GE(event.time_s, last);
    last = event.time_s;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u - (1000u + 2) / 3);
}

}  // namespace
}  // namespace caem::sim
