// Tests for the discrete-event engine: clock, horizons, stop, RNG registry.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng_registry.hpp"
#include "sim/simulator.hpp"

namespace caem::sim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(2.0, [&](double now) { times.push_back(now); });
  sim.schedule_at(1.0, [&](double now) { times.push_back(now); });
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock advanced to the horizon
}

TEST(Simulator, EventsAtHorizonStillFire) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&](double) { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsBeyondHorizonWait) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.1, [&](double) { fired = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(fired);
  sim.run_until(6.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(3.0, [&](double now) {
    sim.schedule_in(2.0, [&](double inner) { fired_at = inner; });
    (void)now;
  });
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(4.0, [](double) {});
  sim.run_until(4.0);
  EXPECT_THROW(sim.schedule_at(3.0, [](double) {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [](double) {}), std::invalid_argument);
  EXPECT_NO_THROW(sim.schedule_at(4.0, [](double) {}));  // "now" is legal
}

TEST(Simulator, StopBreaksRunLoop) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&](double) {
      if (++count == 3) sim.stop();
    });
  }
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(100.0);  // resumes from where it stopped
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CancellationThroughHandle) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&](double) { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i + 1.0, [](double) {});
  const std::uint64_t fired = sim.run_until(10.0);
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_TRUE(sim.idle());
}

TEST(RngRegistry, SameNameSameStream) {
  RngRegistry registry(17);
  util::Rng& a = registry.stream("x");
  util::Rng& b = registry.stream("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.stream_count(), 1u);
}

TEST(RngRegistry, ReproducibleAcrossInstances) {
  RngRegistry one(99), two(99);
  EXPECT_EQ(one.stream("fading/1-2").next(), two.stream("fading/1-2").next());
  EXPECT_EQ(one.make_stream("q").next(), two.make_stream("q").next());
}

TEST(RngRegistry, DifferentSeedsOrNamesDiffer) {
  RngRegistry one(1), two(2);
  EXPECT_NE(one.make_stream("a").next(), two.make_stream("a").next());
  RngRegistry three(1);
  EXPECT_NE(three.make_stream("a").next(), three.make_stream("b").next());
}

}  // namespace
}  // namespace caem::sim
