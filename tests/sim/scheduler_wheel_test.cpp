// Introspection regression tests for the calendar-wheel front end: the
// split into wheel + overflow heap must stay observable (per-structure
// entry counts) without changing the combined accounting that manifests
// report.  `heap_peak()` is the *combined* parked peak — the same value
// the single-heap scheduler reported — so `sched.heap_peak` in figure
// manifests cannot silently undercount wheel-resident events.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/time.hpp"

namespace hwatch::sim {
namespace {

TEST(SchedulerWheelTest, NearHorizonEventsParkInWheel) {
  Scheduler s;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(1'000 + i * kWheelBucketPs, [] {});
  }
  EXPECT_EQ(s.wheel_entries(), 100u);
  EXPECT_EQ(s.heap_entries(), 0u);
  EXPECT_EQ(s.total_entries(), 100u);
  s.run();
  EXPECT_EQ(s.wheel_entries(), 0u);
  EXPECT_EQ(s.total_entries(), 0u);
}

TEST(SchedulerWheelTest, FarFutureEventsOverflowToHeap) {
  Scheduler s;
  // Beyond the wheel span the event must park in the heap...
  s.schedule_at(kWheelSpanPs + 5, [] {});
  EXPECT_EQ(s.wheel_entries(), 0u);
  EXPECT_EQ(s.heap_entries(), 1u);
  // ...and near-horizon traffic keeps using the wheel alongside it.
  s.schedule_at(7, [] {});
  EXPECT_EQ(s.wheel_entries(), 1u);
  EXPECT_EQ(s.total_entries(), 2u);
  s.run();
  EXPECT_EQ(s.total_entries(), 0u);
  EXPECT_EQ(s.executed(), 2u);
}

TEST(SchedulerWheelTest, BucketOverflowSpillsToHeapKeepingFifo) {
  Scheduler s;
  // More same-timestamp events than one bucket can hold: the excess
  // parks in the heap, but execution must still follow insertion order
  // (the (time, seq) tie-break spans both structures).
  constexpr int kBurst = static_cast<int>(kWheelBucketCapacity) + 7;
  std::vector<int> order;
  for (int i = 0; i < kBurst; ++i) {
    s.schedule_at(42'000, [i, &order] { order.push_back(i); });
  }
  EXPECT_EQ(s.wheel_entries(), kWheelBucketCapacity);
  EXPECT_EQ(s.heap_entries(), kBurst - kWheelBucketCapacity);
  s.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerWheelTest, HeapPeakCountsBothStructures) {
  Scheduler s;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1'000 + i * kWheelBucketPs, [] {});  // wheel, own bucket
    s.schedule_at(2 * kWheelSpanPs + i, [] {});        // heap
  }
  EXPECT_EQ(s.wheel_entries(), 10u);
  EXPECT_EQ(s.heap_entries(), 10u);
  // Combined peak, not the heap's own max occupancy (which is 10).
  EXPECT_EQ(s.heap_peak(), 20u);
  s.run();
  EXPECT_EQ(s.total_entries(), 0u);
  EXPECT_EQ(s.heap_peak(), 20u);  // peak is sticky
}

TEST(SchedulerWheelTest, CancelledWheelEntriesAreCompactedAway) {
  Scheduler s;
  // Heavy schedule/cancel churn entirely inside the wheel horizon: the
  // parked population must track live events, not events ever parked.
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = s.schedule_at(s.now() + 10'000, [] {});
    ASSERT_TRUE(s.cancel(id));
  }
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_LE(s.total_entries(), 256u);
}

TEST(SchedulerWheelTest, CompactionThatEmptiesTheFrontBucketMovesOn) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(100, [&order] { order.push_back(0); });
  const EventId behind = s.schedule_at(200, [&order] { order.push_back(1); });
  s.schedule_at(3 * kWheelBucketPs, [&order] { order.push_back(2); });
  std::vector<EventId> filler;
  for (int i = 0; i < 63; ++i) {
    filler.push_back(s.schedule_at(5 * kWheelBucketPs + i, [] {}));
  }
  // Event 0 runs; its bucket stays at the wheel's front with `behind`
  // at the head.  Cancelling it and the filler makes 64 of 65 parked
  // entries stale, so the last cancel compacts and empties that bucket.
  s.run_until(100);
  ASSERT_TRUE(s.cancel(behind));
  for (const EventId id : filler) ASSERT_TRUE(s.cancel(id));
  EXPECT_EQ(s.total_entries(), 1u);
  EXPECT_EQ(s.next_event_time(), 3 * kWheelBucketPs);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(SchedulerWheelTest, RunUntilJumpsPastWheelSpan) {
  Scheduler s;
  int fired = 0;
  // An event several wheel spans out, reached through big run_until
  // jumps; afterwards the wheel must accept near-horizon events again.
  s.schedule_at(3 * kWheelSpanPs, [&fired] { ++fired; });
  s.run_until(kWheelSpanPs);
  EXPECT_EQ(fired, 0);
  s.run_until(4 * kWheelSpanPs);
  EXPECT_EQ(fired, 1);
  s.schedule_at(s.now() + 5, [&fired] { ++fired; });
  EXPECT_EQ(s.wheel_entries(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace hwatch::sim
