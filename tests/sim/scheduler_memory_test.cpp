// Regression tests for scheduler bookkeeping growth: memory must stay
// proportional to the number of *live* events, not the events ever
// scheduled.  The original implementation kept every scheduled id in a
// side hash set for the lifetime of the scheduler, so a long simulation
// with heavy timer churn (every retransmission timer is scheduled and
// cancelled) grew without bound.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/time.hpp"

namespace hwatch::sim {
namespace {

TEST(SchedulerMemoryTest, ScheduleCancelCyclesDoNotGrowBookkeeping) {
  Scheduler s;
  // 1M schedule/cancel cycles with at most one live event: slots must be
  // recycled, and cancelled heap entries compacted away.
  constexpr int kCycles = 1'000'000;
  for (int i = 0; i < kCycles; ++i) {
    const EventId id = s.schedule_at(s.now() + 1'000'000, [] {});
    ASSERT_TRUE(s.cancel(id));
  }
  EXPECT_EQ(s.pending(), 0u);
  // One live event at a time -> O(1) slots and compacted structures.
  // total_entries() spans the wheel and the overflow heap; the bounds
  // are loose (compaction is amortized) but far below kCycles.
  EXPECT_LE(s.bookkeeping_slots(), 64u);
  EXPECT_LE(s.total_entries(), 256u);
  s.run();
  EXPECT_EQ(s.now(), 0);  // nothing actually fired
}

TEST(SchedulerMemoryTest, TimerWheelChurnStaysBounded) {
  Scheduler s;
  // Rolling window of 128 pending timers, 200k reschedules: the pattern
  // of RTO/delayed-ack timers in a TCP-heavy run.
  constexpr int kWindow = 128;
  std::vector<EventId> window(kWindow);
  int fired = 0;
  for (int i = 0; i < 200'000; ++i) {
    const int slot = i % kWindow;
    if (window[slot].valid()) s.cancel(window[slot]);
    window[slot] = s.schedule_at(s.now() + 10'000, [&fired] { ++fired; });
    if (slot == 0) s.run_until(s.now() + 100);
  }
  EXPECT_LE(s.bookkeeping_slots(), 4u * kWindow);
  EXPECT_LE(s.total_entries(), 8u * kWindow);
  s.run();
  EXPECT_GT(fired, 0);
}

TEST(SchedulerMemoryTest, ExecutedEventsRecycleSlots) {
  Scheduler s;
  for (int round = 0; round < 1'000; ++round) {
    for (int i = 0; i < 100; ++i) {
      s.schedule_at(s.now() + 1 + i, [] {});
    }
    s.run();
  }
  EXPECT_EQ(s.executed(), 100'000u);
  EXPECT_LE(s.bookkeeping_slots(), 256u);
}

TEST(SchedulerMemoryTest, WheelNodesFollowParkedEventsNotBuckets) {
  // One event in every wheel bucket, in waves of at most 16 parked at
  // once: the node pool holds one wave, where a slab of kWheelBuckets x
  // kWheelBucketCapacity entries held 16,384.
  Scheduler s;
  constexpr std::size_t kWave = 16;
  for (std::size_t b = 0; b < kWheelBuckets; b += kWave) {
    for (std::size_t i = b; i < b + kWave; ++i) {
      s.schedule_at(static_cast<TimePs>(i) * kWheelBucketPs, [] {});
    }
    s.run();
  }
  EXPECT_EQ(s.executed(), kWheelBuckets);
  EXPECT_EQ(s.heap_peak(), kWave);
  EXPECT_LE(s.wheel_node_slots(), kWave);
}

TEST(SchedulerMemoryTest, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(5, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));  // generation was bumped on execution
  // The slot may since be reused; a stale id must not cancel the new
  // occupant.
  const EventId fresh = s.schedule_at(10, [] {});
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.cancel(fresh));
}

}  // namespace
}  // namespace hwatch::sim
