// Scheduler callback size classes: tiny timer-style captures must land
// in the small slot pool and packet-carrying captures in the large one,
// with cancellation and FIFO ordering working identically across both.
// Pins the memory thresholds the ScheduleRun/100000 fix relies on — if
// SmallCallback grows past its budget the 4x working-set win is gone.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace hwatch::sim {
namespace {

// The size-class contract, pinned at compile time: a `this` pointer plus
// a couple of words stays small; a by-value net::Packet needs the large
// pool but must still fit inline (the link hot path static_asserts the
// same thing — this keeps the failure local to a unit test).
struct Probe {
  std::uint64_t* counter;
  std::uint64_t a, b;
  void operator()() const { *counter += a + b; }
};
static_assert(Scheduler::SmallCallback::fits_inline<Probe>());
static_assert(sizeof(Scheduler::SmallCallback) <= 48,
              "small slots must stay a fraction of a packet slot");
static_assert(kSchedulerSmallCallbackInline < sizeof(net::Packet),
              "a Packet capture must never route to the small pool");
static_assert(sizeof(Scheduler::Callback) <= 128,
              "a large slot is a Packet, a this pointer and two dispatch "
              "pointers");

TEST(SchedulerPoolsTest, RoutesBySizeClass) {
  Scheduler s;
  std::uint64_t hits = 0;
  s.schedule_at(10, Probe{&hits, 1, 2});
  EXPECT_EQ(s.small_slots(), 1u);
  EXPECT_EQ(s.large_slots(), 0u);

  auto big = [&hits, p = net::Packet{}] { hits += p.payload_bytes; };
  static_assert(!Scheduler::SmallCallback::fits_inline<decltype(big)>());
  static_assert(Scheduler::Callback::fits_inline<decltype(big)>());
  s.schedule_at(20, std::move(big));
  EXPECT_EQ(s.small_slots(), 1u);
  EXPECT_EQ(s.large_slots(), 1u);

  // An explicit Callback always takes the large pool.
  s.schedule_at(30, Scheduler::Callback([&hits] { ++hits; }));
  EXPECT_EQ(s.large_slots(), 2u);

  EXPECT_EQ(s.callback_slot_bytes(),
            s.small_slots() * sizeof(Scheduler::SmallCallback) +
                s.large_slots() * sizeof(Scheduler::Callback));
  s.run();
  EXPECT_EQ(s.executed(), 3u);
  EXPECT_EQ(hits, 4u);  // 1+2 from the probe, 0 payload, 1 from the last
}

TEST(SchedulerPoolsTest, FifoAcrossPoolsAtEqualTime) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(5, [&order] { order.push_back(0); });  // small
  s.schedule_at(5, Scheduler::Callback([&order] { order.push_back(1); }));
  s.schedule_at(5, [&order, p = net::Packet{}] {      // large
    order.push_back(2 + static_cast<int>(p.payload_bytes));
  });
  s.schedule_at(5, [&order] { order.push_back(3); });  // small again
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerPoolsTest, CancelWorksInBothPools) {
  Scheduler s;
  int fired = 0;
  const EventId small_id = s.schedule_at(10, [&fired] { ++fired; });
  const EventId large_id =
      s.schedule_at(10, [&fired, p = net::Packet{}] { fired += 1 + static_cast<int>(p.uid); });
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.cancel(small_id));
  EXPECT_TRUE(s.cancel(large_id));
  EXPECT_FALSE(s.cancel(small_id));  // already cancelled
  EXPECT_EQ(s.cancelled(), 2u);
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(SchedulerPoolsTest, SlotsRecycleSteadyState) {
  Scheduler s;
  std::uint64_t hits = 0;
  // Sequential schedule/execute must reuse one slot per pool: slot count
  // tracks peak liveness, not total events.
  for (int i = 0; i < 1000; ++i) {
    s.schedule_at(i, Probe{&hits, 1, 0});
    s.run_until(i);
  }
  EXPECT_EQ(hits, 1000u);
  EXPECT_EQ(s.small_slots(), 1u);
  EXPECT_EQ(s.large_slots(), 0u);
  EXPECT_EQ(s.bookkeeping_slots(), 1u);
}

TEST(SchedulerPoolsTest, BookkeepingTracksPeakLiveEvents) {
  Scheduler s;
  std::uint64_t hits = 0;
  for (int i = 0; i < 64; ++i) s.schedule_at(i, Probe{&hits, 1, 0});
  EXPECT_EQ(s.small_slots(), 64u);
  s.run();
  // Refilling after a full drain reuses the freed slots.
  for (int i = 0; i < 64; ++i) s.schedule_at(100 + i, Probe{&hits, 1, 0});
  EXPECT_EQ(s.small_slots(), 64u);
  s.run();
  EXPECT_EQ(hits, 128u);
}

}  // namespace
}  // namespace hwatch::sim
