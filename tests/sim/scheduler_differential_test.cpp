// Differential property test: the wheel + overflow-heap scheduler must
// execute randomized schedule/cancel/execute sequences in exactly the
// order a naive (time, insertion-seq)-sorted reference produces.  This
// pins the determinism contract — FIFO at equal timestamps, no
// reordering across the wheel/heap boundary — independently of the
// figure manifests, so a future event-core change that subtly reorders
// ties fails here in milliseconds instead of in a manifest diff.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace hwatch::sim {
namespace {

// Naive reference: a flat vector of live events, executed by stable
// (time, seq) sort.  Deliberately simple enough to be obviously
// correct.
struct RefEvent {
  TimePs time;
  std::uint64_t seq;
  int token;
};

class ReferenceScheduler {
 public:
  void schedule(TimePs t, int token) { live_.push_back({t, seq_++, token}); }

  bool cancel(int token) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->token == token) {
        live_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Executes everything with time <= t (ties broken by insertion seq)
  // and advances the clock, mirroring Scheduler::run_until.
  void run_until(TimePs t, std::vector<int>& order) {
    std::vector<RefEvent> due;
    for (const RefEvent& e : live_) {
      if (e.time <= t) due.push_back(e);
    }
    std::sort(due.begin(), due.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
    for (const RefEvent& e : due) order.push_back(e.token);
    std::erase_if(live_, [t](const RefEvent& e) { return e.time <= t; });
    if (now_ < t) now_ = t;
  }

  TimePs now() const { return now_; }
  bool empty() const { return live_.empty(); }

  /// The event due first by (time, seq), or nullptr when none is live.
  const RefEvent* front() const {
    const RefEvent* best = nullptr;
    for (const RefEvent& e : live_) {
      if (best == nullptr || e.time < best->time ||
          (e.time == best->time && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best;
  }

 private:
  std::vector<RefEvent> live_;
  std::uint64_t seq_ = 0;
  TimePs now_ = 0;
};

// Drives both schedulers through the same random op sequence and
// compares the full execution orders.  The time distribution is tuned
// to stress the wheel: same-timestamp bursts (bucket overflow into the
// heap), sub-bucket offsets, offsets near the wheel span boundary, and
// far-future horizons several spans out.
void RunDifferential(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Scheduler real;
  ReferenceScheduler ref;
  std::vector<int> real_order;
  std::vector<int> ref_order;
  std::unordered_map<int, EventId> live;  // token -> real handle
  std::vector<int> live_tokens;
  int next_token = 0;
  TimePs last_time = 0;

  auto pick_time = [&]() -> TimePs {
    switch (rng() % 8) {
      case 0:
        return real.now();  // immediate
      case 1:
      case 2:  // same-timestamp burst: reuse the previous pick
        return std::max(last_time, real.now());
      case 3:  // inside one bucket
        return real.now() + static_cast<TimePs>(rng() % kWheelBucketPs);
      case 4:  // straddling the wheel span boundary
        return real.now() + kWheelSpanPs - kWheelBucketPs +
               static_cast<TimePs>(rng() % (4 * kWheelBucketPs));
      case 5:  // far future, heap-resident
        return real.now() + kWheelSpanPs * (1 + static_cast<TimePs>(rng() % 4));
      default:  // anywhere in the near horizon
        return real.now() + static_cast<TimePs>(rng() % kWheelSpanPs);
    }
  };

  for (int op = 0; op < ops; ++op) {
    const unsigned roll = rng() % 100;
    if (roll < 55 || live_tokens.empty()) {
      // Schedule, occasionally as a burst at one timestamp to overflow
      // a bucket.
      const int burst = (rng() % 10 == 0) ? 1 + static_cast<int>(rng() % 24)
                                          : 1;
      const TimePs t = pick_time();
      last_time = t;
      for (int i = 0; i < burst; ++i) {
        const int token = next_token++;
        live[token] =
            real.schedule_at(t, [token, &real_order] {
              real_order.push_back(token);
            });
        ref.schedule(t, token);
        live_tokens.push_back(token);
      }
    } else if (roll < 75) {
      // Cancel (or reschedule: cancel + fresh schedule) a random live
      // event.
      const std::size_t idx = rng() % live_tokens.size();
      const int token = live_tokens[idx];
      const bool real_ok = real.cancel(live[token]);
      const bool ref_ok = ref.cancel(token);
      ASSERT_EQ(real_ok, ref_ok) << "cancel divergence, token " << token;
      live.erase(token);
      live_tokens[idx] = live_tokens.back();
      live_tokens.pop_back();
      if (roll < 65) {
        const TimePs t = pick_time();
        last_time = t;
        const int fresh = next_token++;
        live[fresh] = real.schedule_at(t, [fresh, &real_order] {
          real_order.push_back(fresh);
        });
        ref.schedule(t, fresh);
        live_tokens.push_back(fresh);
      }
    } else {
      // Execute a slice of the timeline; occasionally a jump several
      // wheel spans long.
      const TimePs delta =
          (rng() % 8 == 0) ? 2 * kWheelSpanPs
                           : static_cast<TimePs>(rng() % (kWheelSpanPs / 4));
      const TimePs target = real.now() + delta;
      real.run_until(target);
      ref.run_until(target, ref_order);
      ASSERT_EQ(real.now(), ref.now());
      ASSERT_EQ(real_order, ref_order) << "divergence after run_until("
                                       << target << "), seed " << seed;
      // Drop executed tokens from the live view (re-erasing tokens from
      // earlier rounds is a no-op).
      for (const int tk : ref_order) live.erase(tk);
      std::erase_if(live_tokens,
                    [&](int tk) { return live.count(tk) == 0; });
    }
  }

  // Drain everything still pending.
  real.run();
  ref.run_until(std::numeric_limits<TimePs>::max() / 2, ref_order);
  ASSERT_EQ(real_order, ref_order) << "divergence at drain, seed " << seed;
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(real.pending(), 0u);
}

TEST(SchedulerDifferentialTest, RandomizedChurnMatchesReferenceOrder) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 987654ull}) {
    RunDifferential(seed, 4'000);
  }
}

// Re-entrant mode: callbacks schedule and cancel, as the model's do.
// Each callback requires the reference's first event to be the one
// running and retires it there, so the two advance in lock step.  Then
// it may schedule a child at the same instant or within a bucket's
// width (an insert into the bucket being consumed) or past the horizon,
// and may cancel the event due next: the entry right behind the head.
class ReentrantDifferential {
 public:
  explicit ReentrantDifferential(std::uint64_t seed)
      : seed_(seed), rng_(seed) {}

  void run(int rounds) {
    for (int round = 0; round < rounds && !diverged_; ++round) {
      // Top up with bursts, so full buckets spill to the heap too.
      while (real_.pending() < 48) {
        const TimePs t =
            real_.now() + static_cast<TimePs>(rng_() % (kWheelSpanPs / 8));
        for (std::uint64_t i = rng_() % 12; i < 12; ++i) schedule(t);
      }
      const TimePs target =
          real_.now() + static_cast<TimePs>(rng_() % (kWheelSpanPs / 16));
      real_.run_until(target);
      // Nothing due by `target` may be left behind.
      const RefEvent* next = ref_.front();
      ASSERT_TRUE(next == nullptr || next->time > target)
          << "event " << next->token << " skipped, seed " << seed_;
    }
    real_.run();
    EXPECT_EQ(ref_.front(), nullptr) << "seed " << seed_;
    EXPECT_EQ(real_.pending(), 0u);
  }

  std::size_t fired() const { return fired_; }

 private:
  void schedule(TimePs t) {
    const int token = next_token_++;
    live_[token] = real_.schedule_at(t, [this, token] { fire(token); });
    ref_.schedule(t, token);
  }

  void cancel(int token) {
    EXPECT_TRUE(real_.cancel(live_.at(token))) << "token " << token;
    ref_.cancel(token);
    live_.erase(token);
  }

  void fire(int token) {
    const RefEvent* expected = ref_.front();
    if (expected == nullptr || expected->token != token ||
        expected->time != real_.now()) {
      ADD_FAILURE() << "event " << token << " ran at " << real_.now()
                    << "; the reference expected "
                    << (expected == nullptr ? -1 : expected->token)
                    << ", seed " << seed_;
      diverged_ = true;
      real_.stop();
      return;
    }
    ref_.cancel(token);
    live_.erase(token);
    ++fired_;
    switch (rng_() % 8) {
      case 0:
      case 1:
        schedule(real_.now());
        break;
      case 2:
      case 3:
        schedule(real_.now() + static_cast<TimePs>(rng_() % kWheelBucketPs));
        break;
      case 4:
        schedule(real_.now() + kWheelSpanPs +
                 static_cast<TimePs>(rng_() % kWheelSpanPs));
        break;
      default:
        break;
    }
    if (rng_() % 4 == 0) {
      if (const RefEvent* behind = ref_.front()) cancel(behind->token);
    }
  }

  std::uint64_t seed_;
  std::mt19937_64 rng_;
  Scheduler real_;
  ReferenceScheduler ref_;
  std::unordered_map<int, EventId> live_;  // token -> real handle
  int next_token_ = 0;
  std::size_t fired_ = 0;
  bool diverged_ = false;
};

TEST(SchedulerDifferentialTest, CallbacksThatScheduleAndCancelMatchReference) {
  for (const std::uint64_t seed : {3ull, 11ull, 2024ull}) {
    ReentrantDifferential d(seed);
    d.run(2'000);
    EXPECT_GT(d.fired(), 10'000u) << "seed " << seed;
  }
}

TEST(SchedulerDifferentialTest, SameTimestampBurstsStayFifo) {
  // Degenerate distribution: everything lands on a handful of
  // timestamps, so nearly every event is a tie and most buckets
  // overflow.
  Scheduler real;
  ReferenceScheduler ref;
  std::vector<int> real_order;
  std::vector<int> ref_order;
  std::mt19937_64 rng(99);
  int token = 0;
  for (int round = 0; round < 50; ++round) {
    const TimePs base = real.now();
    for (int i = 0; i < 60; ++i) {
      const TimePs t = base + static_cast<TimePs>(rng() % 3) * 1'000;
      const int tk = token++;
      real.schedule_at(t, [tk, &real_order] { real_order.push_back(tk); });
      ref.schedule(t, tk);
    }
    const TimePs target = base + 2'000;
    real.run_until(target);
    ref.run_until(target, ref_order);
    ASSERT_EQ(real_order, ref_order) << "round " << round;
  }
  real.run();
  ref.run_until(std::numeric_limits<TimePs>::max() / 2, ref_order);
  EXPECT_EQ(real_order, ref_order);
}

}  // namespace
}  // namespace hwatch::sim
