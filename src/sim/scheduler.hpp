// Discrete-event scheduler: calendar-wheel front end + overflow heap.
//
// The heart of the simulator: a cancellable priority queue of callbacks
// keyed by (time, insertion sequence).  The sequence number makes event
// ordering at equal timestamps FIFO and therefore fully deterministic,
// which the reproducibility tests rely on.
//
// Two structures share that one logical queue:
//
//   * a calendar wheel of kWheelBuckets buckets, each kWheelBucketPs
//     picoseconds wide, covering the near horizon
//     [now, now + kWheelBuckets * kWheelBucketPs).  The events that
//     dominate every scenario — link serialization boundaries,
//     propagation arrivals, per-packet timer ticks — land a few
//     microseconds ahead and go here with O(1) extract and an insert
//     that walks at most a bucket's few entries (each bucket is a chain
//     kept in (time, seq) order; its nodes come from one per-scheduler
//     pool, so wheel memory follows the entries parked, not the bucket
//     count);
//
//   * the binary min-heap, kept as the far-future overflow for
//     everything past the wheel horizon (retransmission timers,
//     sampler ticks, flow starts).  Far events pay O(log far-pending),
//     near events no longer pay O(log total-pending).
//
// Extraction compares the wheel's earliest live entry with the heap top
// under the same (time, seq) key, so the execution order is exactly the
// single-heap order — the determinism contract is structural, and the
// differential test in tests/sim/scheduler_differential_test.cpp pins
// it against a naive reference heap.
//
// Cancellation is O(1) per event via generation-tagged slots: an EventId
// packs a slot index and the slot's generation at scheduling time;
// cancelling (or executing) an event bumps the generation, so stale
// entries are recognised and skipped when they surface in either
// structure.  Slots are recycled through a free list, keeping
// bookkeeping memory proportional to the number of *live* events, not
// the events ever scheduled.  Stale entries are compacted away (from
// wheel buckets and heap alike) once they outnumber live ones; the
// stale counter, the compaction trigger and the parked-entry peak are
// all kept combined across the two structures so `heap_peak()` and the
// manifest `sched.heap_peak` counter are byte-identical to the
// pre-wheel tree.
//
// Memory model: callbacks are move-only UniqueFunctions that live in
// slot-indexed side arrays, NOT in the wheel/heap entries — entries
// stay 24 bytes, so wheel nodes and sift-up/down move small PODs while
// the fat callback is written exactly once per event.  Callback slots
// come in two size classes: a small pool for the common tiny capture (a
// `this` pointer, a couple of words — timers, flow starts, sampler
// ticks, link train boundaries) and a large pool whose inline buffer
// carries a net::Packet by value.  schedule_at picks the pool from the
// callable's size at compile time.  In steady state (slots, wheel nodes
// and heap at their high-water marks) schedule/cancel/execute touch the
// allocator zero times; the allocation-regression test enforces this.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace hwatch::sim {

/// Inline capacity of a large scheduler callback: sized so a lambda
/// capturing a net::Packet by value plus a `this` pointer is stored
/// inline (the link hot path static_asserts exactly that).  With the
/// two dispatch pointers a Callback is 128 bytes.
inline constexpr std::size_t kSchedulerCallbackInline = 112;

/// Inline capacity of a small scheduler callback: a `this` pointer plus
/// a few captured words.  Timer expiries, flow starts and sampler ticks
/// all fit; anything bigger routes to the large pool automatically.
inline constexpr std::size_t kSchedulerSmallCallbackInline = 32;

/// Calendar-wheel geometry.  Bucket width 2^16 ps (~65.5 ns) x 2048
/// buckets spans ~134 us — generously past the serialization +
/// propagation delays that produce the per-packet event churn, while
/// millisecond-scale timers (RTO, delayed ACK, samplers) overflow to
/// the heap.  Both are powers of two so bucket indexing is shift+mask.
inline constexpr unsigned kWheelBucketShift = 16;
inline constexpr TimePs kWheelBucketPs = TimePs{1} << kWheelBucketShift;
inline constexpr std::size_t kWheelBuckets = 2048;
inline constexpr TimePs kWheelSpanPs =
    kWheelBucketPs * static_cast<TimePs>(kWheelBuckets);

/// Per-bucket entry cap.  Each bucket is a singly linked list threaded
/// through one per-scheduler node pool; freed nodes go to a free list,
/// so, like the heap, the pool grows only at all-time peaks of parked
/// wheel entries.  A bucket that holds kWheelBucketCapacity entries
/// overflows to the heap, which bounds the sorted insert's walk (256
/// timers parked inside one 65 ns bucket would otherwise walk up to 255
/// nodes per insert).  Eight hold what the benchmark fabrics park: on
/// the k=16 fat-tree 0.02% of wheel inserts found 8 entries in their
/// bucket (at most 14 were), and the dumbbells and leaf-spine almost
/// never do.  A spill changes no order and no count, because peek_next
/// and heap_peak span both structures.
inline constexpr std::size_t kWheelBucketCapacity = 8;

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value = 0;
  constexpr bool valid() const { return value != 0; }
  friend constexpr bool operator==(EventId a, EventId b) {
    return a.value == b.value;
  }
};

class HWATCH_SHARD_CONFINED Scheduler {
 public:
  using Callback = UniqueFunction<void(), kSchedulerCallbackInline>;
  using SmallCallback =
      UniqueFunction<void(), kSchedulerSmallCallbackInline>;

  Scheduler() { bucket_heads_.fill(kNoNode); }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Pending callbacks (cancelled or never run) are destroyed with the
  /// scheduler — packets they carry are released, not leaked.
  ~Scheduler() = default;

  /// Current simulated time.  Monotonically non-decreasing during run().
  TimePs now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now).  Returns a handle that
  /// can be passed to cancel().  An explicit Callback goes to the large
  /// pool; the templated overload below picks the pool from the
  /// callable's size at compile time.
  EventId schedule_at(TimePs t, Callback cb) {
    return schedule_large(t, std::move(cb));
  }

  /// Pool-selecting overload: callables that fit the small inline buffer
  /// use small slots, everything else (e.g. a lambda carrying a Packet)
  /// uses the packet-sized pool.  Semantics are identical either way.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(TimePs t, F&& f) {
    if constexpr (SmallCallback::fits_inline<F>()) {
      return schedule_small(t, SmallCallback(std::forward<F>(f)));
    } else {
      return schedule_large(t, Callback(std::forward<F>(f)));
    }
  }

  EventId schedule_at(TimePs t, SmallCallback cb) {
    return schedule_small(t, std::move(cb));
  }

  /// Schedules `cb` `delay` picoseconds from now.
  EventId schedule_in(TimePs delay, Callback cb) {
    return schedule_large(now_ + delay, std::move(cb));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_in(TimePs delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event.  Returns false when the event already fired,
  /// was cancelled before, or the id is invalid.  The callback (and
  /// anything it captured, e.g. a Packet) is destroyed immediately.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs events with time <= `t`, then sets now to `t`.  This is the
  /// conservative time-window primitive ShardGroup builds on: after
  /// run_until(T) every event a callback schedules lands strictly after
  /// T, so cross-shard messages generated in window (T-W, T] are safe to
  /// deliver in the next window.  The epoch window (the topology's
  /// lookahead, typically a microsecond-scale fraction of the base RTT)
  /// is far inside the wheel horizon, so epoch-resident events keep the
  /// O(1) path and the boundary peek is a bitmap scan.
  HWATCH_DETERMINISTIC_PLANE void run_until(TimePs t);

  /// Executes at most one pending event.  Returns false when none remain.
  bool step();

  /// Makes run()/run_until() return after the current callback finishes.
  void stop() { stopped_ = true; }

  bool empty() const { return live_count_ == 0; }

  /// Time of the earliest pending event, or nullopt when none remain.
  /// Non-const: peeking drops stale (cancelled) entries off the front of
  /// both structures.
  std::optional<TimePs> next_event_time() {
    const Entry* e = peek_next();
    return e == nullptr ? std::nullopt : std::optional<TimePs>(e->time);
  }

  /// Number of events currently pending (excludes cancelled ones).
  std::size_t pending() const { return live_count_; }

  /// Total number of events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Total number of events ever scheduled.
  std::uint64_t scheduled() const { return next_seq_; }

  /// Total number of successful cancellations.
  std::uint64_t cancelled() const { return cancelled_; }

  /// High-water mark of parked entries across BOTH structures (wheel
  /// buckets + overflow heap, live and not-yet-dropped cancelled alike)
  /// — the scheduler's peak memory footprint in events.  The combined
  /// accounting makes the value independent of the wheel/heap split and
  /// byte-identical to the pre-wheel single-heap peak.
  std::size_t heap_peak() const { return entries_peak_; }

  // --- bookkeeping introspection (memory regression tests) -----------
  /// Generation slots ever allocated across both pools; bounded by the
  /// peak number of simultaneously live events, NOT by the events
  /// scheduled over time.
  std::size_t bookkeeping_slots() const {
    return small_.gens.size() + large_.gens.size();
  }
  /// Per-pool slot counts: the small-pool share is what keeps huge
  /// pending sets of timer-style events cache-warm.
  std::size_t small_slots() const { return small_.gens.size(); }
  std::size_t large_slots() const { return large_.gens.size(); }
  /// Resident callback-slot bytes across both pools (inline buffers
  /// only; spilled captures are owned by the arena).
  std::size_t callback_slot_bytes() const {
    return small_.gens.size() * sizeof(SmallCallback) +
           large_.gens.size() * sizeof(Callback);
  }
  /// Entries currently parked in the overflow heap, including
  /// not-yet-compacted stale (cancelled) ones.
  std::size_t heap_entries() const { return heap_.size(); }
  /// Entries currently parked in wheel buckets, including
  /// not-yet-dropped stale ones.
  std::size_t wheel_entries() const { return wheel_count_; }
  /// Wheel nodes made so far: the all-time peak of entries parked in
  /// wheel buckets, so never more than heap_peak().
  std::size_t wheel_node_slots() const { return nodes_.size(); }
  /// Combined parked entries (what heap_entries() reported before the
  /// wheel existed).
  std::size_t total_entries() const { return wheel_count_ + heap_.size(); }

 private:
  struct Entry {
    TimePs time;
    std::uint64_t seq;  // tie-breaker: FIFO at equal time
    std::uint32_t slot;  // high bit: small pool; low 31 bits: index
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// One parked wheel entry and the next node of its bucket's chain (or
  /// of the free list); kNoNode ends a chain.
  struct Node {
    Entry entry;
    std::uint32_t next;
  };

  static constexpr std::uint32_t kSmallSlotBit = 0x8000'0000u;
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  template <typename CB>
  struct SlotPool {
    std::vector<std::uint32_t> gens;
    std::vector<CB> cbs;  // slot-indexed, parallel to gens
    std::vector<std::uint32_t> free_slots;

    std::uint32_t acquire(CB cb) {
      if (!free_slots.empty()) {
        const std::uint32_t slot = free_slots.back();
        free_slots.pop_back();
        cbs[slot] = std::move(cb);
        return slot;
      }
      const auto slot = static_cast<std::uint32_t>(gens.size());
      gens.push_back(0);
      cbs.push_back(std::move(cb));
      return slot;
    }
  };

  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return ((static_cast<std::uint64_t>(slot) + 1) << 32) | gen;
  }

  static constexpr std::uint64_t bucket_of(TimePs t) {
    return static_cast<std::uint64_t>(t) >> kWheelBucketShift;
  }
  static constexpr std::size_t slot_index(std::uint64_t bucket) {
    return static_cast<std::size_t>(bucket & (kWheelBuckets - 1));
  }

  EventId schedule_small(TimePs t, SmallCallback cb);
  EventId schedule_large(TimePs t, Callback cb);
  EventId push_entry(TimePs t, std::uint32_t slot, std::uint32_t gen);

  std::uint32_t& gen_of(std::uint32_t slot) {
    return (slot & kSmallSlotBit) ? small_.gens[slot & ~kSmallSlotBit]
                                  : large_.gens[slot];
  }
  bool is_live(const Entry& e) const {
    const std::uint32_t idx = e.slot & ~kSmallSlotBit;
    return ((e.slot & kSmallSlotBit) ? small_.gens[idx]
                                     : large_.gens[idx]) == e.gen;
  }
  void retire(const Entry& e);  // bump generation, recycle the slot

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // --- wheel internals ----------------------------------------------
  /// A pool node holding `e`, off the free list when it has one.
  std::uint32_t acquire_node(const Entry& e);
  void release_node(std::uint32_t node);
  /// Parks `e` in its wheel bucket; false when the bucket is full (the
  /// caller overflows to the heap).
  bool wheel_insert(const Entry& e, std::uint64_t bucket);
  /// Earliest parked wheel entry (live or stale): the head of the first
  /// occupied bucket, which wheel_front_ then names; nullptr when the
  /// wheel is empty.
  const Entry* wheel_front_entry();
  /// Unlinks and returns the entry wheel_front_entry() returned, and
  /// retires the bucket once drained.  Counter upkeep beyond
  /// wheel_count_ (stale_) is the caller's job.
  Entry wheel_pop_front();
  /// Ring distance from slot `start` to the first occupied bucket slot;
  /// kWheelBuckets when the whole wheel is empty.
  std::size_t occupied_distance(std::size_t start) const;

  void set_occupied(std::size_t i) {
    occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_occupied(std::size_t i) {
    occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  bool is_occupied(std::size_t i) const {
    return (occupied_[i >> 6] >> (i & 63)) & 1;
  }

  // Finds the next live entry across both structures; remembers where
  // it lives (next_from_wheel_) for step().  Stale entries are dropped
  // exactly when they surface as the GLOBAL minimum — the same instants
  // the single-heap implementation dropped them — which keeps the
  // combined parked count, and with it heap_peak(), byte-identical.
  const Entry* peek_next();
  void heap_drop_top();
  void execute_next();  // pops + runs the entry peek_next() found
  void maybe_compact();

  std::vector<Entry> heap_;  // far-future + overflow min-heap
  std::vector<Node> nodes_;  // wheel bucket storage, grown only at peaks
  std::uint32_t free_node_ = kNoNode;  // free list through Node::next
  std::array<std::uint32_t, kWheelBuckets> bucket_heads_;  // chain heads
  std::array<std::uint8_t, kWheelBuckets> bucket_sizes_{};
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};
  std::uint64_t wheel_front_ = 0;   // no wheel entries below this bucket
  std::size_t wheel_count_ = 0;     // parked wheel entries (live + stale)
  bool next_from_wheel_ = false;    // where peek_next found the minimum
  SlotPool<SmallCallback> small_;
  SlotPool<Callback> large_;
  std::size_t stale_ = 0;  // cancelled entries parked in wheel or heap
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t entries_peak_ = 0;  // combined wheel+heap high-water mark
  std::size_t live_count_ = 0;
  bool stopped_ = false;
};

}  // namespace hwatch::sim
