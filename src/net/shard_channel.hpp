// Cross-shard packet channels for conservative sharded simulation.
//
// A CrossShardChannel is the only sanctioned way for packets — and
// therefore any state at all — to move between two shards' SimContexts.
// The producer side is a Link whose destination node lives in another
// shard: at transmission-complete time it pushes the packet, stamped
// with its arrival time (now + propagation delay), into the channel's
// ShardInbox.  The consumer side runs in the destination shard's drain
// phase: it empties every inbox, sorts the haul by (deliver_time,
// packet uid) — a deterministic total order independent of which link
// or thread produced each packet — and schedules the deliveries into
// the local scheduler.
//
// ShardInbox is a lock-free single-producer/single-consumer ring.  The
// ShardGroup epoch protocol guarantees producers only push during run
// phases and the consumer only pops during drain phases, with a full
// barrier between them, so the ring is never contended; the
// acquire/release atomics make the handoff explicit (and TSan-clean)
// rather than relying on the barrier alone.  The ring's storage grows
// with use, on the producer side, up to the inbox's logical capacity;
// a push beyond that capacity spills to an overflow vector instead of
// blocking — spills are counted, never silent, and only touched under
// the same phase separation.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/annotations.hpp"
#include "sim/context.hpp"

namespace hwatch::net {

class Node;

/// SPSC ring of in-flight cross-shard packets.  push() is called by the
/// source shard's worker (producer), pop() by the destination shard's
/// worker (consumer); the ShardGroup barrier separates the two roles in
/// time.
class HWATCH_SHARD_SHARED ShardInbox {
 public:
  struct Item {
    sim::TimePs deliver_time = 0;
    Packet pkt;
  };

  /// Largest logical capacity: the biggest power of two a size_t holds.
  static constexpr std::size_t kMaxCapacity = (SIZE_MAX >> 1) + 1;

  /// `capacity` is rounded up to a power of two (at least 2): the most
  /// items the ring holds before a push spills.  One window's worth of
  /// transmissions on a single link fits comfortably in the default;
  /// overflow spills, never drops.  The ring allocates nothing until the
  /// first push and then doubles on demand, so an idle or shallow inbox
  /// costs a few slots, not `capacity`.  Throws std::invalid_argument
  /// when `capacity` exceeds kMaxCapacity.
  explicit ShardInbox(std::size_t capacity = 1024);

  ShardInbox(const ShardInbox&) = delete;
  ShardInbox& operator=(const ShardInbox&) = delete;

  /// Producer side: enqueue a packet that must surface in the
  /// destination shard at `deliver_time`.
  void push(sim::TimePs deliver_time, Packet&& p);

  /// Consumer side: dequeue one item; false when empty.  Ring first,
  /// then the overflow spill (drain sorts afterwards, so the relative
  /// order here does not matter).
  bool pop(Item& out);

  bool ring_empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t popped() const { return popped_; }
  /// Pushes that missed the ring and took the overflow vector.
  std::uint64_t spilled() const { return spilled_; }
  /// Logical ring capacity: a push that finds this many items queued
  /// spills.
  std::size_t capacity() const { return capacity_; }
  /// Slots the ring currently holds storage for (0 until the first
  /// push, never more than capacity()) — a memory view, not a limit.
  /// Producer-owned like peak_depth().
  std::size_t ring_slots() const { return ring_.size(); }

  /// High-water mark of the inbox depth (ring + spill) observed at push
  /// time — the number a grow-capacity decision needs.  Producer-owned
  /// like pushed()/spilled(): read it from the consumer side only during
  /// a drain phase (the epoch barrier orders the access).
  std::uint64_t peak_depth() const { return peak_depth_; }

  /// Items currently pending (ring + spill).  Consumer-side drain-phase
  /// view: producers are quiescent, so this is exactly what the next
  /// drain will pop.
  std::size_t depth() const {
    return (tail_.load(std::memory_order_acquire) -
            head_.load(std::memory_order_acquire)) +
           spill_.size();
  }

 private:
  /// Producer side, ring full below capacity(): doubles the storage and
  /// re-places the pending items [head, tail) under the new mask.
  void grow(std::size_t head, std::size_t tail);

  // Storage and mask are producer-written (only inside push(), during a
  // run phase) and consumer-read (pop(), during a drain phase); the
  // epoch barrier orders the two.
  std::vector<Item> ring_;
  std::size_t mask_ = 0;
  const std::size_t capacity_;
  // Producer-owned tail, consumer-owned head; each loads the other's
  // index with acquire and publishes its own with release.
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
  std::vector<Item> spill_;  // producer-written, consumer-drained
  std::uint64_t pushed_ = 0;      // producer-side counter
  std::uint64_t spilled_ = 0;     // producer-side counter
  std::uint64_t peak_depth_ = 0;  // producer-side high-water mark
  std::uint64_t popped_ = 0;      // consumer-side counter
};

/// One directed cross-shard edge: the inbox plus the destination-shard
/// identity needed to deliver into it.  Owned by the destination shard;
/// the source shard's Link holds a pointer to the inbox only.
class HWATCH_SHARD_SHARED CrossShardChannel {
 public:
  /// `dst_ctx`/`dst_node`: the receiving shard's context and the node
  /// (switch or host) the packets are addressed to — the same node the
  /// producing Link names as its destination.
  CrossShardChannel(sim::SimContext& dst_ctx, Node* dst_node,
                    std::size_t capacity = 1024);

  ShardInbox& inbox() { return inbox_; }
  const ShardInbox& inbox() const { return inbox_; }
  Node* dst_node() const { return dst_node_; }
  sim::SimContext& dst_ctx() { return dst_ctx_; }

 private:
  sim::SimContext& dst_ctx_;
  Node* dst_node_;
  ShardInbox inbox_;
};

/// Drain phase for one shard: empties every channel, sorts the haul by
/// (deliver_time, packet uid) and schedules the deliveries into the
/// destination context's scheduler.  `scratch` is caller-owned reusable
/// storage so the steady state allocates nothing.  All channels must
/// target the same shard (context).
void drain_cross_shard_channels(
    std::vector<CrossShardChannel*>& channels,
    std::vector<std::pair<Node*, ShardInbox::Item>>& scratch);

}  // namespace hwatch::net
