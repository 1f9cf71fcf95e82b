#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hwatch::sim {

// Ordering invariant the wheel relies on (and the reason it needs no
// "catch-up" sweep): stale entries are dropped the moment they surface
// as the global minimum (peek_next) or at compaction — exactly as the
// single-heap implementation did — so no parked entry, live or stale,
// ever has a time below now_.  Every parked entry therefore lives in
// bucket range [bucket_of(now_), bucket_of(now_) + kWheelBuckets), the
// bucket->slot map is injective over that window, and ring order from
// wheel_front_ equals absolute bucket order.

EventId Scheduler::push_entry(TimePs t, std::uint32_t slot,
                              std::uint32_t gen) {
  const Entry e{t, next_seq_++, slot, gen};
  const std::uint64_t bucket = bucket_of(t);
  const bool in_wheel =
      bucket < bucket_of(now_) + kWheelBuckets && wheel_insert(e, bucket);
  if (!in_wheel) {
    // Past the horizon, or the target bucket is at capacity: the heap
    // takes it.  peek_next() handles near-time heap entries naturally.
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  const std::size_t parked = wheel_count_ + heap_.size();
  if (parked > entries_peak_) entries_peak_ = parked;
  ++live_count_;
  return EventId{pack(slot, gen)};
}

EventId Scheduler::schedule_small(TimePs t, SmallCallback cb) {
  if (t < now_) {
    throw std::invalid_argument("Scheduler: event scheduled in the past");
  }
  const std::uint32_t idx = small_.acquire(std::move(cb));
  const std::uint32_t slot = idx | kSmallSlotBit;
  return push_entry(t, slot, small_.gens[idx]);
}

EventId Scheduler::schedule_large(TimePs t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Scheduler: event scheduled in the past");
  }
  const std::uint32_t slot = large_.acquire(std::move(cb));
  return push_entry(t, slot, large_.gens[slot]);
}

void Scheduler::retire(const Entry& e) {
  const std::uint32_t idx = e.slot & ~kSmallSlotBit;
  if (e.slot & kSmallSlotBit) {
    ++small_.gens[idx];
    small_.free_slots.push_back(idx);
  } else {
    ++large_.gens[idx];
    large_.free_slots.push_back(idx);
  }
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  const std::uint32_t idx = slot & ~kSmallSlotBit;
  const bool small = (slot & kSmallSlotBit) != 0;
  // Only ids whose generation is still current may be cancelled; fired,
  // cancelled or invalid ids are rejected so live_count_ stays accurate.
  if (small) {
    if (idx >= small_.gens.size() || small_.gens[idx] != gen) return false;
  } else {
    if (idx >= large_.gens.size() || large_.gens[idx] != gen) return false;
  }
  // The parked entry (wheel bucket or heap) cannot be removed directly;
  // bumping the generation marks it stale, and it is skipped (or
  // compacted) later.  The callback is destroyed now so captured
  // resources don't linger.
  if (small) {
    ++small_.gens[idx];
    small_.cbs[idx].reset();
    small_.free_slots.push_back(idx);
  } else {
    ++large_.gens[idx];
    large_.cbs[idx].reset();
    large_.free_slots.push_back(idx);
  }
  --live_count_;
  ++cancelled_;
  ++stale_;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Sweep stale entries out of both structures once they dominate;
  // amortized O(1) and keeps parked memory proportional to live events.
  // The trigger compares against the COMBINED parked count so it fires
  // at the same instants as the single-heap implementation did.
  if (stale_ < 64 || stale_ * 2 < heap_.size() + wheel_count_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits != 0) {
      const std::size_t idx =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      // Unlinking keeps the rest of the chain in order.
      std::uint32_t* link = &bucket_heads_[idx];
      while (*link != kNoNode) {
        const std::uint32_t node = *link;
        if (is_live(nodes_[node].entry)) {
          link = &nodes_[node].next;
          continue;
        }
        *link = nodes_[node].next;
        release_node(node);
        --bucket_sizes_[idx];
        --wheel_count_;
      }
      if (bucket_sizes_[idx] == 0) clear_occupied(idx);
    }
  }
  stale_ = 0;
}

std::uint32_t Scheduler::acquire_node(const Entry& e) {
  std::uint32_t node = free_node_;
  if (node != kNoNode) {
    free_node_ = nodes_[node].next;
    nodes_[node].entry = e;
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{e, kNoNode});
  }
  return node;
}

void Scheduler::release_node(std::uint32_t node) {
  nodes_[node].next = free_node_;
  free_node_ = node;
}

bool Scheduler::wheel_insert(const Entry& e, std::uint64_t bucket) {
  const std::size_t idx = slot_index(bucket);
  std::uint8_t& n = bucket_sizes_[idx];
  if (n == kWheelBucketCapacity) return false;  // full: overflow to heap
  assert(n == 0 || bucket_of(nodes_[bucket_heads_[idx]].entry.time) == bucket);
  // Take the node before walking the chain: a new node may grow nodes_,
  // which would leave a link pointer into the pool dangling.
  const std::uint32_t node = acquire_node(e);
  // Keep the chain in (time, seq) order, so its head is the bucket's
  // minimum; the cap bounds the walk at kWheelBucketCapacity - 1 links.
  std::uint32_t* link = &bucket_heads_[idx];
  while (*link != kNoNode && earlier(nodes_[*link].entry, e)) {
    link = &nodes_[*link].next;
  }
  nodes_[node].next = *link;
  *link = node;
  if (n++ == 0) set_occupied(idx);
  if (bucket < wheel_front_) wheel_front_ = bucket;
  ++wheel_count_;
  return true;
}

std::size_t Scheduler::occupied_distance(std::size_t start) const {
  constexpr std::size_t kWords = kWheelBuckets / 64;
  std::size_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  // kWords + 1 iterations: the start word is visited twice — masked to
  // bits >= start on entry, unmasked for the sub-start wrap-around.
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const std::size_t slot =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      return (slot + kWheelBuckets - start) & (kWheelBuckets - 1);
    }
    word = (word + 1) & (kWords - 1);
    bits = occupied_[word];
  }
  return kWheelBuckets;
}

const Scheduler::Entry* Scheduler::wheel_front_entry() {
  if (wheel_count_ == 0) return nullptr;
  const std::uint64_t cur = bucket_of(now_);
  // Buckets below now_ are provably empty (see the invariant at the top
  // of this file); snapping the scan start to now_ keeps ring order ==
  // absolute order even across large run_until() jumps.
  if (wheel_front_ < cur) wheel_front_ = cur;
  const std::size_t dist = occupied_distance(slot_index(wheel_front_));
  assert(dist < kWheelBuckets);
  wheel_front_ += dist;
  const Entry& head = nodes_[bucket_heads_[slot_index(wheel_front_)]].entry;
  assert(bucket_of(head.time) == wheel_front_);
  return &head;
}

Scheduler::Entry Scheduler::wheel_pop_front() {
  const std::size_t idx = slot_index(wheel_front_);
  const std::uint32_t head = bucket_heads_[idx];
  const Entry e = nodes_[head].entry;
  bucket_heads_[idx] = nodes_[head].next;
  release_node(head);
  --wheel_count_;
  if (--bucket_sizes_[idx] == 0) {
    clear_occupied(idx);
    ++wheel_front_;
  }
  return e;
}

void Scheduler::heap_drop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

const Scheduler::Entry* Scheduler::peek_next() {
  for (;;) {
    const Entry* w = wheel_front_entry();
    const Entry* h = heap_.empty() ? nullptr : &heap_.front();
    bool from_wheel;
    if (w != nullptr && h != nullptr) {
      // Same (time, seq) key the heap comparator uses; seqs are unique,
      // so the order is total and FIFO at equal timestamps.
      from_wheel =
          w->time < h->time || (w->time == h->time && w->seq < h->seq);
    } else if (w != nullptr) {
      from_wheel = true;
    } else if (h != nullptr) {
      from_wheel = false;
    } else {
      return nullptr;
    }
    const Entry* best = from_wheel ? w : h;
    if (is_live(*best)) {
      next_from_wheel_ = from_wheel;
      return best;
    }
    // A stale entry surfacing as the global minimum: drop it now,
    // exactly when the single-heap implementation would have popped it.
    --stale_;
    if (from_wheel) {
      wheel_pop_front();
    } else {
      heap_drop_top();
    }
  }
}

void Scheduler::execute_next() {
  Entry e;
  if (next_from_wheel_) {
    e = wheel_pop_front();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    e = heap_.back();
    heap_.pop_back();
  }
  assert(e.time >= now_);
  now_ = e.time;
  --live_count_;
  ++executed_;
  const std::uint32_t idx = e.slot & ~kSmallSlotBit;
  // Move the callback out before recycling the slot: a callback
  // scheduled from inside cb() may reuse the slot immediately.
  if (e.slot & kSmallSlotBit) {
    SmallCallback cb = std::move(small_.cbs[idx]);
    retire(e);
    cb();
  } else {
    Callback cb = std::move(large_.cbs[idx]);
    retire(e);
    cb();
  }
}

bool Scheduler::step() {
  if (peek_next() == nullptr) return false;
  execute_next();
  return true;
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Scheduler::run_until(TimePs t) {
  stopped_ = false;
  while (!stopped_) {
    // Peek through cancelled entries to find the next live event; leave
    // it in place when not yet due so its EventId stays valid.
    const Entry* next = peek_next();
    if (next == nullptr || next->time > t) break;
    execute_next();
  }
  if (now_ < t) now_ = t;
}

}  // namespace hwatch::sim
