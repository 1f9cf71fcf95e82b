// Growable ring buffer of Packets — the qdisc FIFO storage.
//
// Replaces std::deque<Packet>, whose libstdc++ implementation allocates
// and frees a 512-byte node roughly every three packets even when the
// queue depth is steady — exactly the churn the allocation-free hot
// path forbids.  The ring grows (power-of-two capacity, index masking)
// and never shrinks, so once a queue has seen its peak depth every
// enqueue/dequeue is allocation-free.
//
// Storage follows use, not the cap: a ring holds nothing until its
// first packet, then one kMinCapacity block.  An unbounded ring (link
// flight trains, byte-bounded qdiscs, the shim's SYN-ACK queue) doubles
// from there.  A ring that knows its owner's packet bound jumps
// straight to that bound the first time it outgrows the first block, so
// a busy queue reallocates once, early, and never again — no 64 -> 128
// step lands in a steady state.
//
// Beyond push_back/pop_front it supports the two operations the
// priority band logic needs: insert at a logical position (urgent
// packets slot in behind the queued high-class ones) and erase at a
// logical position (best-effort tail eviction).  Both shift the smaller
// side, so they stay O(min(pos, size-pos)) like a deque insert.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace hwatch::net {

class PacketRing {
 public:
  static constexpr std::size_t kUnbounded = SIZE_MAX;

  PacketRing() = default;
  /// A ring that never holds more than `bound` packets (a qdisc's hard
  /// packet bound).  Its second allocation is the bound rounded up to a
  /// power of two, capped at kMaxJump so a pathological bound can't
  /// balloon memory; past that it doubles like an unbounded ring.
  explicit PacketRing(std::size_t bound) : bound_(bound) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Element at logical position `i` (0 = head / next to dequeue).
  Packet& at(std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  const Packet& at(std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  Packet& front() { return at(0); }
  const Packet& front() const { return at(0); }
  Packet& back() { return at(size_ - 1); }
  const Packet& back() const { return at(size_ - 1); }

  void push_back(Packet&& p) {
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = std::move(p);
    ++size_;
  }

  Packet pop_front() {
    assert(size_ > 0);
    Packet p = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return p;
  }

  /// Inserts at logical position `pos` (0..size), shifting the smaller
  /// side of the ring by one slot.
  void insert(std::size_t pos, Packet&& p) {
    assert(pos <= size_);
    if (size_ == slots_.size()) grow();
    if (pos * 2 <= size_) {
      // Shift the head side down one slot (towards head-1).
      head_ = wrap(head_ + slots_.size() - 1);
      for (std::size_t i = 0; i < pos; ++i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i + 1)]);
      }
    } else {
      // Shift the tail side up one slot.
      for (std::size_t i = size_; i > pos; --i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i - 1)]);
      }
    }
    ++size_;
    slots_[wrap(head_ + pos)] = std::move(p);
  }

  /// Erases the element at logical position `pos`, shifting the smaller
  /// side of the ring by one slot.
  void erase(std::size_t pos) {
    assert(pos < size_);
    if (pos * 2 <= size_) {
      // Shift the head side up one slot (towards the erased hole).
      for (std::size_t i = pos; i > 0; --i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i - 1)]);
      }
      head_ = wrap(head_ + 1);
    } else {
      for (std::size_t i = pos; i + 1 < size_; ++i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i + 1)]);
      }
    }
    --size_;
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t c = kMinCapacity;
    while (c < n) c <<= 1;
    return c;
  }

  void grow() {
    if (slots_.empty()) {
      rebuild(kMinCapacity);
    } else if (slots_.size() == kMinCapacity && bound_ != kUnbounded &&
               bound_ > kMinCapacity) {
      rebuild(round_up_pow2(std::min(bound_, kMaxJump)));
    } else {
      rebuild(slots_.size() * 2);
    }
  }

  void rebuild(std::size_t new_capacity) {
    std::vector<Packet> next(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[wrap(head_ + i)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxJump = 65536;

  std::size_t bound_ = kUnbounded;
  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hwatch::net
