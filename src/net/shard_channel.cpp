#include "net/shard_channel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/node.hpp"

namespace hwatch::net {

namespace {

/// First allocation of an inbox ring, in items (capped by capacity()).
constexpr std::size_t kFirstSlots = 16;

std::size_t checked_capacity(std::size_t n) {
  if (n > ShardInbox::kMaxCapacity) {
    throw std::invalid_argument(
        "ShardInbox: capacity " + std::to_string(n) + " exceeds " +
        std::to_string(ShardInbox::kMaxCapacity) +
        ", the largest power-of-two ring");
  }
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ShardInbox::ShardInbox(std::size_t capacity)
    : capacity_(checked_capacity(capacity)) {}

void ShardInbox::grow(std::size_t head, std::size_t tail) {
  const std::size_t slots =
      ring_.empty() ? std::min(kFirstSlots, capacity_) : ring_.size() * 2;
  std::vector<Item> next(slots);
  // head/tail are free-running counters, so an item keeps its index and
  // only its slot (index & mask) moves; the consumer-owned head is not
  // written.
  for (std::size_t i = head; i != tail; ++i) {
    next[i & (slots - 1)] = std::move(ring_[i & mask_]);
  }
  ring_ = std::move(next);
  mask_ = slots - 1;
}

void ShardInbox::push(sim::TimePs deliver_time, Packet&& p) {
  ++pushed_;
  const std::size_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t head = head_.load(std::memory_order_acquire);
  // Depth after this push, counting the overflow spill: the high-water
  // mark behind peak_depth() and the telemetry grow-capacity advice.
  const std::uint64_t depth_after =
      static_cast<std::uint64_t>(tail - head) + spill_.size() + 1;
  if (depth_after > peak_depth_) peak_depth_ = depth_after;
  if (tail - head >= capacity_) {
    // Ring full: spill instead of blocking.  The spill vector is only
    // touched by the producer during run phases and by the consumer
    // during drain phases; the epoch barrier orders the two.
    spill_.push_back(Item{deliver_time, std::move(p)});
    ++spilled_;
    return;
  }
  if (tail - head == ring_.size()) grow(head, tail);
  Item& slot = ring_[tail & mask_];
  slot.deliver_time = deliver_time;
  slot.pkt = std::move(p);
  tail_.store(tail + 1, std::memory_order_release);
}

bool ShardInbox::pop(Item& out) {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  const std::size_t tail = tail_.load(std::memory_order_acquire);
  if (head != tail) {
    out = std::move(ring_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    ++popped_;
    return true;
  }
  if (!spill_.empty()) {
    out = std::move(spill_.back());
    spill_.pop_back();
    ++popped_;
    return true;
  }
  return false;
}

CrossShardChannel::CrossShardChannel(sim::SimContext& dst_ctx,
                                     Node* dst_node, std::size_t capacity)
    : dst_ctx_(dst_ctx), dst_node_(dst_node), inbox_(capacity) {
  if (dst_node_ == nullptr) {
    throw std::invalid_argument("CrossShardChannel: null destination node");
  }
}

void drain_cross_shard_channels(
    std::vector<CrossShardChannel*>& channels,
    std::vector<std::pair<Node*, ShardInbox::Item>>& scratch) {
  scratch.clear();
  for (CrossShardChannel* ch : channels) {
    ShardInbox::Item item;
    while (ch->inbox().pop(item)) {
      scratch.emplace_back(ch->dst_node(), std::move(item));
    }
  }
  if (scratch.empty()) return;
  // Deterministic total order over everything that arrived this window,
  // independent of producing link, ring-vs-spill path, or thread
  // timing: (arrival time, packet uid).  Uids are unique across shards
  // (per-shard striping), so the order is strict.
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) {
              if (a.second.deliver_time != b.second.deliver_time) {
                return a.second.deliver_time < b.second.deliver_time;
              }
              return a.second.pkt.uid < b.second.pkt.uid;
            });
  sim::Scheduler& sched = channels.front()->dst_ctx().scheduler();
  for (auto& [node, item] : scratch) {
    assert(item.deliver_time >= sched.now());
    auto deliver = [node, p = std::move(item.pkt)]() mutable {
      node->handle_packet(std::move(p));
    };
    static_assert(
        sim::Scheduler::Callback::fits_inline<decltype(deliver)>(),
        "cross-shard delivery event must be allocation-free");
    sched.schedule_at(item.deliver_time, std::move(deliver));
  }
  scratch.clear();
}

}  // namespace hwatch::net
