// Cross-shard channel plumbing: the SPSC inbox (ring + counted spill
// overflow) and the drain pass that turns a window's haul into local
// scheduler events in (deliver_time, packet uid) order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"

namespace hwatch::net {
namespace {

static_assert(sizeof(ShardInbox::Item) <= 112,
              "an inbox slot is a Packet plus its delivery time");

Packet make_packet(std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  return p;
}

TEST(ShardInboxTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardInbox(1).capacity(), 2u);
  EXPECT_EQ(ShardInbox(2).capacity(), 2u);
  EXPECT_EQ(ShardInbox(3).capacity(), 4u);
  EXPECT_EQ(ShardInbox(4).capacity(), 4u);
  EXPECT_EQ(ShardInbox(1000).capacity(), 1024u);
}

TEST(ShardInboxTest, FreshInboxOwnsNoRingStorage) {
  ShardInbox box(1024);
  EXPECT_EQ(box.capacity(), 1024u);
  EXPECT_EQ(box.ring_slots(), 0u);
  box.push(1, make_packet(0));
  EXPECT_EQ(box.ring_slots(), 16u);  // one first block, not the capacity
  ShardInbox small(4);
  small.push(1, make_packet(0));
  EXPECT_EQ(small.ring_slots(), 4u);  // the first block never exceeds it
}

TEST(ShardInboxTest, HugeCapacityIsLogicalOnly) {
  const std::size_t top = std::size_t{1} << 63;
  ShardInbox box(top);  // would be 2^63 items if reserved
  EXPECT_EQ(box.capacity(), top);
  EXPECT_EQ(box.ring_slots(), 0u);
  EXPECT_EQ(ShardInbox::kMaxCapacity, top);
}

TEST(ShardInboxTest, CapacityBeyondTheLargestRingThrows) {
  EXPECT_THROW(ShardInbox(SIZE_MAX), std::invalid_argument);
  EXPECT_THROW(ShardInbox((std::size_t{1} << 63) + 1), std::invalid_argument);
}

TEST(ShardInboxTest, GrowthWithAWrappedHeadKeepsEveryItem) {
  ShardInbox box(64);
  for (std::uint64_t i = 0; i < 10; ++i) box.push(5, make_packet(i));
  ShardInbox::Item item;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(box.pop(item));
    EXPECT_EQ(item.pkt.uid, i);
  }
  // Items 6..21 fill the 16-slot ring with the head at slot 6, so the
  // 17th pending item grows the ring while it is wrapped — then twice
  // more, up to the logical capacity.
  for (std::uint64_t i = 10; i < 70; ++i) box.push(5, make_packet(i));
  EXPECT_EQ(box.ring_slots(), 64u);
  EXPECT_EQ(box.spilled(), 0u);
  for (std::uint64_t i = 6; i < 70; ++i) {
    ASSERT_TRUE(box.pop(item));
    EXPECT_EQ(item.pkt.uid, i);
  }
  EXPECT_FALSE(box.pop(item));
  EXPECT_EQ(box.popped(), 70u);
}

// The lazily grown ring spills at exactly the pushes a ring pre-sized
// to capacity() would: whenever capacity() items are already queued in
// the ring (spilled items never re-enter it).
TEST(ShardInboxTest, SpillsAtTheSamePushAsAPresizedRing) {
  ShardInbox box(8);
  std::size_t in_ring = 0;  // pop() drains the ring before the spill
  std::uint64_t expect_spilled = 0;
  std::uint64_t uid = 0;
  auto push = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (in_ring == box.capacity()) {
        ++expect_spilled;
      } else {
        ++in_ring;
      }
      box.push(7, make_packet(uid++));
      ASSERT_EQ(box.spilled(), expect_spilled) << "push of uid " << uid - 1;
    }
  };
  auto pop = [&](int n) {
    ShardInbox::Item item;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(box.pop(item));
      if (in_ring > 0) --in_ring;
    }
  };
  push(9);   // 8 fit, the 9th spills
  pop(3);
  push(3);   // back to 8 in the ring
  push(2);   // both spill
  pop(10);   // the ring's 8, then 2 of the 3 spilled
  push(9);   // 8 fit again, the 9th spills
  EXPECT_EQ(box.spilled(), 4u);
  EXPECT_EQ(box.depth(), 10u);
  EXPECT_EQ(box.ring_slots(), 8u);
}

TEST(ShardInboxTest, PushPopRoundTrip) {
  ShardInbox box(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    box.push(static_cast<sim::TimePs>(100 + i), make_packet(i));
  }
  EXPECT_EQ(box.pushed(), 3u);
  EXPECT_EQ(box.spilled(), 0u);
  ShardInbox::Item item;
  // FIFO through the ring.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.pop(item));
    EXPECT_EQ(item.pkt.uid, i);
    EXPECT_EQ(item.deliver_time, static_cast<sim::TimePs>(100 + i));
  }
  EXPECT_FALSE(box.pop(item));
  EXPECT_EQ(box.popped(), 3u);
  EXPECT_TRUE(box.ring_empty());
}

TEST(ShardInboxTest, OverflowSpillsInsteadOfDropping) {
  ShardInbox box(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    box.push(10, make_packet(i));
  }
  EXPECT_EQ(box.pushed(), 7u);
  EXPECT_EQ(box.spilled(), 3u);  // ring holds 4, the rest spill
  std::vector<std::uint64_t> uids;
  ShardInbox::Item item;
  while (box.pop(item)) uids.push_back(item.pkt.uid);
  EXPECT_EQ(uids.size(), 7u);  // every push surfaces exactly once
  EXPECT_EQ(box.popped(), 7u);
  // The ring drains FIFO before the spill; the spill's own order is
  // unspecified (the drain pass sorts), so only check the ring prefix.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(uids[i], i);

  // The ring is usable again after a full drain.
  box.push(11, make_packet(42));
  ASSERT_TRUE(box.pop(item));
  EXPECT_EQ(item.pkt.uid, 42u);
}

TEST(ShardChannelTest, NullDestinationNodeThrows) {
  sim::SimContext ctx;
  EXPECT_THROW(CrossShardChannel(ctx, nullptr), std::invalid_argument);
}

TEST(ShardChannelDrainTest, DeliversSortedByTimeThenUid) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  std::vector<std::pair<sim::TimePs, std::uint64_t>> arrivals;
  const std::uint16_t port = 7;
  h.bind(port, [&](Packet&& p) { arrivals.emplace_back(ctx.now(), p.uid); });

  CrossShardChannel ch(ctx, &h, 8);
  const std::vector<std::pair<sim::TimePs, std::uint64_t>> items = {
      {200, 5}, {100, 9}, {200, 1}, {100, 2}};
  for (auto [t, uid] : items) {
    Packet p = make_packet(uid);
    p.ip.dst = h.id();
    p.tcp.dst_port = port;
    ch.inbox().push(t, std::move(p));
  }

  std::vector<CrossShardChannel*> channels = {&ch};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(channels, scratch);
  EXPECT_TRUE(scratch.empty());  // reusable after the pass
  EXPECT_EQ(ctx.scheduler().pending(), 4u);
  ctx.scheduler().run();

  const std::vector<std::pair<sim::TimePs, std::uint64_t>> expect = {
      {100, 2}, {100, 9}, {200, 1}, {200, 5}};
  EXPECT_EQ(arrivals, expect);
}

TEST(ShardChannelDrainTest, MergesAcrossChannelsAndSpill) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  std::vector<std::uint64_t> arrivals;
  const std::uint16_t port = 7;
  h.bind(port, [&](Packet&& p) { arrivals.push_back(p.uid); });

  // Tiny ring so channel A overflows into its spill vector: the sorted
  // drain order must be identical no matter which path an item took.
  CrossShardChannel a(ctx, &h, 2);
  CrossShardChannel b(ctx, &h, 8);
  auto push = [&](CrossShardChannel& ch, std::uint64_t uid) {
    Packet p = make_packet(uid);
    p.ip.dst = h.id();
    p.tcp.dst_port = port;
    ch.inbox().push(50, std::move(p));
  };
  for (std::uint64_t uid : {9u, 3u, 7u, 1u}) push(a, uid);
  for (std::uint64_t uid : {8u, 2u}) push(b, uid);
  EXPECT_GT(a.inbox().spilled(), 0u);

  std::vector<CrossShardChannel*> channels = {&a, &b};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(channels, scratch);
  ctx.scheduler().run();
  EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{1, 2, 3, 7, 8, 9}));
}

TEST(ShardChannelDrainTest, EmptyDrainIsANoOp) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  CrossShardChannel ch(ctx, &h, 4);
  std::vector<CrossShardChannel*> none;
  std::vector<CrossShardChannel*> empty_channel = {&ch};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(none, scratch);
  drain_cross_shard_channels(empty_channel, scratch);
  EXPECT_EQ(ctx.scheduler().pending(), 0u);
}

}  // namespace
}  // namespace hwatch::net
