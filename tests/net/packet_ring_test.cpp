// PacketRing, the qdisc / flight-train FIFO: storage follows use (none
// before the first packet, one 8-slot block, 16 slots, then the owner's
// bound or doubling), and positional insert/erase keep FIFO order across
// a wrapped head and across a growth.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "net/packet_ring.hpp"

namespace hwatch::net {
namespace {

Packet make_packet(std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  return p;
}

std::vector<std::uint64_t> uids_of(const PacketRing& r) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < r.size(); ++i) out.push_back(r.at(i).uid);
  return out;
}

/// Every capacity `r` takes while `n` packets are pushed, in order.
std::vector<std::size_t> capacity_steps(PacketRing& r, std::uint64_t n) {
  std::vector<std::size_t> steps;
  for (std::uint64_t i = 0; i < n; ++i) {
    r.push_back(make_packet(i));
    if (steps.empty() || steps.back() != r.capacity()) {
      steps.push_back(r.capacity());
    }
  }
  return steps;
}

TEST(PacketRingTest, BoundedRingDoublesOnceThenJumpsToItsBound) {
  PacketRing r(250);
  EXPECT_EQ(r.capacity(), 0u);  // nothing reserved up front
  r.push_back(make_packet(0));
  EXPECT_EQ(r.capacity(), 8u);
  for (std::uint64_t i = 1; i < 8; ++i) r.push_back(make_packet(i));
  EXPECT_EQ(r.capacity(), 8u);
  r.push_back(make_packet(8));  // the 9th packet
  EXPECT_EQ(r.capacity(), 16u);
  for (std::uint64_t i = 9; i < 16; ++i) r.push_back(make_packet(i));
  EXPECT_EQ(r.capacity(), 16u);
  r.push_back(make_packet(16));  // the 17th packet
  EXPECT_EQ(r.capacity(), 256u);
  for (std::uint64_t i = 17; i < 250; ++i) {
    r.push_back(make_packet(i));
    ASSERT_EQ(r.capacity(), 256u) << "grew again at packet " << i + 1;
  }
  // Churn at the bound never reallocates either.
  for (std::uint64_t i = 250; i < 1000; ++i) {
    EXPECT_EQ(r.pop_front().uid, i - 250);
    r.push_back(make_packet(i));
  }
  EXPECT_EQ(r.capacity(), 256u);
  EXPECT_EQ(r.size(), 250u);

  PacketRing again(250);
  EXPECT_EQ(capacity_steps(again, 250),
            (std::vector<std::size_t>{8, 16, 256}));
  // A bound of 16 fits the second block; one past it still jumps, to
  // its own power of two.
  PacketRing sixteen(16);
  EXPECT_EQ(capacity_steps(sixteen, 16), (std::vector<std::size_t>{8, 16}));
  PacketRing seventeen(17);
  EXPECT_EQ(capacity_steps(seventeen, 17),
            (std::vector<std::size_t>{8, 16, 32}));
}

TEST(PacketRingTest, UnboundedRingDoubles) {
  PacketRing r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(capacity_steps(r, 64),
            (std::vector<std::size_t>{8, 16, 32, 64}));
}

TEST(PacketRingTest, SmallBoundStaysInTheFirstBlock) {
  PacketRing r(8);
  EXPECT_EQ(capacity_steps(r, 8), (std::vector<std::size_t>{8}));
}

TEST(PacketRingTest, HugeBoundJumpIsCapped) {
  PacketRing r(std::size_t{1} << 40);
  for (std::uint64_t i = 0; i < 17; ++i) r.push_back(make_packet(i));
  EXPECT_EQ(r.capacity(), 65536u);
}

TEST(PacketRingTest, InsertAndEraseKeepOrderAcrossAWrap) {
  PacketRing r;
  for (std::uint64_t i = 0; i < 16; ++i) r.push_back(make_packet(i));
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(r.pop_front().uid, i);
  // Head at slot 10; these wrap past slot 15 into the front slots.
  for (std::uint64_t i = 16; i < 24; ++i) r.push_back(make_packet(i));
  ASSERT_EQ(r.capacity(), 16u);
  std::deque<std::uint64_t> model;
  for (std::uint64_t i = 10; i < 24; ++i) model.push_back(i);

  r.insert(2, make_packet(100));  // head side shifts down across slot 0
  model.insert(model.begin() + 2, 100);
  r.insert(12, make_packet(101));  // tail side shifts up
  model.insert(model.begin() + 12, 101);
  r.erase(1);
  model.erase(model.begin() + 1);
  r.erase(13);
  model.erase(model.begin() + 13);
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(uids_of(r),
            std::vector<std::uint64_t>(model.begin(), model.end()));
}

TEST(PacketRingTest, InsertIntoAFullWrappedRingGrowsInOrder) {
  for (const std::size_t pos : {std::size_t{0}, std::size_t{5},
                                std::size_t{16}}) {
    PacketRing r(250);
    for (std::uint64_t i = 0; i < 16; ++i) r.push_back(make_packet(i));
    for (std::uint64_t i = 0; i < 7; ++i) r.pop_front();
    for (std::uint64_t i = 16; i < 23; ++i) r.push_back(make_packet(i));
    ASSERT_EQ(r.size(), 16u);  // full, head wrapped to slot 7
    ASSERT_EQ(r.capacity(), 16u);
    std::deque<std::uint64_t> model;
    for (std::uint64_t i = 7; i < 23; ++i) model.push_back(i);

    r.insert(pos, make_packet(100));
    model.insert(model.begin() + static_cast<std::ptrdiff_t>(pos), 100);
    EXPECT_EQ(r.capacity(), 256u);
    EXPECT_EQ(uids_of(r),
              std::vector<std::uint64_t>(model.begin(), model.end()))
        << "insert at " << pos;
    r.erase(3);
    model.erase(model.begin() + 3);
    EXPECT_EQ(uids_of(r),
              std::vector<std::uint64_t>(model.begin(), model.end()));
  }
}

// Differential check against std::deque over a long mixed sequence that
// wraps and grows repeatedly (deterministic LCG, no simulator RNG).
TEST(PacketRingTest, MatchesDequeUnderMixedOperations) {
  for (const std::size_t bound : {PacketRing::kUnbounded, std::size_t{250}}) {
    PacketRing r = bound == PacketRing::kUnbounded ? PacketRing()
                                                   : PacketRing(bound);
    std::deque<std::uint64_t> model;
    std::uint64_t x = 12345;
    std::uint64_t next_uid = 0;
    for (int step = 0; step < 20'000; ++step) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t op = (x >> 33) % 8;
      const std::uint64_t pick = x >> 40;
      if (op < 3 && model.size() < 250) {
        r.push_back(make_packet(next_uid));
        model.push_back(next_uid++);
      } else if (op < 5 && !model.empty()) {
        ASSERT_EQ(r.pop_front().uid, model.front());
        model.pop_front();
      } else if (op < 7 && model.size() < 250) {
        const std::size_t pos = pick % (model.size() + 1);
        r.insert(pos, make_packet(next_uid));
        model.insert(model.begin() + static_cast<std::ptrdiff_t>(pos),
                     next_uid++);
      } else if (!model.empty()) {
        const std::size_t pos = pick % model.size();
        r.erase(pos);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      ASSERT_EQ(r.size(), model.size());
      if (!model.empty()) {
        ASSERT_EQ(r.front().uid, model.front());
        ASSERT_EQ(r.back().uid, model.back());
      }
    }
    EXPECT_EQ(uids_of(r),
              std::vector<std::uint64_t>(model.begin(), model.end()));
    if (bound == 250) {
      EXPECT_EQ(r.capacity(), 256u);
    }
  }
}

}  // namespace
}  // namespace hwatch::net
