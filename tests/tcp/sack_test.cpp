// SACK (RFC 2018): interval-set mechanics, sink advertisement, sender
// scoreboard and selective retransmission.
#include <gtest/gtest.h>

#include <set>

#include "hwatch/shim.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/tcp_test_util.hpp"
#include "tcp/connection.hpp"

namespace hwatch::tcp {
namespace {

// -------------------------------------------------------- IntervalSet

TEST(IntervalSetTest, InsertAndMerge) {
  IntervalSet s;
  EXPECT_EQ(s.insert(10, 20), 10u);
  EXPECT_EQ(s.insert(30, 40), 10u);
  EXPECT_EQ(s.size(), 2u);
  // Bridge the gap: merges all three.
  EXPECT_EQ(s.insert(20, 30), 10u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.covered_bytes(), 30u);
}

TEST(IntervalSetTest, OverlapCountsNewBytesOnly) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_EQ(s.insert(15, 25), 5u);
  EXPECT_EQ(s.insert(5, 30), 10u);
  EXPECT_EQ(s.insert(5, 30), 0u);
  EXPECT_EQ(s.covered_bytes(), 25u);
}

TEST(IntervalSetTest, EmptyInsertIsNoop) {
  IntervalSet s;
  EXPECT_EQ(s.insert(10, 10), 0u);
  EXPECT_EQ(s.insert(10, 5), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, ContainsAndIntervalContaining) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(19));
  EXPECT_FALSE(s.contains(20));
  auto blk = s.interval_containing(15);
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk->start, 10u);
  EXPECT_EQ(blk->end, 20u);
  EXPECT_FALSE(s.interval_containing(25).has_value());
}

TEST(IntervalSetTest, NextUncoveredAndGapEnd) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  EXPECT_EQ(s.next_uncovered(5), 5u);
  EXPECT_EQ(s.next_uncovered(10), 20u);
  EXPECT_EQ(s.next_uncovered(15), 20u);
  EXPECT_EQ(s.gap_end(20, 100), 30u);
  EXPECT_EQ(s.gap_end(40, 100), 100u);
}

TEST(IntervalSetTest, EraseBelowTrimsStraddlers) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  s.erase_below(15);
  EXPECT_FALSE(s.contains(12));
  EXPECT_TRUE(s.contains(15));
  EXPECT_EQ(s.covered_bytes(), 15u);
  s.erase_below(40);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, RandomizedSelfConsistency) {
  IntervalSet s;
  std::set<std::uint64_t> reference;
  std::uint64_t x = 7;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ull + 1;
    const std::uint64_t a = x % 500;
    const std::uint64_t b = a + 1 + x % 37;
    s.insert(a, b);
    for (std::uint64_t v = a; v < b; ++v) reference.insert(v);
  }
  EXPECT_EQ(s.covered_bytes(), reference.size());
  for (std::uint64_t v = 0; v < 560; ++v) {
    EXPECT_EQ(s.contains(v), reference.contains(v)) << v;
  }
}

// ------------------------------------------------------- end to end

using testutil::TwoHostNet;

TcpConfig sack_cfg(bool sack = true) {
  TcpConfig c;
  c.min_rto = sim::milliseconds(200);
  c.initial_rto = sim::milliseconds(200);
  c.ecn = EcnMode::kNone;
  c.sack = sack;
  c.initial_cwnd_segments = 10;
  return c;
}

/// Drops a set of data-segment indices (first transmission only).
class DropIndices final : public net::PacketFilter {
 public:
  explicit DropIndices(std::set<int> indices) : drop_(std::move(indices)) {}
  net::FilterVerdict on_outbound(net::Packet& p) override {
    if (!p.is_data()) return net::FilterVerdict::kPass;
    if (first_tx_.insert(p.tcp.seq).second) {
      if (drop_.contains(static_cast<int>(first_tx_.size()))) {
        return net::FilterVerdict::kDrop;
      }
    }
    return net::FilterVerdict::kPass;
  }
  net::FilterVerdict on_inbound(net::Packet&) override {
    return net::FilterVerdict::kPass;
  }

 private:
  std::set<int> drop_;
  std::set<std::uint64_t> first_tx_;
};

/// Records ACK headers arriving back at the sender host.
class AckTap final : public net::PacketFilter {
 public:
  net::FilterVerdict on_outbound(net::Packet&) override {
    return net::FilterVerdict::kPass;
  }
  net::FilterVerdict on_inbound(net::Packet& p) override {
    if (p.is_pure_ack()) acks.push_back(p);
    return net::FilterVerdict::kPass;
  }
  std::vector<net::Packet> acks;
};

TEST(SackTest, NegotiatedOnlyWhenBothEndsEnable) {
  TwoHostNet h;
  AckTap tap;
  h.a->install_filter(&tap);
  TcpConnection conn(h.net, *h.a, *h.b, 1000, 80, Transport::kNewReno,
                     sack_cfg(true));
  conn.start(5 * 1442);
  h.sched.run_until(sim::milliseconds(50));
  // Clean path: no out-of-order data, so no SACK blocks ever appear.
  for (const auto& a : tap.acks) EXPECT_EQ(a.tcp.sack_count, 0);
}

TEST(SackTest, SinkAdvertisesHoles) {
  TwoHostNet h;
  AckTap tap;
  h.a->install_filter(&tap);
  DropIndices filter({2});
  h.a->install_filter(&filter);
  TcpConnection conn(h.net, *h.a, *h.b, 1000, 80, Transport::kNewReno,
                     sack_cfg());
  conn.start(6 * 1442);
  h.sched.run_until(sim::seconds(2));
  EXPECT_EQ(conn.sender().state(), SenderState::kClosed);
  // Some dupacks carried SACK blocks describing data above the hole.
  bool saw_block = false;
  for (const auto& a : tap.acks) {
    if (a.tcp.sack_count > 0) {
      saw_block = true;
      const net::SackBlock b = a.tcp.sack_block(0);
      EXPECT_GT(b.start, a.tcp.ack);
      EXPECT_GT(b.end, b.start);
    }
  }
  EXPECT_TRUE(saw_block);
}

TEST(SackTest, MultiLossRecoversInOneRttInsteadOfOnePerHole) {
  // Drop three spread-out segments of one window.  NewReno needs one
  // partial-ACK round trip per hole; SACK retransmits the later holes
  // on dupacks within the same RTT.
  auto run = [](bool sack) {
    TwoHostNet h;
    auto cfg = sack_cfg(sack);
    cfg.initial_cwnd_segments = 16;
    DropIndices filter({3, 7, 11});
    h.a->install_filter(&filter);
    TcpConnection conn(h.net, *h.a, *h.b, 1000, 80, Transport::kNewReno,
                       cfg);
    conn.start(16 * cfg.mss);
    h.sched.run_until(sim::seconds(2));
    EXPECT_EQ(conn.sender().state(), SenderState::kClosed);
    EXPECT_EQ(conn.sink().stats().bytes_received, 16u * cfg.mss);
    EXPECT_EQ(conn.sender().stats().timeouts, 0u);
    return conn.sender().fct();
  };
  const auto reno_fct = run(false);
  const auto sack_fct = run(true);
  EXPECT_LT(sack_fct, reno_fct);
}

TEST(SackTest, NoDuplicateDataRetransmitted) {
  // With SACK the sender must not re-send bytes the receiver already
  // holds: total segments sent stays close to the minimum.
  auto run = [](bool sack) {
    TwoHostNet h;
    auto cfg = sack_cfg(sack);
    cfg.initial_cwnd_segments = 16;
    DropIndices filter({3, 7, 11});
    h.a->install_filter(&filter);
    TcpConnection conn(h.net, *h.a, *h.b, 1000, 80, Transport::kNewReno,
                       cfg);
    conn.start(16 * cfg.mss);
    h.sched.run_until(sim::seconds(2));
    return conn.sink().stats().duplicate_segments;
  };
  EXPECT_LE(run(true), run(false));
}

TEST(SackTest, InteropWithNonSackPeer) {
  // Sender offers SACK, sink refuses: everything falls back to NewReno
  // and the transfer still completes after losses.
  TwoHostNet h;
  TcpSink sink(h.net, *h.b, 80, sack_cfg(false));
  auto cfg = sack_cfg(true);
  cfg.initial_cwnd_segments = 16;
  DropIndices filter({3, 7});
  h.a->install_filter(&filter);
  TcpSender sender(h.net, *h.a, 1000, h.b->id(), 80, cfg);
  sender.start(16 * cfg.mss);
  h.sched.run_until(sim::seconds(2));
  EXPECT_EQ(sender.state(), SenderState::kClosed);
  EXPECT_EQ(sink.stats().bytes_received, 16u * cfg.mss);
}

TEST(SackTest, WorksThroughHWatchShim) {
  // The shim rewrites rwnd on ACKs that may carry SACK blocks; the
  // incremental checksum fix-up and the blocks must coexist.
  TwoHostNet h;
  hwatch::sim::Rng rng(21);
  hwatch::core::HWatchConfig hw;
  hw.probe_span = sim::microseconds(20);
  auto shim_a = hwatch::core::install_hwatch(h.net, *h.a, hw, rng.fork());
  auto shim_b = hwatch::core::install_hwatch(h.net, *h.b, hw, rng.fork());
  auto cfg = sack_cfg(true);
  cfg.initial_cwnd_segments = 16;
  DropIndices filter({5});
  h.a->install_filter(&filter);
  TcpConnection conn(h.net, *h.a, *h.b, 1000, 80, Transport::kNewReno,
                     cfg);
  conn.start(16 * cfg.mss);
  h.sched.run_until(sim::seconds(2));
  EXPECT_EQ(conn.sender().state(), SenderState::kClosed);
  EXPECT_EQ(conn.sink().stats().bytes_received, 16u * cfg.mss);
  EXPECT_EQ(conn.sender().stats().timeouts, 0u);
}

}  // namespace
}  // namespace hwatch::tcp
