// Fat-tree/leaf-spine shard partitioning and the sharded fabric builder:
// the logical partition is a pure function of the topology shape, node
// ids slice one global space, and a packet crossing shard boundaries
// reaches its destination through the conservative drain/run protocol.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/shard_channel.hpp"
#include "topo/fat_tree.hpp"
#include "topo/shard.hpp"

namespace hwatch::topo {
namespace {

net::QdiscFactory q() { return net::make_droptail_factory(256); }

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(FatTreeValidation, HostsPerEdgeShapes) {
  EXPECT_EQ(fat_tree_hosts_per_edge(4, 0), 2u);   // classic k^3/4
  EXPECT_EQ(fat_tree_hosts_per_edge(8, 0), 4u);
  EXPECT_EQ(fat_tree_hosts_per_edge(4, 32), 4u);  // 32 over 8 edges
  EXPECT_EQ(fat_tree_hosts_per_edge(16, 10240), 80u);  // the 10k config
}

TEST(FatTreeValidation, ErrorsNameTheParameter) {
  const std::string odd = thrown_message([] { fat_tree_hosts_per_edge(3, 0); });
  EXPECT_NE(odd.find("FatTreeConfig.k"), std::string::npos) << odd;
  const std::string zero =
      thrown_message([] { fat_tree_hosts_per_edge(0, 0); });
  EXPECT_NE(zero.find("FatTreeConfig.k"), std::string::npos) << zero;
  const std::string uneven =
      thrown_message([] { fat_tree_hosts_per_edge(4, 10); });
  EXPECT_NE(uneven.find("FatTreeConfig.hosts"), std::string::npos) << uneven;
}

TEST(ShardPlanTest, FatTreePartitionShapes) {
  const FatTreeShardPlan plan = partition_fat_tree(4);
  EXPECT_EQ(plan.k, 4u);
  EXPECT_EQ(plan.hosts_per_edge, 2u);
  EXPECT_EQ(plan.shard_count, 8u);  // one per edge switch
  ASSERT_EQ(plan.agg_shard.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.agg_shard[i], i);  // agg a of pod p -> pod's shard a
  }
  // (k/2)^2 = 4 cores round-robin over 8 shards: identity here.
  ASSERT_EQ(plan.core_shard.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(plan.core_shard[c], c);
  }
  EXPECT_EQ(plan.shard_of_edge(3, 1), 7u);
  EXPECT_THROW(partition_fat_tree(5), std::invalid_argument);
  EXPECT_THROW(partition_fat_tree(4, 7), std::invalid_argument);
}

TEST(ShardPlanTest, LeafSpineRoundRobin) {
  const LeafSpineShardPlan plan = partition_leaf_spine(4, 6);
  EXPECT_EQ(plan.shard_count, 4u);
  ASSERT_EQ(plan.spine_shard.size(), 6u);
  const std::vector<std::uint32_t> expect = {0, 1, 2, 3, 0, 1};
  EXPECT_EQ(plan.spine_shard, expect);
  EXPECT_THROW(partition_leaf_spine(0, 2), std::invalid_argument);
}

TEST(ShardedFatTreeTest, BuildsGlobalIdSlices) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  const ShardedFatTree t = build_sharded_fat_tree(cfg);
  ASSERT_EQ(t.shards.size(), 8u);
  ASSERT_EQ(t.hosts.size(), 16u);
  EXPECT_EQ(t.lookahead, cfg.base_rtt / 12);
  EXPECT_GT(t.cross_links, 0u);

  net::NodeId expect_base = 0;
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    const auto& shard = t.shards[s];
    EXPECT_EQ(shard.net->id_base(), expect_base) << "shard " << s;
    ASSERT_EQ(shard.hosts.size(), 2u);
    EXPECT_EQ(shard.hosts[0]->id(), expect_base);
    ASSERT_NE(shard.edge, nullptr);
    ASSERT_NE(shard.agg, nullptr);
    EXPECT_EQ(shard.edge->id(), expect_base + 2);
    // Cores live on the first (k/2)^2 = 4 shards only.
    if (s < 4) {
      ASSERT_NE(shard.core, nullptr);
    } else {
      EXPECT_EQ(shard.core, nullptr);
    }
    EXPECT_FALSE(shard.ingress.empty());
    expect_base = shard.net->id_end();
  }
  // The global host list ascends (pod-major, shard-major slices).
  for (std::size_t i = 1; i < t.hosts.size(); ++i) {
    EXPECT_LT(t.hosts[i - 1]->id(), t.hosts[i]->id());
  }
}

TEST(ShardedFatTreeTest, CrossShardPacketDelivery) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  ShardedFatTree t = build_sharded_fat_tree(cfg);
  net::Host* src = t.hosts.front();  // shard 0, pod 0
  net::Host* dst = t.hosts.back();   // shard 7, pod 3
  bool arrived = false;
  const std::uint16_t port = 60000;
  dst->bind(port, [&](net::Packet&&) { arrived = true; });
  net::Packet p;
  p.uid = t.shards[0].ctx->next_packet_uid();
  p.ip.src = src->id();
  p.ip.dst = dst->id();
  p.tcp.dst_port = port;
  src->send(std::move(p));

  // Hand-rolled conservative loop: drain every shard's ingress, then run
  // each shard one lookahead window — exactly what ShardGroup automates.
  std::vector<std::pair<net::Node*, net::ShardInbox::Item>> scratch;
  for (sim::TimePs end = t.lookahead;
       end < sim::milliseconds(1) && !arrived; end += t.lookahead) {
    for (auto& shard : t.shards) {
      net::drain_cross_shard_channels(shard.ingress, scratch);
    }
    for (auto& shard : t.shards) {
      shard.ctx->scheduler().run_until(end);
    }
  }
  EXPECT_TRUE(arrived);
}

TEST(ShardedFatTreeTest, RejectsBadConfig) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  EXPECT_THROW(build_sharded_fat_tree(cfg), std::invalid_argument);  // qdisc
  cfg.qdisc = q();
  cfg.base_rtt = 6;  // 6 ps / 12 links rounds to a zero-width window
  const std::string msg =
      thrown_message([&] { build_sharded_fat_tree(cfg); });
  EXPECT_NE(msg.find("base_rtt"), std::string::npos) << msg;
  cfg.base_rtt = sim::microseconds(100);
  cfg.k = 3;
  EXPECT_THROW(build_sharded_fat_tree(cfg), std::invalid_argument);
}

TEST(ShardedFatTreeTest, RejectsAnInboxCapacityNoRingCanHold) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  cfg.inbox_capacity = SIZE_MAX;  // no power of two >= this fits
  const std::string msg =
      thrown_message([&] { build_sharded_fat_tree(cfg); });
  EXPECT_NE(msg.find("ShardedFatTreeConfig.inbox_capacity"),
            std::string::npos)
      << msg;
  cfg.inbox_capacity = net::ShardInbox::kMaxCapacity;  // logical only
  EXPECT_EQ(build_sharded_fat_tree(cfg).shards[0].ingress[0]->inbox()
                .capacity(),
            net::ShardInbox::kMaxCapacity);
}

// The 10,240-host k=16 fabric of bench/fig_fatree_scale: before the
// first event no qdisc ring and no cross-shard inbox holds storage.
// Reserved to their caps they would be 24,576 x 256 packet slots plus
// 3,824 x 1,024 inbox slots — over 1 GiB resident before the run.
TEST(ShardedFatTreeTest, K16FabricReservesNoRingsBeforeTheFirstEvent) {
  ShardedFatTreeConfig cfg;
  cfg.k = 16;
  cfg.hosts = 10240;
  cfg.qdisc = net::make_dctcp_factory(250, 65);
  const ShardedFatTree t = build_sharded_fat_tree(cfg);
  std::size_t qdiscs = 0;
  std::size_t qdisc_slots = 0;
  std::size_t inboxes = 0;
  std::size_t inbox_slots = 0;
  for (const ShardedFatTree::Shard& sh : t.shards) {
    for (const auto& link : sh.net->links()) {
      ++qdiscs;
      qdisc_slots += link->qdisc().ring_slots();
    }
    for (const auto& ch : sh.channels) {
      ++inboxes;
      inbox_slots += ch->inbox().ring_slots();
      EXPECT_EQ(ch->inbox().capacity(), 1024u);
    }
  }
  EXPECT_EQ(qdiscs, 24'576u);
  EXPECT_EQ(inboxes, 3'824u);
  EXPECT_EQ(t.cross_links, 3'824u);
  EXPECT_EQ(qdisc_slots, 0u);
  EXPECT_EQ(inbox_slots, 0u);
}

TEST(ShardedFatTreeTest, PacketUidsAreStripedPerShard) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  const ShardedFatTree t = build_sharded_fat_tree(cfg);
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    EXPECT_EQ(t.shards[s].ctx->next_packet_uid(),
              (static_cast<std::uint64_t>(s) << 48) + 1)
        << "shard " << s;
  }
}

}  // namespace
}  // namespace hwatch::topo
