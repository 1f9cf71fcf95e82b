// Sharding a single large fabric for conservative-lookahead parallel
// simulation.
//
// The partition is a pure function of the topology shape, never of the
// worker-thread count: each edge switch and its hosts form one shard,
// the aggregation switches of a pod are spread across that pod's edge
// shards, and core switches round-robin across all shards.  Every
// inter-switch link whose endpoints land in different shards becomes a
// pair of unidirectional cross-shard links: the link (queue + serializer)
// lives on the sender's SimContext, and completed transmissions are
// pushed into the destination shard's CrossShardChannel stamped with
// their arrival time.  The minimum cross-shard propagation delay is the
// lookahead that bounds the ShardGroup sync window.
//
// Because the logical partition is fixed, HWATCH_SHARDS (the worker
// thread count) cannot change which context owns which event — the
// basis of the byte-identical-manifest invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"
#include "topo/fat_tree.hpp"

namespace hwatch::topo {

/// Logical shard assignment for a k-ary fat-tree: shard count equals the
/// edge-switch count E = k*(k/2); edge switch (pod p, index e) and its
/// hosts map to shard p*(k/2)+e, aggregation (pod p, index a) to shard
/// p*(k/2)+a, and core c to shard c % E.  Validates shape via
/// fat_tree_hosts_per_edge (throws std::invalid_argument naming the bad
/// parameter).
struct FatTreeShardPlan {
  std::uint32_t k = 0;
  std::uint32_t hosts_per_edge = 0;
  std::uint32_t shard_count = 0;  // = k * (k/2), one per edge switch

  /// agg_shard[pod*(k/2)+a] = owning shard of aggregation switch a of pod.
  std::vector<std::uint32_t> agg_shard;
  /// core_shard[c] = owning shard of core switch c.
  std::vector<std::uint32_t> core_shard;

  std::uint32_t shard_of_edge(std::uint32_t pod, std::uint32_t e) const {
    return pod * (k / 2) + e;
  }
};

FatTreeShardPlan partition_fat_tree(std::uint32_t k, std::uint32_t hosts = 0);

/// Leaf-spine partition: one shard per rack (leaf r and its hosts ->
/// shard r), spines round-robin across rack shards.
struct LeafSpineShardPlan {
  std::uint32_t shard_count = 0;           // = racks
  std::vector<std::uint32_t> spine_shard;  // spine s -> shard s % racks
};

LeafSpineShardPlan partition_leaf_spine(std::uint32_t racks,
                                        std::uint32_t spines);

struct ShardedFatTreeConfig {
  std::uint32_t k = 8;      // must be even and >= 2
  std::uint32_t hosts = 0;  // total hosts; 0 = classic k^3/4
  sim::DataRate link_rate = sim::DataRate::gbps(10);
  sim::TimePs base_rtt = sim::microseconds(100);
  net::QdiscFactory qdisc;  // used on every port
  std::uint64_t seed = 1;   // base seed; each shard derives its own
  /// Items each cross-shard inbox holds before a push spills to its
  /// overflow vector (rounded up to a power of two, at most
  /// net::ShardInbox::kMaxCapacity).  A logical bound, not a
  /// reservation: a ring's storage grows on the producer side with the
  /// deepest window it has carried, so a large value costs nothing on
  /// links that stay shallow.
  std::size_t inbox_capacity = 1024;
};

/// A fat-tree instantiated as one SimContext + Network per shard.  Node
/// ids are one global space sliced contiguously per shard (layout within
/// a shard: hosts, edge, agg, owned core if any), so FlowKeys and routes
/// stay meaningful across shard boundaries.  Packet uids are striped
/// (shard s stamps uids starting at s<<48) so the cross-shard drain
/// order (deliver_time, uid) is total.
struct ShardedFatTree {
  struct Shard {
    std::unique_ptr<sim::SimContext> ctx;
    std::unique_ptr<net::Network> net;
    std::vector<net::Host*> hosts;  // ascending id
    net::Switch* edge = nullptr;
    net::Switch* agg = nullptr;   // the one aggregation this shard owns
    net::Switch* core = nullptr;  // owned core, or nullptr (shards >= (k/2)^2)
    /// Channels delivering INTO this shard, fixed creation order; drain
    /// with net::drain_cross_shard_channels(ingress, scratch) at every
    /// window start.
    std::vector<net::CrossShardChannel*> ingress;
    std::vector<std::unique_ptr<net::CrossShardChannel>> channels;  // owners
  };

  FatTreeShardPlan plan;
  std::vector<Shard> shards;
  std::vector<net::Host*> hosts;  // global pod-major host list
  /// Minimum cross-shard propagation delay = the conservative sync
  /// window: events a shard runs in (T, T+lookahead] cannot be affected
  /// by remote packets sent after T.
  sim::TimePs lookahead = 0;
  std::uint64_t cross_links = 0;  // directed cross-shard links
};

/// Builds the sharded fabric with structural routes (no global BFS):
/// edge switches hold exact routes for their hosts plus default ECMP
/// uplinks; aggregation and core switches hold per-edge-shard host-range
/// routes.  Throws std::invalid_argument (naming the parameter) on
/// invalid shape, missing qdisc, a base_rtt too small to yield a
/// positive per-link delay, or an inbox_capacity above
/// net::ShardInbox::kMaxCapacity.
ShardedFatTree build_sharded_fat_tree(const ShardedFatTreeConfig& cfg);

}  // namespace hwatch::topo
