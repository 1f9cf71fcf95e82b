#include "topo/shard.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace hwatch::topo {

namespace {

/// Same splitmix64 mix as api::derive_point_seed (duplicated here so the
/// topo layer stays independent of api): shard s of base seed B always
/// gets the same context seed, on every platform.
std::uint64_t shard_seed(std::uint64_t base_seed, std::uint64_t shard) {
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FatTreeShardPlan partition_fat_tree(std::uint32_t k, std::uint32_t hosts) {
  FatTreeShardPlan plan;
  plan.hosts_per_edge = fat_tree_hosts_per_edge(k, hosts);  // validates k
  plan.k = k;
  const std::uint32_t half = k / 2;
  plan.shard_count = k * half;
  plan.agg_shard.resize(static_cast<std::size_t>(k) * half);
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t a = 0; a < half; ++a) {
      plan.agg_shard[pod * half + a] = pod * half + a;
    }
  }
  plan.core_shard.resize(static_cast<std::size_t>(half) * half);
  for (std::uint32_t c = 0; c < half * half; ++c) {
    plan.core_shard[c] = c % plan.shard_count;
  }
  return plan;
}

LeafSpineShardPlan partition_leaf_spine(std::uint32_t racks,
                                        std::uint32_t spines) {
  if (racks == 0) {
    throw std::invalid_argument(
        "LeafSpineConfig.racks: must be >= 1 to partition");
  }
  LeafSpineShardPlan plan;
  plan.shard_count = racks;
  plan.spine_shard.resize(spines);
  for (std::uint32_t s = 0; s < spines; ++s) plan.spine_shard[s] = s % racks;
  return plan;
}

ShardedFatTree build_sharded_fat_tree(const ShardedFatTreeConfig& cfg) {
  if (!cfg.qdisc) {
    throw std::invalid_argument(
        "ShardedFatTreeConfig.qdisc: a qdisc factory is required");
  }
  ShardedFatTree t;
  t.plan = partition_fat_tree(cfg.k, cfg.hosts);

  const std::uint32_t k = cfg.k;
  const std::uint32_t half = k / 2;
  const std::uint32_t shard_count = t.plan.shard_count;
  const std::uint32_t cores_total = half * half;
  const std::uint32_t hosts_per_edge = t.plan.hosts_per_edge;
  // Same per-link delay as build_fat_tree: the longest path is 6 links
  // one way.  It is also the lookahead, so it must be positive.
  const sim::TimePs per_link = cfg.base_rtt / 12;
  if (per_link <= 0) {
    throw std::invalid_argument(
        "ShardedFatTreeConfig.base_rtt: " + std::to_string(cfg.base_rtt) +
        " ps yields a non-positive per-link delay (base_rtt / 12), which "
        "cannot bound the cross-shard sync window");
  }
  t.lookahead = per_link;
  if (cfg.inbox_capacity > net::ShardInbox::kMaxCapacity) {
    throw std::invalid_argument(
        "ShardedFatTreeConfig.inbox_capacity: " +
        std::to_string(cfg.inbox_capacity) + " exceeds " +
        std::to_string(net::ShardInbox::kMaxCapacity) +
        ", the largest power-of-two inbox ring");
  }

  // --- id layout: one contiguous slice per shard, prefix-summed ---
  std::vector<net::NodeId> base(shard_count);
  net::NodeId next_id = 0;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    base[s] = next_id;
    next_id += hosts_per_edge + 2 + (s < cores_total ? 1 : 0);
  }

  // --- nodes: creation order inside a shard fixes local ids ---
  t.shards.resize(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    ShardedFatTree::Shard& sh = t.shards[s];
    sh.ctx = std::make_unique<sim::SimContext>(shard_seed(cfg.seed, s));
    sh.ctx->set_packet_uid_base(static_cast<std::uint64_t>(s) << 48);
    sh.net = std::make_unique<net::Network>(*sh.ctx, base[s]);
    const std::uint32_t pod = s / half;
    const std::uint32_t e = s % half;
    const std::string prefix = "p" + std::to_string(pod);
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      sh.hosts.push_back(&sh.net->add_host(prefix + "e" + std::to_string(e) +
                                           "h" + std::to_string(h)));
    }
    sh.edge = &sh.net->add_switch(prefix + "edge" + std::to_string(e));
    sh.agg = &sh.net->add_switch(prefix + "agg" + std::to_string(e));
    if (s < cores_total) {
      sh.core = &sh.net->add_switch("core" + std::to_string(s));
    }
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    for (net::Host* h : t.shards[s].hosts) t.hosts.push_back(h);
  }

  // --- links: one canonical enumeration order, so every shard's ingress
  // channel list (and with it the drain order) is fixed by the topology.
  // duplex() returns {u->v, v->u}.
  auto duplex = [&](std::uint32_t su, net::Node& u, std::uint32_t sv,
                    net::Node& v) -> std::pair<net::Link*, net::Link*> {
    if (su == sv) {
      auto d =
          t.shards[su].net->connect(u, v, cfg.link_rate, per_link, cfg.qdisc);
      return {d.forward, d.backward};
    }
    auto one_way = [&](std::uint32_t src_shard, net::Node& src,
                       std::uint32_t dst_shard, net::Node& dst) {
      ShardedFatTree::Shard& dst_sh = t.shards[dst_shard];
      auto ch = std::make_unique<net::CrossShardChannel>(*dst_sh.ctx, &dst,
                                                         cfg.inbox_capacity);
      net::Link* link = t.shards[src_shard].net->connect_cross_shard(
          src, dst, cfg.link_rate, per_link, cfg.qdisc, &ch->inbox());
      dst_sh.ingress.push_back(ch.get());
      dst_sh.channels.push_back(std::move(ch));
      ++t.cross_links;
      return link;
    };
    net::Link* uv = one_way(su, u, sv, v);
    net::Link* vu = one_way(sv, v, su, u);
    return {uv, vu};
  };

  std::vector<std::vector<net::Link*>> host_down(
      shard_count, std::vector<net::Link*>(hosts_per_edge));
  std::vector<std::vector<net::Link*>> edge_up(
      shard_count, std::vector<net::Link*>(half));  // [s][a] edge->agg(pod,a)
  std::vector<std::vector<net::Link*>> agg_down(
      shard_count, std::vector<net::Link*>(half));  // [s][e] agg->edge(pod,e)
  std::vector<std::vector<net::Link*>> agg_up(
      shard_count, std::vector<net::Link*>(half));  // [s][j] agg->core
  std::vector<std::vector<net::Link*>> core_down(
      cores_total, std::vector<net::Link*>(k));  // [c][pod] core->agg

  for (std::uint32_t s = 0; s < shard_count; ++s) {
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      auto [up, down] =
          duplex(s, *t.shards[s].hosts[h], s, *t.shards[s].edge);
      host_down[s][h] = down;
    }
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;
    const std::uint32_t e = s % half;
    for (std::uint32_t a = 0; a < half; ++a) {
      const std::uint32_t sa = t.plan.agg_shard[pod * half + a];
      auto [up, down] = duplex(s, *t.shards[s].edge, sa, *t.shards[sa].agg);
      edge_up[s][a] = up;
      agg_down[sa][e] = down;
    }
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;
    // The aggregation this shard owns has index a = s % half within its
    // pod and connects to cores [a*half, a*half + half).
    const std::uint32_t a = s % half;
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::uint32_t c = a * half + j;
      const std::uint32_t sc = t.plan.core_shard[c];
      auto [up, down] = duplex(s, *t.shards[s].agg, sc, *t.shards[sc].core);
      agg_up[s][j] = up;
      core_down[c][pod] = down;
    }
  }

  // --- structural routes (no global BFS; memory stays O(hosts) total
  // instead of O(hosts^2) route-map entries) ---
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;

    // Edge: exact routes down to local hosts, ECMP default up.
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      t.shards[s].edge->add_route(t.shards[s].hosts[h]->id(),
                                  host_down[s][h]);
    }
    t.shards[s].edge->set_default_routes(edge_up[s]);

    // Aggregation: one host-range per edge shard of its pod, default up
    // to its cores.
    for (std::uint32_t e2 = 0; e2 < half; ++e2) {
      const std::uint32_t s2 = pod * half + e2;
      t.shards[s].agg->add_range_route(
          base[s2], base[s2] + hosts_per_edge - 1, agg_down[s][e2]);
    }
    t.shards[s].agg->set_default_routes(agg_up[s]);

    // Core (if owned): each pod's host ranges point at the one
    // aggregation this core reaches in that pod.
    if (t.shards[s].core != nullptr) {
      for (std::uint32_t p2 = 0; p2 < k; ++p2) {
        for (std::uint32_t e2 = 0; e2 < half; ++e2) {
          const std::uint32_t s2 = p2 * half + e2;
          t.shards[s].core->add_range_route(
              base[s2], base[s2] + hosts_per_edge - 1, core_down[s][p2]);
        }
      }
    }
  }

  return t;
}

}  // namespace hwatch::topo
