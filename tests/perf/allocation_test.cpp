// Allocation-regression harness: a counting global operator new proves
// the steady-state packet hop (enqueue -> tx -> propagate -> deliver,
// plus the TCP agents at both ends) touches the heap zero times.
//
// Build note: this file replaces the global allocation functions, so it
// lives in its own test binary (test_alloc) — linking it into a shared
// test runner would make every suite count through it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

std::uint64_t new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"
#include "tcp/connection.hpp"
#include "topo/dumbbell.hpp"
#include "topo/shard.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace hwatch;

/// Dumbbell with 4 long-lived DCTCP flows across the bottleneck,
/// metrics and tracing off — the paper scenarios' steady state.  DCTCP
/// step marking keeps the 250-packet buffer around K=50, so the run is
/// lossless: pure data/ACK clocking, every hop down the fast path.
TEST(AllocationRegression, SteadyStateHopIsAllocationFree) {
  sim::SimContext ctx(7);
  net::Network net(ctx);
  topo::DumbbellConfig tcfg;
  tcfg.pairs = 4;
  tcfg.edge_qdisc = net::make_dctcp_factory(250, 50);
  tcfg.bottleneck_qdisc = net::make_dctcp_factory(250, 50);
  topo::Dumbbell bell = topo::build_dumbbell(net, tcfg);

  tcp::TcpConfig t;
  t.ecn = tcp::EcnMode::kDctcp;
  std::vector<std::unique_ptr<tcp::TcpConnection>> flows;
  for (std::uint32_t i = 0; i < tcfg.pairs; ++i) {
    flows.push_back(std::make_unique<tcp::TcpConnection>(
        net, *bell.left[i], *bell.right[i],
        static_cast<std::uint16_t>(1000 + i),
        static_cast<std::uint16_t>(2000 + i), tcp::Transport::kDctcp, t));
    flows.back()->start(tcp::TcpSender::kUnlimited);
  }

  sim::Scheduler& sched = ctx.scheduler();
  // Warm-up: handshakes, slow start, and every grow-only structure
  // (scheduler heap/slots, qdisc rings, agent maps) reaching its
  // steady-state high-water mark.
  sched.run_until(sim::milliseconds(50));

  const std::uint64_t events_before = sched.executed();
  const std::uint64_t allocs_before = new_calls();
  sched.run_until(sim::milliseconds(100));
  const std::uint64_t events = sched.executed() - events_before;
  const std::uint64_t allocs = new_calls() - allocs_before;

  // Sanity: the window actually carried steady-state traffic.
  EXPECT_GT(events, 50'000u);
  for (const auto& f : flows) {
    EXPECT_GT(f->sink().stats().bytes_received, 1'000'000u);
  }
  // The acceptance criterion: zero heap allocations across every packet
  // hop in the measurement window.
  EXPECT_EQ(allocs, 0u) << "steady-state hops allocated " << allocs
                        << " times over " << events << " events";
}

/// Sharded fat-tree slice: a k=4 fabric (16 hosts, 8 edge shards) with
/// one long-lived cross-shard DCTCP flow per host, driven through the
/// same conservative drain/run epoch protocol the ShardGroup workers
/// execute.  Proves the wheel and packet-train paths stay
/// allocation-free under PDES epochs — window-boundary run_until jumps,
/// cross-shard inbox pushes at tx-complete, and inbox drains included —
/// not just in the single-context dumbbell.
TEST(AllocationRegression, ShardedSteadyStateEpochsAreAllocationFree) {
  topo::ShardedFatTreeConfig tcfg;
  tcfg.k = 4;
  tcfg.qdisc = net::make_dctcp_factory(250, 50);
  tcfg.seed = 7;
  topo::ShardedFatTree tree = topo::build_sharded_fat_tree(tcfg);
  const std::size_t shards = tree.shards.size();
  ASSERT_GT(shards, 1u);

  // Permutation workload, every flow cross-shard capable and long-lived.
  tcp::TcpConfig t;
  t.ecn = tcp::EcnMode::kDctcp;
  std::vector<std::unique_ptr<workload::TrafficManager>> tms;
  for (std::size_t s = 0; s < shards; ++s) {
    tms.push_back(
        std::make_unique<workload::TrafficManager>(*tree.shards[s].net));
  }
  const std::size_t n_hosts = tree.hosts.size();
  const std::uint32_t hosts_per_edge = tree.plan.hosts_per_edge;
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const std::size_t j = (i + n_hosts / 2 + 1) % n_hosts;
    workload::FlowSpec spec;
    spec.src = tree.hosts[i];
    spec.dst = tree.hosts[j];
    spec.dst_net = tree.shards[j / hosts_per_edge].net.get();
    spec.dst_port = tms[j / hosts_per_edge]->next_port(*spec.dst);
    spec.transport = tcp::Transport::kDctcp;
    spec.tcp = t;
    spec.bytes = tcp::TcpSender::kUnlimited;
    spec.klass = stats::FlowClass::kLong;
    tms[i / hosts_per_edge]->add_flow(spec);
  }

  // The sequential arm of the ShardGroup epoch protocol: drain every
  // shard's ingress at the window start barrier, then run every shard
  // to the window end.
  std::vector<std::vector<std::pair<net::Node*, net::ShardInbox::Item>>>
      scratch(shards);
  auto run_epochs_until = [&](sim::TimePs horizon) {
    sim::TimePs t = tree.shards[0].ctx->scheduler().now();
    while (t < horizon) {
      const sim::TimePs end = std::min(horizon, t + tree.lookahead);
      for (std::size_t s = 0; s < shards; ++s) {
        net::drain_cross_shard_channels(tree.shards[s].ingress, scratch[s]);
      }
      for (std::size_t s = 0; s < shards; ++s) {
        tree.shards[s].ctx->scheduler().run_until(end);
      }
      t = end;
    }
  };

  // Warm-up: handshakes, slow start, and every grow-only structure
  // (wheel nodes, flight rings, inbox rings, pools) reaching its peak.
  run_epochs_until(sim::milliseconds(20));

  std::uint64_t events_before = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    events_before += tree.shards[s].ctx->scheduler().executed();
  }
  const std::uint64_t allocs_before = new_calls();
  run_epochs_until(sim::milliseconds(40));
  std::uint64_t events = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    events += tree.shards[s].ctx->scheduler().executed();
  }
  events -= events_before;
  const std::uint64_t allocs = new_calls() - allocs_before;

  EXPECT_GT(events, 50'000u);
  EXPECT_EQ(allocs, 0u) << "sharded steady-state epochs allocated " << allocs
                        << " times over " << events << " events";
}

/// The counting hook itself works — otherwise the zero above proves
/// nothing.
TEST(AllocationRegression, HookCountsAllocations) {
  const std::uint64_t before = new_calls();
  auto* p = new int(1);
  delete p;
  std::vector<int> v(1000);
  v.clear();
  EXPECT_GE(new_calls() - before, 2u);
}

}  // namespace
