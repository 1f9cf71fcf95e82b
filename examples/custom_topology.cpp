// Low-level API tour: build a fat-tree by hand, attach transports
// directly, and install a custom hypervisor filter.
//
// The scenario API (api::run_dumbbell / run_leaf_spine) covers the
// paper's experiments; this example shows the layers underneath, which
// is what you extend to study new topologies, AQMs or shim policies:
//   * net::Network + topo::build_fat_tree  — fabric with ECMP
//   * tcp::TcpConnection                   — flows between any hosts
//   * net::PacketFilter                    — your own NetFilter hook
//   * core::install_hwatch                 — the paper's shim
#include <iostream>

#include "api/cli.hpp"
#include "hwatch/shim.hpp"
#include "net/network.hpp"
#include "stats/table.hpp"
#include "tcp/connection.hpp"
#include "topo/fat_tree.hpp"

using namespace hwatch;

namespace {

/// A custom hypervisor hook: counts CE-marked arrivals per host — the
/// kind of telemetry a real operator shim exports.
class CeTelemetry final : public net::PacketFilter {
 public:
  net::FilterVerdict on_outbound(net::Packet&) override {
    return net::FilterVerdict::kPass;
  }
  net::FilterVerdict on_inbound(net::Packet& p) override {
    ++packets_;
    if (p.ip.ecn == net::Ecn::kCe) ++ce_;
    return net::FilterVerdict::kPass;
  }
  double ce_fraction() const {
    return packets_ ? static_cast<double>(ce_) / packets_ : 0.0;
  }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t ce_ = 0;
};

int run() {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  net::Network network(ctx);

  // k=4 fat-tree: 16 hosts, 20 switches, ECMP across 4 core switches.
  topo::FatTreeConfig ft;
  ft.k = 4;
  ft.link_rate = sim::DataRate::gbps(10);
  ft.base_rtt = sim::microseconds(100);
  ft.qdisc = [] {
    return std::make_unique<net::DctcpThresholdQueue>(
        net::QueueLimits::in_bytes(250 * 1500), 50 * 1500);
  };
  topo::FatTree tree = topo::build_fat_tree(network, ft);
  std::cout << "fat-tree k=4: " << tree.hosts.size() << " hosts, "
            << tree.cores.size() << " cores, "
            << tree.aggregations.size() << " agg, " << tree.edges.size()
            << " edge switches\n";

  // Telemetry filter + HWatch shim on one destination host.
  net::Host* dst = tree.hosts.back();
  CeTelemetry telemetry;
  dst->install_filter(&telemetry);
  sim::Rng rng(42);
  core::HWatchConfig hw;
  auto shim_rx = core::install_hwatch(network, *dst, hw, rng.fork());
  std::vector<std::unique_ptr<core::HypervisorShim>> shims_tx;

  // Cross-pod incast: every host of pod 0 sends 500 KB to `dst`.
  tcp::TcpConfig t;
  t.ecn = tcp::EcnMode::kDctcp;
  t.min_rto = sim::milliseconds(10);
  t.initial_rto = sim::milliseconds(10);
  std::vector<std::unique_ptr<tcp::TcpConnection>> conns;
  const std::uint32_t senders = tree.hosts_per_pod();
  for (std::uint32_t i = 0; i < senders; ++i) {
    net::Host* src = tree.hosts[i];
    shims_tx.push_back(core::install_hwatch(network, *src, hw, rng.fork()));
    conns.push_back(std::make_unique<tcp::TcpConnection>(
        network, *src, *dst, static_cast<std::uint16_t>(2000 + i),
        static_cast<std::uint16_t>(5000 + i), tcp::Transport::kDctcp, t));
    conns.back()->start(500'000);
  }

  sched.run_until(sim::seconds(1.0));

  stats::Table table({"flow", "path (ECMP picks per flow)", "FCT(ms)",
                      "retx", "timeouts"});
  for (std::uint32_t i = 0; i < senders; ++i) {
    const auto& s = conns[i]->sender();
    table.add_row({std::to_string(i), tree.hosts[i]->name() + " -> " +
                       dst->name(),
                   s.fct() == sim::kTimeNever
                       ? "-"
                       : stats::Table::num(sim::to_millis(s.fct()), 3),
                   std::to_string(s.stats().retransmits),
                   std::to_string(s.stats().timeouts)});
  }
  table.print(std::cout);
  std::cout << "CE fraction observed by the custom telemetry filter at "
            << dst->name() << ": "
            << stats::Table::num(100 * telemetry.ce_fraction(), 2)
            << " %\n"
            << "HWatch at the receiver tracked "
            << shim_rx->flow_table().created() << " flows, rewrote "
            << shim_rx->stats().acks_rewritten << " ACK windows\n"
            << "events simulated: " << sched.executed() << "\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
