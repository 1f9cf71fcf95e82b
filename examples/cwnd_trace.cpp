// Congestion-window traces: NewReno vs CUBIC vs DCTCP on the same kind
// of bottleneck, sampled over time — the classic sawtooth comparison,
// printed as ASCII sparklines.  Demonstrates the live observability of
// the transport layer (every sender exposes cwnd/ssthresh/RTT).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/cli.hpp"
#include "net/network.hpp"
#include "stats/table.hpp"
#include "tcp/connection.hpp"

using namespace hwatch;

namespace {

struct Trace {
  std::string name;
  std::vector<double> cwnd_segments;
  double goodput_gbps = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t ecn_cuts = 0;
};

Trace run(tcp::Transport transport, tcp::EcnMode ecn,
          const std::string& name) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  net::Network network(ctx);
  net::Host& src = network.add_host("src");
  net::Host& dst = network.add_host("dst");
  net::Switch& sw = network.add_switch("sw");
  // 4x edge into a 1 Gb/s bottleneck with a step-marking queue.
  network.connect(src, sw, sim::DataRate::gbps(4), sim::microseconds(50),
                  net::make_droptail_factory(1024));
  network.connect(sw, dst, sim::DataRate::gbps(1), sim::microseconds(50),
                  net::make_dctcp_factory(128, 32));
  network.compute_routes();

  tcp::TcpConfig cfg;
  cfg.ecn = ecn;
  cfg.min_rto = sim::milliseconds(10);
  cfg.initial_rto = sim::milliseconds(10);
  tcp::TcpConnection conn(network, src, dst, 1000, 80, transport, cfg);
  conn.start(tcp::TcpSender::kUnlimited);

  Trace trace;
  trace.name = name;
  // Sample cwnd every 2 ms for 120 ms.
  for (int i = 0; i < 60; ++i) {
    sched.run_until(sim::milliseconds(2) * (i + 1));
    trace.cwnd_segments.push_back(conn.sender().cwnd_bytes() /
                                  cfg.mss);
  }
  trace.goodput_gbps = conn.sink().goodput_bps() / 1e9;
  trace.fast_retx = conn.sender().stats().fast_retransmits;
  trace.ecn_cuts = conn.sender().stats().ecn_reductions;
  return trace;
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  double max_v = 1;
  for (double v : values) max_v = std::max(max_v, v);
  std::string out;
  for (double v : values) {
    const int level =
        std::min(7, static_cast<int>(8.0 * v / (max_v + 1e-9)));
    out += kLevels[level];
  }
  return out;
}

int run() {
  std::cout << "Congestion-window traces over 120 ms on a 1 Gb/s "
               "step-marking (K=32) bottleneck\n(one column = 2 ms; "
               "height = cwnd relative to the flavour's own max):\n\n";
  std::vector<Trace> traces;
  traces.push_back(
      run(tcp::Transport::kNewReno, tcp::EcnMode::kClassic, "newreno"));
  traces.push_back(
      run(tcp::Transport::kCubic, tcp::EcnMode::kClassic, "cubic"));
  traces.push_back(
      run(tcp::Transport::kDctcp, tcp::EcnMode::kDctcp, "dctcp"));

  for (const auto& t : traces) {
    std::cout << "  " << t.name << std::string(9 - t.name.size(), ' ')
              << "|" << sparkline(t.cwnd_segments) << "|\n";
  }
  std::cout << "\n";
  stats::Table table({"flavour", "goodput (Gb/s)", "cwnd max (seg)",
                      "fast retx", "ECN cuts"});
  for (const auto& t : traces) {
    double mx = 0;
    for (double v : t.cwnd_segments) mx = std::max(mx, v);
    table.add_row({t.name, stats::Table::num(t.goodput_gbps, 3),
                   stats::Table::num(mx, 1), std::to_string(t.fast_retx),
                   std::to_string(t.ecn_cuts)});
  }
  table.print(std::cout);
  std::cout << "\nNewReno halves on every ECE and saws deeply; CUBIC cuts "
               "to 0.7 and probes\nalong the cubic curve; DCTCP shaves "
               "proportionally and hugs the threshold.\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
