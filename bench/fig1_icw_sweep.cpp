// Figure 1 — DCTCP vs the initial congestion window.
//
// The paper's motivating experiment: a DCTCP dumbbell (10 Gb/s, 100 us
// RTT, 250-packet buffer) carrying long-lived background flows plus
// epochs of short incast flows, swept over the initial sending window
// ICWND in {1, 5, 10, 15, 20}.  Panels: (a) short-flow FCT CDF,
// (b) drop CDF, (c) long-flow goodput CDF, (d) queue over time.
//
// Expected shape (paper): FCT jumps by ~2 orders of magnitude between
// ICWND 1-5 and ICWND >= 10; drops appear at the incast epochs; goodput
// barely changes; queue spikes at epochs.
#include <iostream>

#include "api/cli.hpp"
#include "bench_common.hpp"

using namespace hwatch;

namespace {

int run() {
  bench::print_header("Figure 1",
                      "DCTCP performance vs initial congestion window");

  // Build every sweep point up front and fan them out across the
  // SweepRunner pool; per-point results are identical to a serial run.
  std::vector<bench::DumbbellPoint> points;
  std::vector<std::uint32_t> icws = {1u, 5u, 10u, 15u, 20u};
  for (std::uint32_t icw : icws) {
    api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
    cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
    cfg.edge_aqm.kind = api::AqmKind::kDctcpStep;
    // DCTCP's own recommended marking point (~25% of the buffer).
    cfg.core_aqm.mark_threshold_packets = 62;
    cfg.edge_aqm.mark_threshold_packets = 62;

    tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kDctcp);
    t.initial_cwnd_segments = icw;

    workload::SenderGroup longs{tcp::Transport::kDctcp, t, 25, "dctcp"};
    workload::SenderGroup shorts = longs;
    cfg.long_groups = {longs};
    cfg.short_groups = {shorts};
    points.push_back({"ICWND=" + std::to_string(icw), cfg});
  }

  std::vector<bench::Curve> curves = bench::run_sweep("fig1", std::move(points));

  stats::Table drop_table(
      {"ICWND", "drops", "marks", "timeouts", "retx", "queue max(pkts)"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const api::ScenarioResults& res = curves[i].results;
    drop_table.add_row(
        {std::to_string(icws[i]), std::to_string(res.fabric_drops),
         std::to_string(res.bottleneck_queue.ecn_marked),
         std::to_string(res.timeouts), std::to_string(res.retransmits),
         std::to_string(res.bottleneck_queue.max_len_pkts)});
  }

  bench::print_fct_panel(curves);
  std::cout << "\nPacket drops and recovery (panel b)\n";
  drop_table.print(std::cout);
  std::cout << "\n";
  bench::print_goodput_panel(curves);
  std::cout << "\n";
  bench::print_timeseries_panel(curves);
  bench::print_summary(curves);
  bench::write_csvs("fig1", curves);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
