// Ablation A2 — ECN marking threshold K.
//
// The paper sets K to 20% of the buffer (Section V) citing the DCTCP
// guidance; this bench sweeps K from 5% to 60% of the 250-frame buffer
// on the Figure 8 scenario for both DCTCP and TCP-HWATCH.  Small K
// throttles early (low queueing delay, risk of under-utilization);
// large K leaves less headroom to absorb incast bursts.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::DumbbellScenarioConfig k_config(bool hwatch_on, std::uint64_t k_frames) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.core_aqm.mark_threshold_packets = k_frames;
  cfg.edge_aqm = cfg.core_aqm;
  if (hwatch_on) {
    tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
    cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
    cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
    cfg.hwatch_enabled = true;
    cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  } else {
    tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kDctcp);
    cfg.long_groups = {{tcp::Transport::kDctcp, t, 25, "dctcp"}};
    cfg.short_groups = {{tcp::Transport::kDctcp, t, 25, "dctcp"}};
  }
  return cfg;
}

int run() {
  bench::print_header("Ablation A2",
                      "marking threshold K sweep (fraction of 250-frame "
                      "buffer), DCTCP vs TCP-HWATCH");

  struct Point {
    std::uint64_t k;
    bool hwatch_on;
  };
  std::vector<Point> grid;
  std::vector<bench::DumbbellPoint> points;
  for (std::uint64_t k : {12ull, 25ull, 50ull, 75ull, 100ull, 150ull}) {
    for (bool hwatch_on : {false, true}) {
      grid.push_back({k, hwatch_on});
      points.push_back({std::string(hwatch_on ? "TCP-HWATCH" : "DCTCP") +
                            "@K=" + std::to_string(k),
                        k_config(hwatch_on, k)});
    }
  }
  std::vector<bench::Curve> all = bench::run_sweep("abl_ecn_threshold", std::move(points));

  stats::Table t({"K(frames)", "K(%)", "scheme", "FCT mean(ms)",
                  "FCT p99(ms)", "drops", "timeouts", "goodput(Gb/s)",
                  "mean queue(pkts)"});
  std::vector<bench::Curve> curves;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t k = grid[i].k;
    const bool hwatch_on = grid[i].hwatch_on;
    api::ScenarioResults& res = all[i].results;
    double qmean = 0;
    for (const auto& p : res.queue_packets) qmean += p.value;
    if (!res.queue_packets.empty()) {
      qmean /= static_cast<double>(res.queue_packets.size());
    }
    const auto fct = res.short_fct_cdf_ms().summarize();
    const auto gp = res.long_goodput_cdf_gbps().summarize();
    const std::string scheme = hwatch_on ? "TCP-HWATCH" : "DCTCP";
    t.add_row({std::to_string(k),
               stats::Table::num(100.0 * static_cast<double>(k) / 250, 0),
               scheme, stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts),
               stats::Table::num(gp.mean, 3),
               stats::Table::num(qmean, 1)});
    if (k == 50) {
      curves.push_back({scheme + "@K=50", std::move(res)});
    }
  }
  t.print(std::cout);
  bench::write_csvs("abl_ecn_threshold", curves);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
