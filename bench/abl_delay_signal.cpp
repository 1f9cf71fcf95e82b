// Ablation A6 — the Section III-D timing signal.
//
// ECN marking only fires above the configured threshold K; if K is set
// too high (a common operator mistake the paper warns about in IV-E),
// probes come back clean even though a deep standing queue exists, and
// ECN-only HWatch grants full initial windows into it.  The delay
// signal (probe one-way-delay inflation vs the per-path baseline)
// catches exactly this case.  Sweep K upward and compare ECN-only
// HWatch with ECN+delay HWatch on the fig8 scenario.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::DumbbellScenarioConfig point_config(std::uint64_t k_frames,
                                         bool delay_signal) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.core_aqm.mark_threshold_packets = k_frames;
  cfg.edge_aqm = cfg.core_aqm;
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.hwatch_enabled = true;
  cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  cfg.hwatch.use_delay_signal = delay_signal;
  cfg.hwatch.delay_drain_rate = cfg.bottleneck_rate;
  return cfg;
}

int run() {
  bench::print_header("Ablation A6",
                      "ECN-only vs ECN+delay congestion watching as the "
                      "marking threshold K degrades");

  struct Point {
    std::uint64_t k;
    bool delay;
  };
  std::vector<Point> grid;
  std::vector<bench::DumbbellPoint> points;
  for (std::uint64_t k : {50ull, 100ull, 150ull, 200ull}) {
    for (bool delay : {false, true}) {
      grid.push_back({k, delay});
      points.push_back({"K=" + std::to_string(k) +
                            (delay ? "_ecn+delay" : "_ecn-only"),
                        point_config(k, delay)});
    }
  }
  std::vector<bench::Curve> curves = bench::run_sweep("abl_delay_signal", std::move(points));

  stats::Table t({"K(frames)", "signal", "FCT mean(ms)", "FCT p99(ms)",
                  "unfinished", "drops", "timeouts", "goodput(Gb/s)"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const api::ScenarioResults& res = curves[i].results;
    const auto fct = res.short_fct_cdf_ms().summarize();
    t.add_row({std::to_string(grid[i].k),
               grid[i].delay ? "ecn+delay" : "ecn-only",
               stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.incomplete_short_flows()),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts),
               stats::Table::num(
                   res.long_goodput_cdf_gbps().summarize().mean, 3)});
  }
  t.print(std::cout);
  std::cout << "\nWith a well-set K the signals agree; as K degrades the "
               "timing signal keeps\ncatching the standing queue that "
               "ECN no longer flags.\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
