// Ablation A3 — the Next-Fit batching rule.
//
// The theory chapter derives three schedules for a window decision:
//   single-shot  — grant X_UM + X_M at once (no batching; what a naive
//                  rwnd clamp would do),
//   coalesced    — Corollary IV.2.2: X_UM + X_M/2 now, X_M/2 after T
//                  (HWatch's default),
//   three-batch  — Theorem IV.2 verbatim: X_UM now, X_M/2 at T, 2T.
// Plus the connection-setup caution divisor (1 = trust clean probes,
// 2 = hold half of every setup grant back for one drain time).
// This bench shows both choices on the Figure 8 scenario.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::DumbbellScenarioConfig mode_config(core::BatchMode mode,
                                        std::uint32_t caution_divisor) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm = cfg.core_aqm;
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.hwatch_enabled = true;
  cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  cfg.hwatch.policy.mode = mode;
  cfg.hwatch.setup_caution_divisor = caution_divisor;
  return cfg;
}

int run() {
  bench::print_header("Ablation A3",
                      "batching rule x setup caution on the fig8 scenario");

  struct Point {
    core::BatchMode mode;
    std::uint32_t div;
  };
  std::vector<Point> grid;
  std::vector<bench::DumbbellPoint> points;
  for (auto mode : {core::BatchMode::kSingleShot, core::BatchMode::kCoalesced,
                    core::BatchMode::kThreeBatch}) {
    for (std::uint32_t div : {1u, 2u}) {
      grid.push_back({mode, div});
      points.push_back({std::string(core::to_string(mode)) +
                            (div == 1 ? "_trusting" : ""),
                        mode_config(mode, div)});
    }
  }
  std::vector<bench::Curve> all = bench::run_sweep("abl_batching", std::move(points));

  stats::Table t({"batch mode", "setup caution", "FCT mean(ms)",
                  "FCT p99(ms)", "unfinished", "drops", "timeouts",
                  "goodput(Gb/s)"});
  std::vector<bench::Curve> curves;
  for (std::size_t i = 0; i < all.size(); ++i) {
    api::ScenarioResults& res = all[i].results;
    const auto fct = res.short_fct_cdf_ms().summarize();
    const auto gp = res.long_goodput_cdf_gbps().summarize();
    t.add_row({core::to_string(grid[i].mode),
               grid[i].div == 1 ? "off" : "1/2",
               stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.incomplete_short_flows()),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts),
               stats::Table::num(gp.mean, 3)});
    if (grid[i].div == 2) {
      curves.push_back({std::string(core::to_string(grid[i].mode)),
                        std::move(res)});
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::print_fct_panel(curves);
  bench::write_csvs("abl_batching", curves);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
