// Ablation A5 — lowering minRTO vs deploying HWatch.
//
// The paper's related-work section (VII) discusses the classic
// alternative: shrink the TCP minimum RTO so timeouts stop costing
// 2000 RTTs.  It argues the fix is intrusive (kernel change inside the
// tenant VM, violating R3) and fragile.  This bench quantifies how far
// minRTO reduction actually gets on the fig8 scenario, against HWatch
// with stock 200 ms guests.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::DumbbellScenarioConfig minrto_config(sim::TimePs min_rto) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm = cfg.core_aqm;
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  t.min_rto = min_rto;
  t.initial_rto = min_rto;
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  return cfg;
}

int run() {
  bench::print_header("Ablation A5",
                      "shrinking minRTO (guest kernel change) vs HWatch "
                      "(hypervisor only)");

  const std::vector<sim::TimePs> rtos = {
      sim::milliseconds(200), sim::milliseconds(50), sim::milliseconds(10),
      sim::milliseconds(4), sim::milliseconds(1)};
  std::vector<bench::DumbbellPoint> points;
  for (sim::TimePs rto : rtos) {
    points.push_back(
        {"minRTO=" + stats::Table::num(sim::to_millis(rto), 0) + "ms",
         minrto_config(rto)});
  }
  // Last point: HWatch with stock 200 ms guests, for comparison.
  points.push_back({"HWatch (stock 200ms)",
                    bench::scheme_config(bench::Scheme::kTcpHWatch, 50)});
  std::vector<bench::Curve> curves = bench::run_sweep("abl_minrto", std::move(points));

  stats::Table t({"remedy", "FCT mean(ms)", "FCT p99(ms)", "unfinished",
                  "drops", "timeouts", "goodput(Gb/s)", "guest change?"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const bool is_hwatch = i >= rtos.size();
    const api::ScenarioResults& res = curves[i].results;
    const auto fct = res.short_fct_cdf_ms().summarize();
    t.add_row({curves[i].name, stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.incomplete_short_flows()),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts),
               stats::Table::num(
                   res.long_goodput_cdf_gbps().summarize().mean, 3),
               is_hwatch || rtos[i] == sim::milliseconds(200)
                   ? (is_hwatch ? "no" : "no (stock)")
                   : "yes (R3!)"});
  }
  t.print(std::cout);
  std::cout << "\nShrinking minRTO shortens the penalty of each loss but "
               "keeps every loss\n(and requires patching tenant kernels); "
               "HWatch removes the losses while\nleaving guests at the "
               "stock 200 ms.\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
