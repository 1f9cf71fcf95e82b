// Ablation A1 — probe-train length.
//
// The paper fixes the probe count at 10 ("chosen so that the overhead
// level can be tolerated") without showing the sensitivity.  This bench
// sweeps it on the Figure 8 scenario: 0 disables connection-setup
// probing entirely (steady-state watching still runs), larger trains
// sample the path more accurately but add probe bytes and handshake
// delay.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

int run() {
  bench::print_header("Ablation A1",
                      "HWatch probe-train length on the fig8 scenario");

  const std::vector<std::uint32_t> probe_counts = {0u, 2u, 5u, 10u, 20u};
  std::vector<bench::DumbbellPoint> points;
  for (std::uint32_t probes : probe_counts) {
    api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
    cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
    cfg.edge_aqm = cfg.core_aqm;
    tcp::TcpConfig t_cfg = bench::paper_tcp(tcp::EcnMode::kNone);
    cfg.long_groups = {{tcp::Transport::kNewReno, t_cfg, 25, "tcp"}};
    cfg.short_groups = {{tcp::Transport::kNewReno, t_cfg, 25, "tcp"}};
    cfg.hwatch_enabled = true;
    cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
    cfg.hwatch.probe_count = probes;
    points.push_back({"probes=" + std::to_string(probes), cfg});
  }
  std::vector<bench::Curve> curves = bench::run_sweep("abl_probe_count", std::move(points));

  stats::Table t({"probes", "FCT mean(ms)", "FCT p99(ms)", "unfinished",
                  "drops", "timeouts", "goodput(Gb/s)", "probe bytes",
                  "handshake delay"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const std::uint32_t probes = probe_counts[i];
    const api::ScenarioResults& res = curves[i].results;
    const auto fct = res.short_fct_cdf_ms().summarize();
    const auto gp = res.long_goodput_cdf_gbps().summarize();
    t.add_row({std::to_string(probes), stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.incomplete_short_flows()),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts), stats::Table::num(gp.mean, 3),
               std::to_string(res.shim.probe_bytes_injected),
               probes == 0 ? "none" : "<= probe span"});
  }
  t.print(std::cout);
  std::cout << "\n";
  bench::print_fct_panel(curves);
  bench::write_csvs("abl_probe_count", curves);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
