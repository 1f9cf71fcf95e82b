// Sharded quickstart: one small fat-tree fabric executed as a
// conservative-lookahead parallel simulation, with the shard telemetry
// stack switched on.  Try:
//
//   HWATCH_SHARDS=4 HWATCH_PROGRESS=1 ./sharded_quickstart
//   HWATCH_SHARDS=4 HWATCH_METRICS_DIR=out HWATCH_TRACE_DIR=out
//       HWATCH_FLIGHT_DIR=out HWATCH_FLIGHT_DUMP=1 ./sharded_quickstart
//
// The manifest's `shards` section, the gauge series and the merged
// trace export are byte-identical for every HWATCH_SHARDS value; only
// the per-worker timeline ("sharded_quickstart.workers.trace.json")
// and the flight dump record wall-clock behaviour.
#include <iostream>

#include "api/cli.hpp"
#include "api/sharded.hpp"
#include "stats/table.hpp"

using namespace hwatch;

namespace {

int run() {
  api::FatTreeScenarioConfig cfg;
  cfg.k = 4;  // 16 hosts, 8 edge shards
  cfg.link_rate = sim::DataRate::gbps(10);
  cfg.base_rtt = sim::microseconds(100);
  cfg.aqm.kind = api::AqmKind::kDctcpStep;
  cfg.aqm.buffer_packets = 250;
  cfg.aqm.mark_threshold_packets = 50;
  cfg.transport = tcp::Transport::kDctcp;
  cfg.flows_per_host = 2;
  cfg.flow_bytes = 100'000;
  cfg.duration = sim::milliseconds(20);
  cfg.seed = 7;
  cfg.run_label = "sharded_quickstart";
  cfg.collect_metrics = true;
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);

  const auto fct = res.short_fct_cdf_ms().summarize();
  std::cout << "sharded fat-tree (k=4): " << res.records.size()
            << " flows, " << fct.count << " completed\n"
            << "  short FCT mean / p99 : " << stats::Table::num(fct.mean, 3)
            << " / " << stats::Table::num(fct.p99, 3) << " ms\n"
            << "  events simulated     : " << res.events_executed << "\n"
            << "  epochs               : "
            << res.manifest.results.find("epochs")->as_uint() << "\n"
            << "  shard imbalance      : "
            << stats::Table::num(res.shard_imbalance, 3)
            << "x (1.0 = perfectly balanced)\n";
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
