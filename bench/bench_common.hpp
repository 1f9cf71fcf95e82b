// Shared scenario builders and reporting for the figure-reproduction
// benches.  Each bench binary reproduces one figure of the paper: it
// configures the scenario via the api layer, runs every curve, prints
// the CDF/time-series rows the figure plots, and writes CSVs next to
// the binary (./bench_out/).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "sim/env.hpp"
#include "sim/json.hpp"
#include "stats/table.hpp"

namespace hwatch::bench {

/// ns-2's default frame size, which the paper's packet-count buffer
/// arithmetic is calibrated to.
inline constexpr std::uint32_t kPaperFrameBytes = 1000;
inline constexpr std::uint32_t kPaperMss =
    kPaperFrameBytes - net::kTcpFrameOverhead;  // 942

/// The paper's ns-2 fabric: 10 Gb/s dumbbell, 100 us RTT, 250-packet
/// bottleneck buffer, marking threshold 20% (50 packets).
inline api::DumbbellScenarioConfig paper_dumbbell_base() {
  api::DumbbellScenarioConfig cfg;
  cfg.pairs = 50;
  cfg.edge_rate = sim::DataRate::gbps(10);
  cfg.bottleneck_rate = sim::DataRate::gbps(10);
  cfg.base_rtt = sim::microseconds(100);
  cfg.core_aqm.buffer_packets = 250;
  cfg.core_aqm.mark_threshold_packets = 50;
  // Byte-based buffers sized as 250 full frames: a 38-byte probe costs
  // 38 bytes, as on real hardware.  Frames are 1000 bytes (the ns-2
  // default packet size the paper simulated with), which puts the
  // 25-flow x 10 KB incast epoch exactly in the marginal-overflow regime
  // of the 250-frame buffer, as in the paper.
  cfg.core_aqm.byte_mode = true;
  cfg.core_aqm.mtu_bytes = kPaperFrameBytes;
  cfg.edge_aqm = cfg.core_aqm;
  cfg.incast.epochs = 6;
  cfg.incast.first_epoch = sim::milliseconds(100);
  cfg.incast.epoch_interval = sim::milliseconds(150);
  cfg.incast.flow_bytes = 10'000;
  // Average inter-arrival = transmission time of one segment at 10G.
  cfg.incast.mean_interarrival = sim::nanoseconds(800);
  cfg.duration = sim::seconds(1.0);
  cfg.sample_interval = sim::milliseconds(1);
  cfg.seed = 20;
  return cfg;
}

/// Default guest TCP config for the ns-2 scenarios (Linux-like): ICW 10,
/// minRTO 200 ms.
inline tcp::TcpConfig paper_tcp(tcp::EcnMode ecn) {
  tcp::TcpConfig t;
  t.mss = kPaperMss;
  t.initial_cwnd_segments = 10;
  t.min_rto = sim::milliseconds(200);
  t.initial_rto = sim::milliseconds(200);
  t.ecn = ecn;
  return t;
}

/// HWatch configuration used throughout Section V: 10 probes, drain-time
/// estimate ~RTT/2, observation rounds of one RTT.
inline core::HWatchConfig paper_hwatch(sim::TimePs rtt) {
  core::HWatchConfig h;
  h.probe_count = 10;
  h.probe_span = rtt / 2;
  h.policy.mode = core::BatchMode::kCoalesced;
  h.policy.batch_interval = rtt / 2;
  h.round_interval = rtt;
  h.mss = kPaperMss;
  h.min_window_bytes = kPaperMss;
  return h;
}

/// Named scenario result, one per curve in a figure panel.
struct Curve {
  std::string name;
  api::ScenarioResults results;
};

/// Thread count for bench sweeps: HWATCH_SWEEP_THREADS overrides, 0
/// falls through to hardware concurrency (SweepRunner's default).
/// Set HWATCH_SWEEP_THREADS=1 to force the serial baseline.  A value
/// that is not a positive integer throws std::invalid_argument, which
/// the bench's api::guarded_main turns into an error and exit status 2
/// instead of silently running on every core.
inline unsigned sweep_threads() {
  return api::SweepRunner::threads_from_env();
}

/// HWATCH_BENCH_DURATION_MS, the CI smoke knob that shortens a bench's
/// simulated horizon (nullopt when unset).  A value that is not a
/// positive integer stops the bench the same way instead of running a
/// 0 ms sweep that passes every gate.
inline std::optional<std::uint64_t> bench_duration_ms() {
  return sim::env_uint("HWATCH_BENCH_DURATION_MS", 1, 86'400'000);
}

/// A named sweep point.  Benches build a vector of these, run_sweep
/// executes them across the thread pool, and the returned curves keep
/// the input order (results are independent of the thread count).
template <typename Config>
struct NamedPoint {
  std::string name;
  Config cfg;
};
using DumbbellPoint = NamedPoint<api::DumbbellScenarioConfig>;
using LeafSpinePoint = NamedPoint<api::LeafSpineScenarioConfig>;

/// Peak resident set size of this process, in bytes (Linux ru_maxrss is
/// in KiB).
inline std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/// Machine-readable bench report (`bench_out/BENCH_<name>.json`, schema
/// hwatch.bench/v1): per-point event counts, total wall time, event
/// rate, and peak RSS — the perf trajectory tracked across PRs.  CI
/// uploads these as artifacts.
inline void write_bench_json(const std::string& name,
                             const std::vector<Curve>& curves,
                             double wall_s) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories("bench_out", ec);
  if (ec) {
    std::cerr << "warning: cannot create bench_out: " << ec.message()
              << "\n";
    return;
  }
  std::uint64_t events = 0;
  sim::Json pts = sim::Json::array();
  for (const Curve& c : curves) {
    events += c.results.events_executed;
    sim::Json p = sim::Json::object();
    p.set("name", sim::Json(c.name));
    p.set("events",
          sim::Json(static_cast<std::int64_t>(c.results.events_executed)));
    // Sharded points only (0 otherwise): per-epoch max/mean shard
    // events — check_perf.py --report surfaces it next to events/s.
    p.set("imbalance", sim::Json(c.results.shard_imbalance));
    pts.push_back(std::move(p));
  }
  sim::Json doc = sim::Json::object();
  doc.set("schema", sim::Json("hwatch.bench/v1"));
  doc.set("name", sim::Json(name));
  doc.set("points", std::move(pts));
  doc.set("wall_s", sim::Json(wall_s));
  doc.set("events", sim::Json(static_cast<std::int64_t>(events)));
  doc.set("events_per_s",
          sim::Json(wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0));
  doc.set("peak_rss_bytes",
          sim::Json(static_cast<std::int64_t>(peak_rss_bytes())));
  doc.set("sweep_threads",
          sim::Json(static_cast<std::int64_t>(sweep_threads())));
  const fs::path out = fs::path("bench_out") / ("BENCH_" + name + ".json");
  std::ofstream os(out);
  doc.dump(os, 2);
  os << "\n";
  std::cout << "(bench report written to " << out.string() << ")\n";
}

template <typename Config>
std::vector<Curve> run_sweep(const std::string& bench_name,
                             std::vector<NamedPoint<Config>> points) {
  api::SweepRunner runner(sweep_threads());
  // CI smoke knob: scale the simulated duration down so the full sweep
  // pipeline (and the bench report) runs in seconds.
  const std::optional<std::uint64_t> duration_ms = bench_duration_ms();
  std::vector<Config> cfgs;
  cfgs.reserve(points.size());
  for (const auto& p : points) {
    cfgs.push_back(p.cfg);
    // Manifests written under HWATCH_METRICS_DIR carry the curve name.
    if (cfgs.back().run_label.empty()) cfgs.back().run_label = p.name;
    if (duration_ms) cfgs.back().duration = sim::milliseconds(*duration_ms);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<api::ScenarioResults> results = runner.run(cfgs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<Curve> curves;
  curves.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    curves.push_back({std::move(points[i].name), std::move(results[i])});
  }
  write_bench_json(bench_name, curves, wall_s);
  return curves;
}

inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::cout << "\n==========================================================\n"
            << figure << ": " << description << "\n"
            << "==========================================================\n";
}

/// Panel (a)-style output: short-flow FCT CDFs side by side.
inline void print_fct_panel(const std::vector<Curve>& curves,
                            bool per_epoch_mean = false) {
  std::vector<std::pair<std::string, stats::Cdf>> cdfs;
  for (const auto& c : curves) {
    cdfs.emplace_back(c.name, per_epoch_mean
                                  ? c.results.epoch_mean_fct_cdf_ms()
                                  : c.results.short_fct_cdf_ms());
  }
  stats::print_cdf_panel(std::cout,
                         per_epoch_mean
                             ? "Short-lived flows: per-epoch avg FCT CDF"
                             : "Short-lived flows: FCT CDF",
                         cdfs, "ms");
}

/// Panel (b)-style output: long-flow goodput CDFs.
inline void print_goodput_panel(const std::vector<Curve>& curves) {
  std::vector<std::pair<std::string, stats::Cdf>> cdfs;
  for (const auto& c : curves) {
    cdfs.emplace_back(c.name, c.results.long_goodput_cdf_gbps());
  }
  stats::print_cdf_panel(std::cout, "Long-lived flows: goodput CDF", cdfs,
                         "Gb/s");
}

/// Panel (c/d)-style output: queue occupancy and utilization over time,
/// printed as coarse rows.
inline void print_timeseries_panel(const std::vector<Curve>& curves,
                                   std::size_t rows = 10) {
  stats::Table queue_table([&] {
    std::vector<std::string> h{"t(s)"};
    for (const auto& c : curves) h.push_back(c.name + " q(pkts)");
    return h;
  }());
  if (!curves.empty() && !curves[0].results.queue_packets.empty()) {
    const auto& ref = curves[0].results.queue_packets;
    const std::size_t stride = std::max<std::size_t>(ref.size() / rows, 1);
    for (std::size_t i = 0; i < ref.size(); i += stride) {
      std::vector<std::string> row{
          stats::Table::num(sim::to_seconds(ref[i].time), 2)};
      for (const auto& c : curves) {
        const auto& s = c.results.queue_packets;
        row.push_back(i < s.size() ? stats::Table::num(s[i].value, 0)
                                   : "-");
      }
      queue_table.add_row(std::move(row));
    }
  }
  std::cout << "Bottleneck queue over time\n";
  queue_table.print(std::cout);

  stats::Table util_table({"scheme", "mean util", "mean tput (Gb/s)"});
  for (const auto& c : curves) {
    double tput = 0;
    for (const auto& p : c.results.throughput_gbps) tput += p.value;
    if (!c.results.throughput_gbps.empty()) {
      tput /= static_cast<double>(c.results.throughput_gbps.size());
    }
    util_table.add_row({c.name,
                        stats::Table::num(c.results.mean_utilization(), 3),
                        stats::Table::num(tput, 3)});
  }
  std::cout << "Bottleneck utilization\n";
  util_table.print(std::cout);
}

/// Summary rows: the quantities the paper's text quotes.
inline void print_summary(const std::vector<Curve>& curves) {
  stats::Table t({"scheme", "short flows", "unfinished", "FCT mean(ms)",
                  "FCT p99(ms)", "FCT var", "goodput mean(Gb/s)", "drops",
                  "retx", "timeouts"});
  for (const auto& c : curves) {
    const auto fct = c.results.short_fct_cdf_ms().summarize();
    const auto gp = c.results.long_goodput_cdf_gbps().summarize();
    t.add_row({c.name, std::to_string(fct.count),
               std::to_string(c.results.incomplete_short_flows()),
               stats::Table::num(fct.mean, 3), stats::Table::num(fct.p99, 3),
               stats::Table::num(fct.variance, 2),
               stats::Table::num(gp.mean, 3),
               std::to_string(c.results.fabric_drops),
               std::to_string(c.results.retransmits),
               std::to_string(c.results.timeouts)});
  }
  std::cout << "Summary\n";
  t.print(std::cout);
}

/// Mean-FCT improvement factor of `better` over each other curve — the
/// paper's "3x / 5x / 10x" headline numbers.
inline void print_improvements(const std::vector<Curve>& curves,
                               const std::string& reference) {
  double ref_mean = 0;
  for (const auto& c : curves) {
    if (c.name == reference) {
      ref_mean = c.results.short_fct_cdf_ms().summarize().mean;
    }
  }
  if (ref_mean <= 0) return;
  std::cout << "Mean-FCT improvement of " << reference << ":\n";
  for (const auto& c : curves) {
    if (c.name == reference) continue;
    const double m = c.results.short_fct_cdf_ms().summarize().mean;
    std::cout << "  vs " << c.name << ": " << stats::Table::num(m / ref_mean, 2)
              << "x\n";
  }
}

/// Writes per-curve CSVs (FCT CDF, goodput CDF, queue series) under
/// bench_out/<figure>/.
inline void write_csvs(const std::string& figure,
                       const std::vector<Curve>& curves) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("bench_out") / figure;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "warning: cannot create " << dir << ": " << ec.message()
              << "\n";
    return;
  }
  for (const auto& c : curves) {
    stats::write_csv((dir / (c.name + "_fct_cdf.csv")).string(),
                     "fct_ms,cum_frac",
                     c.results.short_fct_cdf_ms().series(100));
    stats::write_csv((dir / (c.name + "_goodput_cdf.csv")).string(),
                     "goodput_gbps,cum_frac",
                     c.results.long_goodput_cdf_gbps().series(100));
    stats::write_csv((dir / (c.name + "_queue.csv")).string(),
                     "t_s,queue_pkts", c.results.queue_packets);
    stats::write_csv((dir / (c.name + "_util.csv")).string(), "t_s,util",
                     c.results.utilization);
  }
  std::cout << "(CSV series written to " << dir.string() << ")\n";
}

}  // namespace hwatch::bench
