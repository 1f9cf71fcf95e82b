// hwbench — the per-process half of the repository benchmark.
//
// bench/suite/run.py starts one hwbench process per measurement and reads
// the single JSON object it prints on stdout.  Two modes:
//
//   hwbench run   --workload W --seed N [--horizon-ms H] [--workers N]
//                 [--setup-only] [--plane off|metrics|spans|incidents]
//       One scenario call through the public api, the same call a user
//       makes.  Prints its wall time, event count, peak RSS, a digest of
//       every simulated statistic and, with --plane metrics, the per-layer
//       work counts read from the run manifest.  --setup-only runs the
//       same call with duration 0 (everything except the event loop).
//
//   hwbench costs --workload W [--reps N] [--ops N] [--pending N]
//                 [--timers N]
//       Times each layer's public functions in a loop with inputs shaped
//       like the workload's and prints one self cost per layer metric.
//       --pending / --timers carry the workload's measured scheduler
//       high-water mark and timer count per context (run.py reads them
//       from the counts run first).
//
// Every call the harness makes into a layer is wrapped in a span named
// after that layer's metric; the spans ride along in the JSON output and
// run.py merges them into a Perfetto-loadable trace.  Nothing here is
// instrumented inside the simulator: every number is taken from outside.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.hpp"
#include "api/sharded.hpp"
#include "fig89_common.hpp"
#include "hwatch/shim.hpp"
#include "net/checksum.hpp"
#include "net/network.hpp"
#include "sim/context.hpp"
#include "sim/json.hpp"
#include "sim/shard_group.hpp"
#include "topo/dumbbell.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/shard.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace hwatch;
// Host time is what this program measures; no simulated result reads it.
using Clock = std::chrono::steady_clock;  // hwlint: allow(nondeterminism)

// ---- strict option parsing ---------------------------------------------

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "hwbench: " << msg << "\n"
            << "usage: hwbench run --workload W --seed N [--horizon-ms H] "
               "[--workers N] [--setup-only] [--plane P]\n"
            << "       hwbench costs --workload W [--reps N] [--ops N] "
               "[--pending N] [--timers N]\n";
  std::exit(2);
}

/// Parses `raw` as an integer in [lo, hi]; anything else (empty, sign,
/// trailing characters, out of range) exits 2 naming the option.
std::uint64_t parse_count(const std::string& name, const std::string& raw,
                          std::uint64_t lo, std::uint64_t hi) {
  const auto bad = [&](const char* why) {
    usage_error(name + "=\"" + raw + "\": " + why + " (expected an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "])");
  };
  if (raw.empty() || raw.find_first_not_of("0123456789") != std::string::npos) {
    bad("not a non-negative integer");
  }
  if (raw.size() > 19) bad("out of range");
  const std::uint64_t v = std::stoull(raw);
  if (v < lo || v > hi) bad("out of range");
  return v;
}

struct Options {
  std::string mode;
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> horizon_ms;
  std::optional<unsigned> workers;
  bool setup_only = false;
  std::string plane = "off";
  unsigned reps = 9;
  std::uint64_t ops = 200'000;
  std::uint64_t pending = 1;
  std::uint64_t timers = 1;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) usage_error("missing mode");
  Options o;
  o.mode = argv[1];
  if (o.mode != "run" && o.mode != "costs") usage_error("unknown mode " + o.mode);
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string v = argv[++i];
    constexpr std::uint64_t kMax = std::uint64_t{1} << 40;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, v, 0, std::numeric_limits<std::int64_t>::max());
    } else if (flag == "--horizon-ms") {
      o.horizon_ms = parse_count(flag, v, 0, 600'000);
    } else if (flag == "--workers") {
      o.workers = static_cast<unsigned>(parse_count(flag, v, 1, 4));
    } else if (flag == "--plane") {
      if (v != "off" && v != "metrics" && v != "spans" && v != "incidents") {
        usage_error("--plane=\"" + v + "\": expected off|metrics|spans|incidents");
      }
      o.plane = v;
    } else if (flag == "--reps") {
      o.reps = static_cast<unsigned>(parse_count(flag, v, 1, 1000));
    } else if (flag == "--ops") {
      o.ops = parse_count(flag, v, 1, kMax);
    } else if (flag == "--pending") {
      o.pending = parse_count(flag, v, 1, 1u << 24);
    } else if (flag == "--timers") {
      o.timers = parse_count(flag, v, 1, 1u << 24);
    } else {
      usage_error("unknown option " + flag);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (o.mode == "run" && !o.seed) usage_error("--seed is required");
  return o;
}

// ---- spans --------------------------------------------------------------

/// Harness-side spans: one per call into a layer, stamped on the
/// monotonic clock (CLOCK_MONOTONIC, the clock run.py's own spans use).
class SpanLog {
 public:
  template <typename F>
  double time(const char* name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    sim::Json s = sim::Json::object();
    s.set("name", name);
    s.set("ts_us", us(t0));
    s.set("dur_us", us(t1) - us(t0));
    spans_.push_back(std::move(s));
    return std::chrono::duration<double>(t1 - t0).count();
  }
  sim::Json take() { return std::move(spans_); }

 private:
  static double us(Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t.time_since_epoch())
        .count();
  }
  sim::Json spans_ = sim::Json::array();
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Peak RSS of this process image (VmHWM).  Not getrusage's ru_maxrss:
/// that keeps the high-water mark of the address space the parent forked
/// before exec, so it would report the launcher's size for small runs.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

// ---- workloads ----------------------------------------------------------

enum class Kind : std::uint8_t { kDumbbell, kLeafSpine, kFatTree };

/// One benchmark workload: its scenario plus the shape the cost loops
/// copy (the AQM on its congested ports, link rate, RTT, guest TCP and
/// the shim configuration it runs or would run).
struct Workload {
  std::string name;
  Kind kind = Kind::kDumbbell;
  bool shim = false;
  api::DumbbellScenarioConfig dumbbell;
  api::LeafSpineScenarioConfig leaf_spine;
  api::FatTreeScenarioConfig fat_tree;
  api::AqmConfig aqm;
  sim::DataRate rate = sim::DataRate::gbps(10);
  sim::TimePs rtt = sim::microseconds(100);
  tcp::Transport transport = tcp::Transport::kNewReno;
  tcp::TcpConfig tcp;
  core::HWatchConfig hwatch;
};

Workload dumbbell_workload(const std::string& name, bench::Scheme scheme) {
  Workload w;
  w.name = name;
  w.kind = Kind::kDumbbell;
  w.dumbbell = bench::scheme_config(scheme, 50);
  w.shim = w.dumbbell.hwatch_enabled;
  w.aqm = w.dumbbell.core_aqm;
  w.rate = w.dumbbell.bottleneck_rate;
  w.rtt = w.dumbbell.base_rtt;
  w.transport = w.dumbbell.long_groups.front().transport;
  w.tcp = w.dumbbell.long_groups.front().tcp;
  w.hwatch = bench::paper_hwatch(w.rtt);
  return w;
}

/// The Fig. 11 TCP-HWatch testbed (bench/fig11_testbed.cpp), stretched
/// from 5 to 25 request waves so connection handling dominates.
Workload leaf_spine_workload() {
  Workload w;
  w.name = "leafspine-web";
  w.kind = Kind::kLeafSpine;
  api::LeafSpineScenarioConfig& c = w.leaf_spine;
  c.racks = 4;
  c.hosts_per_rack = 21;
  c.link_rate = sim::DataRate::gbps(1);
  c.base_rtt = sim::microseconds(200);
  c.fabric_aqm.kind = api::AqmKind::kRed;
  c.fabric_aqm.buffer_packets = 170;
  c.fabric_aqm.mark_threshold_packets = 34;
  c.fabric_aqm.byte_mode = true;
  c.fabric_aqm.mtu_bytes = 1500;
  c.edge_aqm = c.fabric_aqm;
  c.edge_aqm.kind = api::AqmKind::kDropTail;
  tcp::TcpConfig guest = bench::paper_tcp(tcp::EcnMode::kNone);
  guest.mss = net::kDefaultMss;
  c.bulk_flows = 42;
  c.bulk_template = {tcp::Transport::kNewReno, guest, 0, "iperf"};
  c.web_servers_per_rack = 7;
  c.web_clients = 6;
  c.web.waves = 25;
  c.web.first_wave = sim::milliseconds(300);
  c.web.wave_interval = sim::milliseconds(400);
  c.web.connections_per_pair = 10;
  c.web.object_bytes = 11'500;
  c.web.wave_spread = sim::milliseconds(100);
  c.web_transport = tcp::Transport::kNewReno;
  c.web_tcp = guest;
  c.hwatch_enabled = true;
  c.hwatch = bench::paper_hwatch(c.base_rtt);
  c.hwatch.mss = net::kDefaultMss;
  c.hwatch.min_window_bytes = net::kDefaultMss;
  c.hwatch.pace_synacks = true;
  c.hwatch.synack_batch_size = 1;
  c.hwatch.synack_batch_interval = sim::milliseconds(1);
  c.duration = sim::milliseconds(10'300);
  c.sample_interval = sim::milliseconds(5);
  w.shim = true;
  w.aqm = c.fabric_aqm;
  w.rate = c.link_rate;
  w.rtt = c.base_rtt;
  w.transport = c.web_transport;
  w.tcp = guest;
  w.hwatch = c.hwatch;
  return w;
}

/// The 10240-host k=16 point of bench/fig_fatree_scale.cpp.
Workload fat_tree_workload() {
  Workload w;
  w.name = "fattree-k16";
  w.kind = Kind::kFatTree;
  api::FatTreeScenarioConfig& c = w.fat_tree;
  c.k = 16;
  c.hosts = 10240;
  c.aqm.kind = api::AqmKind::kDctcpStep;
  c.transport = tcp::Transport::kDctcp;
  c.flows_per_host = 1;
  c.flow_bytes = 100'000;
  c.start_spread = sim::milliseconds(20);
  c.tcp.min_rto = sim::milliseconds(10);
  c.tcp.initial_rto = sim::milliseconds(10);
  c.duration = sim::milliseconds(50);
  c.shard_telemetry = false;
  c.shards = 4;
  w.aqm = c.aqm;
  w.rate = c.link_rate;
  w.rtt = c.base_rtt;
  w.transport = c.transport;
  w.tcp = c.tcp;
  w.hwatch = bench::paper_hwatch(w.rtt);
  w.hwatch.mss = w.tcp.mss;
  w.hwatch.min_window_bytes = w.tcp.mss;
  return w;
}

Workload find_workload(const std::string& name) {
  if (name == "dumbbell-hwatch") {
    return dumbbell_workload(name, bench::Scheme::kTcpHWatch);
  }
  if (name == "dumbbell-droptail") {
    return dumbbell_workload(name, bench::Scheme::kTcpDropTail);
  }
  if (name == "leafspine-web") return leaf_spine_workload();
  if (name == "fattree-k16") return fat_tree_workload();
  usage_error("--workload=\"" + name +
              "\": expected dumbbell-hwatch|dumbbell-droptail|leafspine-web|"
              "fattree-k16");
}

// ---- run mode -------------------------------------------------------------

/// FNV-1a over every simulated statistic a speed change must leave
/// untouched: the event count, each flow record, the loss totals, the shim
/// aggregate and the bottleneck queue.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string digest_of(const api::ScenarioResults& r) {
  Digest d;
  d.add(r.events_executed);
  d.add(r.records.size());
  for (const stats::FlowRecord& f : r.records) {
    d.add(f.key.src);
    d.add(f.key.dst);
    d.add(f.key.src_port);
    d.add(f.key.dst_port);
    d.add(f.bytes);
    d.add(f.completed ? 1 : 0);
    d.add(static_cast<std::uint64_t>(f.start_time));
    d.add(static_cast<std::uint64_t>(f.fct));
    d.add(f.retransmits);
    d.add(f.timeouts);
  }
  d.add(r.fabric_drops);
  d.add(r.retransmits);
  d.add(r.timeouts);
  const api::ShimAggregate& s = r.shim;
  for (std::uint64_t v : {s.probes_injected, s.probe_bytes_injected,
                          s.synacks_rewritten, s.acks_rewritten,
                          s.window_decisions, s.flows_tracked}) {
    d.add(v);
  }
  const net::QueueStats& q = r.bottleneck_queue;
  for (std::uint64_t v :
       {q.enqueued, q.dequeued, q.dropped, q.ecn_marked, q.bytes_enqueued,
        q.bytes_dropped, q.max_len_pkts, q.max_len_bytes, q.dropped_data,
        q.dropped_probes, q.dropped_ctrl}) {
    d.add(v);
  }
  return d.hex();
}

/// Outputs a correct run must have whatever the seed: work was done,
/// completed flows carry an FCT, and the shim ran exactly where the
/// workload installs it.  `full` = the workload's own horizon, long
/// enough for flows to finish and the shim to act.
std::vector<std::string> check_results(const Workload& w,
                                       const api::ScenarioResults& r,
                                       bool full) {
  std::vector<std::string> errors;
  std::size_t completed = 0;
  for (const stats::FlowRecord& f : r.records) {
    if (!f.completed) continue;
    ++completed;
    if (f.fct <= 0 || f.fct == sim::kTimeNever) {
      errors.push_back("completed flow without an FCT");
      break;
    }
  }
  if (r.events_executed == 0) errors.push_back("no events executed");
  if (full && completed == 0) errors.push_back("no flow completed");
  if (full && w.shim &&
      (r.shim.probes_injected == 0 || r.shim.acks_rewritten == 0)) {
    errors.push_back("shim installed but never probed or rewrote an ACK");
  }
  if (!w.shim && (r.shim.probes_injected != 0 || r.shim.flows_tracked != 0)) {
    errors.push_back("shim activity on a workload without the shim");
  }
  return errors;
}

std::uint64_t manifest_counter(const sim::RunManifest& m, const char* name) {
  const sim::Json* counters = m.metrics.find("counters");
  const sim::Json* v = counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr ? v->as_uint() : 0;
}

/// Data segments the transport layer sent, derived from the records:
/// ceil(bytes / MSS) per finished flow, the delivered bytes of long-lived
/// flows (goodput x active time), plus every retransmission.
std::uint64_t tcp_segments(const Workload& w, const api::ScenarioResults& r,
                           sim::TimePs horizon) {
  const std::uint64_t mss = w.tcp.mss;
  std::uint64_t segs = r.retransmits;
  for (const stats::FlowRecord& f : r.records) {
    if (f.klass == stats::FlowClass::kLong) {
      const double secs = sim::to_seconds(horizon - f.start_time);
      segs += static_cast<std::uint64_t>(f.goodput_bps * secs / 8.0 /
                                         static_cast<double>(mss));
    } else if (f.completed) {
      segs += (f.bytes + mss - 1) / mss;
    }
  }
  return segs;
}

sim::Json run_mode(const Options& o) {
  const Workload w = find_workload(o.workload);
  const std::uint64_t seed = *o.seed;
  const bool metrics = o.plane == "metrics";
  const bool spans = o.plane == "spans";
  const bool incidents = o.plane == "incidents";

  std::optional<sim::TimePs> horizon;
  if (o.horizon_ms) horizon = sim::milliseconds(static_cast<double>(*o.horizon_ms));
  if (o.setup_only) horizon = 0;

  SpanLog log;
  api::ScenarioResults res;
  sim::TimePs duration = 0;
  unsigned contexts = 1;
  unsigned workers = 1;
  const char* span = o.setup_only ? "setup_s" : "wall_s";
  if (!o.setup_only && o.plane != "off") {
    span = metrics ? "sim.metrics.on_cost"
                   : spans ? "sim.spans.on_cost" : "stats.incidents.on_cost";
  }
  // The same public config flags on every scenario kind.
  const auto configure = [&](auto c) {
    c.seed = seed;
    if (horizon) c.duration = *horizon;
    c.collect_metrics = metrics;
    c.trace_spans = spans;
    c.detect_incidents = incidents;
    duration = c.duration;
    return c;
  };
  double wall = 0;
  switch (w.kind) {
    case Kind::kDumbbell: {
      const auto c = configure(w.dumbbell);
      wall = log.time(span, [&] { res = api::run_dumbbell(c); });
      break;
    }
    case Kind::kLeafSpine: {
      const auto c = configure(w.leaf_spine);
      wall = log.time(span, [&] { res = api::run_leaf_spine(c); });
      break;
    }
    case Kind::kFatTree: {
      auto c = configure(w.fat_tree);
      if (o.workers) c.shards = *o.workers;
      workers = c.shards;
      contexts = c.k * (c.k / 2);  // one shard per edge switch
      wall = log.time(span, [&] { res = api::run_fat_tree_sharded(c); });
      break;
    }
  }

  sim::Json out = sim::Json::object();
  out.set("mode", "run");
  out.set("workload", w.name);
  out.set("seed", seed);
  out.set("plane", o.plane);
  out.set("workers", workers);
  out.set("setup_only", o.setup_only);
  out.set("wall_s", wall);
  out.set("events", res.events_executed);
  out.set("digest", digest_of(res));
  out.set("peak_rss_bytes", peak_rss_bytes());
  sim::Json errors = sim::Json::array();
  if (!o.setup_only && duration > 0) {
    for (std::string& e : check_results(w, res, !o.horizon_ms)) {
      errors.push_back(std::move(e));
    }
  }
  out.set("errors", std::move(errors));

  if (metrics) {
    const sim::RunManifest& m = res.manifest;
    std::vector<double> dump_ms;
    std::size_t dump_bytes = 0;
    for (int i = 0; i < 5; ++i) {
      dump_ms.push_back(1e3 * log.time("stats.manifest_dump_ms", [&] {
        dump_bytes = m.deterministic_dump().size();
      }));
    }
    const sim::Json* epochs = m.results.find("epochs");
    const sim::Json* completed = m.results.find("completed_flows");
    sim::Json c = sim::Json::object();
    c.set("sim.sched.events", manifest_counter(m, "sched.events.executed"));
    c.set("sim.sched.scheduled", manifest_counter(m, "sched.events.scheduled"));
    c.set("sim.sched.cancelled", manifest_counter(m, "sched.events.cancelled"));
    c.set("sim.sched.heap_peak", manifest_counter(m, "sched.heap_peak"));
    c.set("sim.shard.epochs", epochs != nullptr ? epochs->as_uint() : 0);
    c.set("sim.shard.imbalance", res.shard_imbalance);
    c.set("net.link.tx", manifest_counter(m, "sched.events.link_tx"));
    c.set("net.link.prop", manifest_counter(m, "sched.events.link_prop"));
    c.set("net.qdisc.drops", manifest_counter(m, "net.fabric_drops"));
    c.set("net.qdisc.ecn_marked",
          manifest_counter(m, "queue.bottleneck.ecn_marked"));
    c.set("net.shard.ingress_pushed",
          manifest_counter(m, "shard.ingress.pushed"));
    c.set("net.shard.ingress_spilled",
          manifest_counter(m, "shard.ingress.spilled"));
    c.set("tcp.flows_completed",
          completed != nullptr ? completed->as_uint() : 0);
    c.set("tcp.retransmits", manifest_counter(m, "tcp.retransmits"));
    c.set("tcp.timeouts", manifest_counter(m, "tcp.timeouts"));
    c.set("tcp.segments", tcp_segments(w, res, duration));
    c.set("hwatch.rwnd_rewrites", manifest_counter(m, "hwatch.rwnd_rewrites"));
    c.set("hwatch.probe_trains_sent",
          manifest_counter(m, "hwatch.probe_trains_sent"));
    c.set("hwatch.window_decisions",
          manifest_counter(m, "hwatch.window_decisions"));
    c.set("hwatch.checksum_recomputes",
          manifest_counter(m, "hwatch.checksum_recomputes"));
    c.set("workload.flows", res.records.size());
    out.set("counts", std::move(c));
    out.set("contexts", contexts);
    out.set("stats.manifest_dump_ms", median(dump_ms));
    out.set("manifest_bytes", dump_bytes);
  }
  out.set("spans", log.take());
  return out;
}

// ---- costs mode: fabric build and workload install ----------------------

/// A built fabric: the single-context topologies keep their context and
/// network here, the sharded fat-tree owns one per shard.
struct Fabric {
  std::unique_ptr<sim::SimContext> ctx;
  std::unique_ptr<net::Network> net;
  topo::Dumbbell dumbbell;
  topo::LeafSpine leaf_spine;
  std::optional<topo::ShardedFatTree> tree;

  std::size_t hosts() const {
    return tree ? tree->hosts.size() : net->hosts().size();
  }
  std::size_t links() const {
    if (!tree) return net->links().size();
    std::size_t n = 0;
    for (const auto& s : tree->shards) n += s.net->links().size();
    return n;
  }
};

Fabric build_fabric(const Workload& w) {
  Fabric f;
  switch (w.kind) {
    case Kind::kDumbbell: {
      const api::DumbbellScenarioConfig& c = w.dumbbell;
      f.ctx = std::make_unique<sim::SimContext>(c.seed);
      f.net = std::make_unique<net::Network>(*f.ctx);
      topo::DumbbellConfig t;
      t.pairs = c.pairs;
      t.edge_rate = c.edge_rate;
      t.bottleneck_rate = c.bottleneck_rate;
      t.base_rtt = c.base_rtt;
      t.edge_qdisc = c.edge_aqm.make_factory(c.edge_rate);
      t.bottleneck_qdisc = c.core_aqm.make_factory(c.bottleneck_rate);
      f.dumbbell = topo::build_dumbbell(*f.net, t);
      break;
    }
    case Kind::kLeafSpine: {
      const api::LeafSpineScenarioConfig& c = w.leaf_spine;
      f.ctx = std::make_unique<sim::SimContext>(c.seed);
      f.net = std::make_unique<net::Network>(*f.ctx);
      topo::LeafSpineConfig t;
      t.racks = c.racks;
      t.hosts_per_rack = c.hosts_per_rack;
      t.host_rate = c.link_rate;
      t.uplink_rate = c.link_rate;
      t.base_rtt = c.base_rtt;
      t.edge_qdisc = c.edge_aqm.make_factory(c.link_rate);
      t.fabric_qdisc = c.fabric_aqm.make_factory(c.link_rate);
      f.leaf_spine = topo::build_leaf_spine(*f.net, t);
      break;
    }
    case Kind::kFatTree: {
      const api::FatTreeScenarioConfig& c = w.fat_tree;
      topo::ShardedFatTreeConfig t;
      t.k = c.k;
      t.hosts = c.hosts;
      t.link_rate = c.link_rate;
      t.base_rtt = c.base_rtt;
      t.qdisc = c.aqm.make_factory(c.link_rate);
      t.seed = c.seed;
      t.inbox_capacity = c.inbox_capacity;
      f.tree = topo::build_sharded_fat_tree(t);
      break;
    }
  }
  return f;
}

/// The workload's TrafficManager calls on a built fabric, with the same
/// host selection the api runners make.
std::vector<std::unique_ptr<workload::TrafficManager>> install_workload(
    const Workload& w, Fabric& f) {
  std::vector<std::unique_ptr<workload::TrafficManager>> tms;
  switch (w.kind) {
    case Kind::kDumbbell: {
      const api::DumbbellScenarioConfig& c = w.dumbbell;
      auto& tm = *tms.emplace_back(
          std::make_unique<workload::TrafficManager>(*f.net));
      std::uint32_t longs = 0, shorts = 0;
      for (const auto& g : c.long_groups) longs += g.count;
      for (const auto& g : c.short_groups) shorts += g.count;
      const auto& l = f.dumbbell.left;
      const auto& r = f.dumbbell.right;
      workload::add_bulk_flows(tm, {l.begin(), l.begin() + longs},
                               {r.begin(), r.begin() + longs}, c.long_groups,
                               0, c.bulk_start_spread, f.ctx->rng());
      workload::add_incast_epochs(
          tm, {l.begin() + longs, l.begin() + longs + shorts},
          {r.begin() + longs, r.begin() + longs + shorts}, c.short_groups,
          c.incast, f.ctx->rng());
      break;
    }
    case Kind::kLeafSpine: {
      const api::LeafSpineScenarioConfig& c = w.leaf_spine;
      auto& tm = *tms.emplace_back(
          std::make_unique<workload::TrafficManager>(*f.net));
      const auto& hosts = f.leaf_spine.hosts;
      const std::uint32_t recv = c.racks - 1;
      std::vector<net::Host*> bulk_srcs;
      for (std::uint32_t i = 0; i < c.bulk_flows; ++i) {
        const auto& rack = hosts[i % recv];
        bulk_srcs.push_back(rack[(i / recv) % rack.size()]);
      }
      workload::SenderGroup g = c.bulk_template;
      g.count = c.bulk_flows;
      workload::add_bulk_flows(tm, bulk_srcs, hosts[recv], {g}, 0,
                               sim::milliseconds(10), f.ctx->rng());
      std::vector<net::Host*> servers, clients;
      for (std::uint32_t r = 0; r < recv; ++r) {
        for (std::uint32_t h = 0; h < c.web_servers_per_rack; ++h) {
          servers.push_back(hosts[r][h]);
        }
      }
      for (std::uint32_t h = 0; h < c.web_clients; ++h) {
        clients.push_back(hosts[recv][h]);
      }
      workload::add_web_waves(tm, servers, clients, c.web_transport,
                              c.web_tcp, c.web, f.ctx->rng());
      break;
    }
    case Kind::kFatTree: {
      const api::FatTreeScenarioConfig& c = w.fat_tree;
      topo::ShardedFatTree& tree = *f.tree;
      for (auto& s : tree.shards) {
        tms.push_back(std::make_unique<workload::TrafficManager>(*s.net));
      }
      const std::size_t n = tree.hosts.size();
      const std::uint32_t per_edge = tree.plan.hosts_per_edge;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (i + n / 2 + 1) % n;
        workload::FlowSpec spec;
        spec.src = tree.hosts[i];
        spec.dst = tree.hosts[j];
        spec.dst_net = tree.shards[j / per_edge].net.get();
        spec.dst_port = tms[j / per_edge]->next_port(*spec.dst);
        spec.transport = c.transport;
        spec.tcp = c.tcp;
        spec.bytes = c.flow_bytes;
        spec.start = static_cast<sim::TimePs>(
            (static_cast<std::uint64_t>(c.start_spread) * i) / n);
        tms[i / per_edge]->add_flow(spec);
      }
      break;
    }
  }
  return tms;
}

// ---- costs mode: scheduler, queue, link, checksum -----------------------

/// Pending set held at `pending` events: up to 64 of them are live and
/// reschedule themselves as they fire — seven in eight inside the
/// calendar wheel's horizon (link events), one in eight past it (timers)
/// — and the rest stay parked in the heap beyond the run, as flow starts
/// and armed RTOs do in a scenario.  Returns ns per schedule+execute.
double sched_event_ns(std::size_t pending, std::uint64_t ops) {
  struct Loop {
    sim::Scheduler sched;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t left = 0;
    sim::TimePs delta() {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t r = x >> 11;
      const std::uint64_t span = (r & 7) == 0
                                     ? static_cast<std::uint64_t>(sim::milliseconds(1))
                                     : static_cast<std::uint64_t>(sim::kWheelSpanPs);
      return 1 + static_cast<sim::TimePs>((r >> 3) % span);
    }
    void tick() {
      if (left == 0) return;
      --left;
      sched.schedule_in(delta(), [this] { tick(); });
    }
  };
  Loop d;
  const std::size_t live = std::min<std::size_t>(pending, 64);
  const sim::TimePs parked_at = sim::seconds(3600.0);
  for (std::size_t i = live; i < pending; ++i) {
    d.sched.schedule_at(parked_at + static_cast<sim::TimePs>(i), [] {});
  }
  d.left = ops;
  for (std::size_t i = 0; i < live; ++i) {
    d.sched.schedule_in(d.delta(), [&d] { d.tick(); });
  }
  const Clock::time_point t0 = Clock::now();
  d.sched.run_until(parked_at - 1);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  return 1e9 * wall / static_cast<double>(d.sched.executed());
}

/// RTO-style churn: a window of `timers` pending timers one RTO out, each
/// cancelled and re-armed in turn while time advances.  Returns ns per
/// cancel+schedule.
double sched_cancel_ns(std::size_t timers, sim::TimePs rto,
                       std::uint64_t ops) {
  sim::Scheduler sched;
  std::vector<sim::EventId> window(timers);
  std::uint64_t x = 99;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    x = x * 6364136223846793005ull + 1;
    const std::size_t slot = i % timers;
    if (window[slot].valid()) sched.cancel(window[slot]);
    window[slot] = sched.schedule_at(
        sched.now() + rto + static_cast<sim::TimePs>((x >> 11) % rto), [] {});
    if (slot == 0) sched.run_until(sched.now() + sim::microseconds(1));
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  return 1e9 * wall / static_cast<double>(ops);
}

net::Packet data_packet(const Workload& w) {
  net::Packet p;
  p.ip.src = 1;
  p.ip.dst = 2;
  p.ip.ecn = net::Ecn::kEct0;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 80;
  p.tcp.ack_flag = true;
  p.payload_bytes = w.tcp.mss;
  return p;
}

/// Enqueue+dequeue pairs on the workload's AQM, with the queue held at
/// the marking threshold so the mark decision runs.  Returns ns per pair.
double qdisc_op_ns(const Workload& w, std::uint64_t ops) {
  std::unique_ptr<net::QueueDiscipline> q = w.aqm.make_factory(w.rate)();
  const net::Packet p = data_packet(w);
  const sim::TimePs tx = w.rate.transmission_time(p.size_bytes());
  sim::TimePs now = 0;
  for (std::uint64_t i = 0; i < w.aqm.mark_threshold_packets; ++i) {
    net::Packet copy = p;
    q->enqueue(std::move(copy), now);
  }
  std::uint64_t delivered = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += tx;
    net::Packet copy = p;
    q->enqueue(std::move(copy), now);
    if (q->dequeue(now)) ++delivered;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (delivered != ops) throw std::runtime_error("qdisc loop lost packets");
  return 1e9 * wall / static_cast<double>(ops);
}

std::uint16_t g_checksum_sink = 0;

double checksum_adjust_ns(std::uint64_t ops) {
  std::uint64_t x = 7;
  std::uint16_t c = 0x1c46;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    x = x * 6364136223846793005ull + 1;
    c = net::checksum_adjust(c, static_cast<std::uint16_t>(x >> 16),
                             static_cast<std::uint16_t>(x >> 40));
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  g_checksum_sink ^= c;
  return 1e9 * wall / static_cast<double>(ops);
}

/// Work a two-host path did: wall time plus the counts the self-time
/// subtractions need.
struct PathWork {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t hops = 0;      // link deliveries (one qdisc op pair each)
  std::uint64_t segments = 0;  // data segments incl. retransmissions
};

net::QdiscFactory unlimited_droptail() {
  return [] {
    return std::make_unique<net::DropTailQueue>(net::QueueLimits{});
  };
}

/// One packet bouncing between two directly connected hosts for `hops`
/// link traversals.
PathWork ping_pong(const Workload& w, std::uint64_t hops) {
  sim::SimContext ctx(1);
  net::Network net(ctx);
  net::Host& a = net.add_host("a");
  net::Host& b = net.add_host("b");
  net.connect(a, b, w.rate, w.rtt / 2, unlimited_droptail());
  std::uint64_t left = hops;
  const auto bounce = [&left](net::Host& self) {
    return [&left, &self](net::Packet&& p) {
      if (--left == 0) return;
      std::swap(p.ip.src, p.ip.dst);
      self.send(std::move(p));
    };
  };
  a.bind(80, bounce(a));
  b.bind(80, bounce(b));
  net::Packet p = data_packet(w);
  p.ip.src = a.id();
  p.ip.dst = b.id();
  const Clock::time_point t0 = Clock::now();
  a.send(std::move(p));
  ctx.scheduler().run();
  PathWork out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.events = ctx.scheduler().executed();
  for (const auto& l : net.links()) out.hops += l->packets_delivered();
  return out;
}

/// `flows` flows of `bytes` each between two directly connected hosts,
/// started `gap` apart through a TrafficManager; optionally with the shim
/// on both hosts.  Runs until the last flow completes.
PathWork tcp_path(const Workload& w, bool shim, std::uint32_t flows,
                  std::uint64_t bytes, sim::TimePs gap) {
  sim::SimContext ctx(1);
  net::Network net(ctx);
  net::Host& a = net.add_host("a");
  net::Host& b = net.add_host("b");
  net.connect(a, b, w.rate, w.rtt / 2, unlimited_droptail());
  std::vector<std::unique_ptr<core::HypervisorShim>> shims;
  if (shim) {
    shims.push_back(core::install_hwatch(net, a, w.hwatch, ctx.fork_rng()));
    shims.push_back(core::install_hwatch(net, b, w.hwatch, ctx.fork_rng()));
  }
  workload::TrafficManager tm(net);
  std::uint32_t done = 0;
  sim::Scheduler& sched = ctx.scheduler();
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < flows; ++i) {
    workload::FlowSpec spec;
    spec.src = &a;
    spec.dst = &b;
    spec.transport = w.transport;
    spec.tcp = w.tcp;
    spec.bytes = bytes;
    spec.start = gap * i;
    spec.on_complete = [&done, &sched, flows] {
      if (++done == flows) sched.stop();
    };
    tm.add_flow(spec);
  }
  sched.run_until(gap * flows + sim::seconds(60.0));
  PathWork out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (done != flows) throw std::runtime_error("tcp loop: flows unfinished");
  out.events = sched.executed();
  for (const auto& l : net.links()) out.hops += l->packets_delivered();
  const std::uint64_t mss = w.tcp.mss;
  out.segments = flows * ((bytes + mss - 1) / mss) + tm.total_retransmits();
  return out;
}

/// 128 no-op shard tasks (the k=16 partition) on `workers` threads:
/// the bare cost of one drain+run epoch with its two barriers.
double shard_epoch_ns(unsigned workers, std::uint64_t epochs) {
  struct Noop final : sim::ShardTask {
    void drain(sim::TimePs) override {}
    void run(sim::TimePs) override {}
  };
  std::vector<Noop> tasks(128);
  sim::ShardGroup group(workers);
  for (Noop& t : tasks) group.add(&t);
  const sim::TimePs window = sim::microseconds(1);
  const Clock::time_point t0 = Clock::now();
  group.run(window * static_cast<sim::TimePs>(epochs), window);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  return 1e9 * wall / static_cast<double>(group.epochs());
}

sim::Json costs_mode(const Options& o) {
  const Workload w = find_workload(o.workload);
  SpanLog log;
  sim::Json costs = sim::Json::object();
  sim::Json counts = sim::Json::object();
  const unsigned reps = o.reps;
  const auto med = [&](const char* name, auto&& fn) {
    std::vector<double> v;
    for (unsigned r = 0; r < reps; ++r) {
      double x = 0;
      log.time(name, [&] { x = fn(); });
      v.push_back(x);
    }
    return median(v);
  };

  // Fabric first, in a fresh process, so the build is cold (as in a
  // scenario call) and the RSS delta is the fabric's own.
  {
    const std::uint64_t rss0 = resident_bytes();
    std::optional<Fabric> first;
    costs.set("topo.build_s",
              log.time("topo.build_s", [&] { first = build_fabric(w); }));
    const std::uint64_t rss1 = resident_bytes();
    counts.set("topo.links", first->links());
    costs.set("topo.rss_bytes_per_host",
              static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                  static_cast<double>(first->hosts()));
    std::vector<double> install_s;
    for (unsigned r = 0; r < std::min(reps, 3u); ++r) {
      if (!first) first = build_fabric(w);
      std::vector<std::unique_ptr<workload::TrafficManager>> tms;
      install_s.push_back(log.time("workload.install_s",
                                   [&] { tms = install_workload(w, *first); }));
      tms.clear();
      first.reset();
    }
    costs.set("workload.install_s", median(install_s));
  }

  const std::uint64_t ops = o.ops;
  costs.set("sim.sched.event_ns", med("sim.sched.event_ns", [&] {
              return sched_event_ns(o.pending, ops);
            }));
  costs.set("sim.sched.cancel_ns", med("sim.sched.cancel_ns", [&] {
              return sched_cancel_ns(o.timers, w.tcp.min_rto, ops);
            }));
  const double op_ns =
      med("net.qdisc.op_ns", [&] { return qdisc_op_ns(w, ops); });
  costs.set("net.qdisc.op_ns", op_ns);
  costs.set("net.checksum.adjust_ns", med("net.checksum.adjust_ns", [&] {
              return checksum_adjust_ns(10 * ops);
            }));

  // Self times: each loop's wall minus the children it calls, priced at
  // the costs measured above (qdisc pairs, link hops) and at the cost of
  // an event in a pending set as small as a two-host path keeps.
  const double path_event_ns = med("sim.sched.event_ns", [&] {
    return sched_event_ns(4, ops);
  });
  const double hop_ns = med("net.link.hop_ns", [&] {
    const PathWork p = ping_pong(w, ops / 4 + 2);
    return (1e9 * p.wall_s - static_cast<double>(p.events) * path_event_ns -
            static_cast<double>(p.hops) * op_ns) /
           static_cast<double>(p.hops);
  });
  costs.set("net.link.hop_ns", hop_ns);
  const auto path_rest_ns = [&](const PathWork& p) {
    return 1e9 * p.wall_s - static_cast<double>(p.events) * path_event_ns -
           static_cast<double>(p.hops) * (hop_ns + op_ns);
  };

  const std::uint64_t mss = w.tcp.mss;
  const std::uint64_t bulk_segments = std::max<std::uint64_t>(ops / 10, 20);
  const sim::TimePs gap =
      4 * w.rtt + (w.hwatch.pace_synacks ? w.hwatch.synack_batch_interval : 0);
  const std::uint32_t conns =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(ops / 100, 4));
  {
    std::vector<double> seg, shim_seg, con, shim_con;
    for (unsigned r = 0; r < reps; ++r) {
      PathWork off, on;
      log.time("tcp.segment_ns", [&] {
        off = tcp_path(w, false, 1, bulk_segments * mss, 0);
      });
      log.time("hwatch.shim.segment_ns", [&] {
        on = tcp_path(w, true, 1, bulk_segments * mss, 0);
      });
      seg.push_back(path_rest_ns(off) / static_cast<double>(off.segments));
      shim_seg.push_back((path_rest_ns(on) - path_rest_ns(off)) /
                         static_cast<double>(off.segments));
      log.time("tcp.connection_ns",
               [&] { off = tcp_path(w, false, conns, mss, gap); });
      log.time("hwatch.shim.connection_ns",
               [&] { on = tcp_path(w, true, conns, mss, gap); });
      con.push_back((path_rest_ns(off) -
                     static_cast<double>(off.segments) * seg.back()) /
                    conns);
      shim_con.push_back((path_rest_ns(on) - path_rest_ns(off)) / conns);
    }
    costs.set("tcp.segment_ns", median(seg));
    costs.set("tcp.connection_ns", median(con));
    costs.set("hwatch.shim.segment_ns", median(shim_seg));
    costs.set("hwatch.shim.connection_ns", median(shim_con));
  }

  costs.set("sim.shard.epoch_ns", med("sim.shard.epoch_ns", [&] {
              return shard_epoch_ns(4, std::max<std::uint64_t>(ops / 20, 10));
            }));

  sim::Json out = sim::Json::object();
  out.set("mode", "costs");
  out.set("workload", w.name);
  out.set("costs", std::move(costs));
  out.set("counts", std::move(counts));
  // Printed so the checksum loop's result is observable and kept.
  out.set("checksum_sink", g_checksum_sink);
  out.set("spans", log.take());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  try {
    const sim::Json out = o.mode == "run" ? run_mode(o) : costs_mode(o);
    out.dump(std::cout);
    std::cout << "\n";
  } catch (const std::exception& e) {
    std::cerr << "hwbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
