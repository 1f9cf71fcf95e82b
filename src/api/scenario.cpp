#include "api/scenario.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "api/pipeline.hpp"

namespace hwatch::api {

std::string to_string(AqmKind kind) {
  switch (kind) {
    case AqmKind::kDropTail:
      return "droptail";
    case AqmKind::kRed:
      return "red-ecn";
    case AqmKind::kDctcpStep:
      return "dctcp-step";
    case AqmKind::kPriority:
      return "priority2";
  }
  return "?";
}

net::QdiscFactory AqmConfig::make_factory(sim::DataRate link_rate) const {
  const net::QueueLimits limits =
      byte_mode
          ? net::QueueLimits::in_bytes(buffer_packets *
                                       std::uint64_t{mtu_bytes})
          : net::QueueLimits::in_packets(buffer_packets);
  switch (kind) {
    case AqmKind::kDropTail:
      return [limits] { return std::make_unique<net::DropTailQueue>(limits); };
    case AqmKind::kPriority:
      return [limits] { return std::make_unique<net::PriorityQueue>(limits); };
    case AqmKind::kDctcpStep: {
      if (byte_mode) {
        const std::uint64_t k_bytes =
            mark_threshold_packets * std::uint64_t{mtu_bytes};
        return [limits, k_bytes] {
          return std::make_unique<net::DctcpThresholdQueue>(limits, k_bytes);
        };
      }
      return net::make_dctcp_factory(buffer_packets,
                                     mark_threshold_packets);
    }
    case AqmKind::kRed: {
      net::RedConfig red;
      // Floyd-style thresholds around the configured marking point.
      red.min_th_pkts = static_cast<double>(mark_threshold_packets);
      red.max_th_pkts =
          std::max<double>(static_cast<double>(mark_threshold_packets) * 3,
                           mark_threshold_packets + 1.0);
      red.max_p = red_max_p;
      red.weight = red_weight;
      red.gentle = true;
      red.ecn = true;
      red.mean_pkt_time = link_rate.transmission_time(mtu_bytes);
      red.byte_mode = byte_mode;
      red.mean_pkt_bytes = mtu_bytes;
      return [limits, red] {
        return std::make_unique<net::RedQueue>(limits, red);
      };
    }
  }
  throw std::logic_error("unknown AqmKind");
}

std::vector<stats::FlowRecord> ScenarioResults::short_flows() const {
  std::vector<stats::FlowRecord> out;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kShort) out.push_back(r);
  }
  return out;
}

std::vector<stats::FlowRecord> ScenarioResults::long_flows() const {
  std::vector<stats::FlowRecord> out;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kLong) out.push_back(r);
  }
  return out;
}

stats::Cdf ScenarioResults::short_fct_cdf_ms() const {
  return stats::Cdf(stats::fct_ms_samples(short_flows()));
}

stats::Cdf ScenarioResults::long_goodput_cdf_gbps() const {
  return stats::Cdf(stats::goodput_gbps_samples(long_flows()));
}

stats::Cdf ScenarioResults::epoch_mean_fct_cdf_ms() const {
  std::map<std::uint32_t, std::pair<double, std::size_t>> per_epoch;
  for (const auto& r : records) {
    if (r.klass != stats::FlowClass::kShort || !r.completed) continue;
    auto& [sum, n] = per_epoch[r.epoch];
    sum += r.fct_ms();
    ++n;
  }
  stats::Cdf cdf;
  for (const auto& [epoch, acc] : per_epoch) {
    (void)epoch;
    if (acc.second > 0) {
      cdf.add(acc.first / static_cast<double>(acc.second));
    }
  }
  return cdf;
}

double ScenarioResults::mean_utilization() const {
  if (utilization.empty()) return 0;
  double sum = 0;
  for (const auto& p : utilization) sum += p.value;
  return sum / static_cast<double>(utilization.size());
}

std::size_t ScenarioResults::incomplete_short_flows() const {
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kShort && !r.completed) ++n;
  }
  return n;
}

namespace {

/// Attaches the bottleneck depth histogram and registers the live
/// gauges the MetricsSampler snapshots every sample interval.  Gauge
/// closures reference scenario-scope objects; the sampler only fires
/// inside run_until, while they are all alive.
void wire_gauges(sim::SimContext& ctx, net::Link& bottleneck,
                 std::uint64_t buffer_pkts, const net::Network& net,
                 const workload::TrafficManager& tm, const Shims& shims) {
  sim::MetricsRegistry& m = ctx.metrics();
  const double width =
      std::max(1.0, static_cast<double>(buffer_pkts) / 25.0);
  bottleneck.qdisc().attach_depth_histogram(&m.histogram(
      "queue.bottleneck.depth_pkts",
      sim::Histogram::linear_bounds(0, width, 26)));
  m.register_gauge("hwatch.flow_table_entries", [&shims] {
    std::size_t n = 0;
    for (const auto& s : shims) n += s->flow_table().size();
    return static_cast<double>(n);
  });
  m.register_gauge("net.queued_pkts_total", [&net] {
    std::size_t n = 0;
    for (const auto& l : net.links()) n += l->qdisc().len_packets();
    return static_cast<double>(n);
  });
  m.register_gauge("queue.bottleneck.depth_bytes", [&bottleneck] {
    return static_cast<double>(bottleneck.qdisc().len_bytes());
  });
  m.register_gauge("queue.bottleneck.depth_pkts", [&bottleneck] {
    return static_cast<double>(bottleneck.qdisc().len_packets());
  });
  m.register_gauge("tcp.bytes_in_flight", [&tm] {
    return static_cast<double>(tm.total_bytes_in_flight());
  });
}

/// The single-context run both public runners share.
/// `build_topology(net)` builds the fabric and returns its bottleneck
/// link, `add_flows(tm, rng)` adds the workload and `config_json()`
/// describes the scenario for the manifest.  The steps below run in the
/// order in which they first schedule events, so that order is part of
/// every output.
template <class Config, class Topology, class Workload, class ConfigJson>
ScenarioResults run_single_context(const Config& cfg, const char* kind,
                                   std::uint64_t bottleneck_buffer_pkts,
                                   Topology&& build_topology,
                                   Workload&& add_flows,
                                   ConfigJson&& config_json) {
  const RunPlan plan(cfg, kind);
  sim::SimContext ctx(cfg.seed);
  plan.enable_planes(ctx);
  sim::Scheduler& sched = ctx.scheduler();
  net::Network net(ctx);
  net::Link& bottleneck = build_topology(net);

  Detectors doctors;
  if (plan.detect) attach_detector(ctx, net, doctors);
  Shims shims;
  if (cfg.hwatch_enabled) install_shims(net, cfg.hwatch, ctx.rng(), shims);

  workload::TrafficManager tm(net);
  add_flows(tm, ctx.rng());

  auto queue_sampler = stats::make_queue_sampler(
      sched, bottleneck, cfg.sample_interval, cfg.duration);
  stats::UtilizationSampler util_sampler(sched, bottleneck,
                                         cfg.sample_interval, cfg.duration);
  stats::ThroughputSampler tput_sampler(sched, bottleneck,
                                        cfg.sample_interval, cfg.duration);

  Samplers samplers;
  if (plan.collect) {
    wire_gauges(ctx, bottleneck, bottleneck_buffer_pkts, net, tm, shims);
    samplers.push_back(std::make_unique<stats::MetricsSampler>(
        ctx, cfg.sample_interval, cfg.duration));
  }

  const std::uint64_t run_wall_ns = run_timed(
      plan, ctx.profiler(), [&] { sched.run_until(cfg.duration); });

  ScenarioResults res;
  res.records = tm.collect_records();
  res.queue_packets = queue_sampler.series();
  res.utilization = util_sampler.series();
  res.throughput_gbps = tput_sampler.series();
  res.bottleneck_queue = bottleneck.qdisc().stats();
  res.fabric_drops = net.total_queue_drops();
  res.retransmits = tm.total_retransmits();
  res.timeouts = tm.total_timeouts();
  res.events_executed = sched.executed();
  res.shim = aggregate_shims(shims);
  const std::vector<sim::SimContext*> contexts{&ctx};

  if (plan.collect) {
    // Quantities with cheap always-on aggregates (QueueStats, scheduler
    // totals, flow records) become registry metrics here, at zero
    // hot-path cost.
    sim::MetricsRegistry& m = ctx.metrics();
    const net::QueueStats& q = res.bottleneck_queue;
    m.counter("queue.bottleneck.enqueued").inc(q.enqueued);
    m.counter("queue.bottleneck.dequeued").inc(q.dequeued);
    m.counter("queue.bottleneck.dropped").inc(q.dropped);
    m.counter("queue.bottleneck.ecn_marked").inc(q.ecn_marked);
    harvest_counters(ctx, res.fabric_drops, res.retransmits, res.timeouts);
    const stats::Percentiles fct = record_fct(m, res.records);
    sim::Json queue = sim::Json::object();
    queue.set("enqueued", q.enqueued);
    queue.set("dequeued", q.dequeued);
    queue.set("dropped", q.dropped);
    queue.set("ecn_marked", q.ecn_marked);
    queue.set("max_len_pkts", q.max_len_pkts);
    sim::Json own = sim::Json::object();
    own.set("mean_utilization", res.mean_utilization());
    own.set("bottleneck_queue", std::move(queue));
    finish_manifest(res, plan, config_json(), results_json(res, own, fct),
                    contexts, doctors, samplers);
  }
  if (plan.trace) {
    // After the scheduler stops, so none of this touches the hot path.
    ctx.tracer().close_open_spans(ctx.now());
    res.timeline = stats::FlowTimeline::build(ctx.tracer());
    res.has_timeline = true;
    std::ostringstream spans;
    ctx.tracer().dump_jsonl(spans);
    res.trace_spans_jsonl = spans.str();
    std::ostringstream chrome;
    ctx.tracer().export_chrome(chrome, plan.label);
    res.trace_chrome = chrome.str();
    write_trace_files(plan, res);
  }
  if (plan.profile) report_profile(contexts, run_wall_ns);
  return res;
}

}  // namespace

ScenarioResults run_dumbbell(const DumbbellScenarioConfig& cfg) {
  require_positive_sample_interval("DumbbellScenarioConfig",
                                   cfg.sample_interval);
  require_positive_rate("DumbbellScenarioConfig", "edge_rate", cfg.edge_rate);
  require_positive_rate("DumbbellScenarioConfig", "bottleneck_rate",
                        cfg.bottleneck_rate);
  topo::Dumbbell d;
  const auto topology = [&](net::Network& net) -> net::Link& {
    topo::DumbbellConfig topo_cfg;
    topo_cfg.pairs = cfg.pairs;
    topo_cfg.edge_rate = cfg.edge_rate;
    topo_cfg.bottleneck_rate = cfg.bottleneck_rate;
    topo_cfg.base_rtt = cfg.base_rtt;
    topo_cfg.edge_qdisc = cfg.edge_aqm.make_factory(cfg.edge_rate);
    topo_cfg.bottleneck_qdisc =
        cfg.core_aqm.make_factory(cfg.bottleneck_rate);
    d = topo::build_dumbbell(net, topo_cfg);
    return *d.bottleneck;
  };
  const auto flows = [&](workload::TrafficManager& tm, sim::Rng& rng) {
    std::uint32_t long_count = 0;
    for (const auto& g : cfg.long_groups) long_count += g.count;
    std::uint32_t short_count = 0;
    for (const auto& g : cfg.short_groups) short_count += g.count;
    if (long_count + short_count > cfg.pairs) {
      throw std::invalid_argument(
          "dumbbell scenario: more sources requested than host pairs");
    }

    // Long flows use pairs [0, long_count); short flows the next range.
    std::vector<net::Host*> long_srcs(d.left.begin(),
                                      d.left.begin() + long_count);
    std::vector<net::Host*> long_dsts(d.right.begin(),
                                      d.right.begin() + long_count);
    std::vector<net::Host*> short_srcs(
        d.left.begin() + long_count,
        d.left.begin() + long_count + short_count);
    std::vector<net::Host*> short_dsts(
        d.right.begin() + long_count,
        d.right.begin() + long_count + short_count);

    if (long_count > 0) {
      workload::add_bulk_flows(tm, long_srcs, long_dsts, cfg.long_groups, 0,
                               cfg.bulk_start_spread, rng);
    }
    if (short_count > 0) {
      workload::add_incast_epochs(tm, short_srcs, short_dsts,
                                  cfg.short_groups, cfg.incast, rng);
    }
  };
  const auto config = [&] {
    sim::Json j = sim::Json::object();
    j.set("pairs", cfg.pairs);
    j.set("edge_rate_gbps", cfg.edge_rate.gbits_per_sec());
    j.set("bottleneck_rate_gbps", cfg.bottleneck_rate.gbits_per_sec());
    j.set("base_rtt_ps", cfg.base_rtt);
    j.set("edge_aqm", aqm_json(cfg.edge_aqm));
    j.set("core_aqm", aqm_json(cfg.core_aqm));
    j.set("hwatch_enabled", cfg.hwatch_enabled);
    j.set("duration_ps", cfg.duration);
    j.set("sample_interval_ps", cfg.sample_interval);
    j.set("seed", cfg.seed);
    return j;
  };
  return run_single_context(cfg, "dumbbell", cfg.core_aqm.buffer_packets,
                            topology, flows, config);
}

ScenarioResults run_leaf_spine(const LeafSpineScenarioConfig& cfg) {
  require_positive_sample_interval("LeafSpineScenarioConfig",
                                   cfg.sample_interval);
  require_positive_rate("LeafSpineScenarioConfig", "link_rate", cfg.link_rate);
  topo::LeafSpine t;
  const std::uint32_t recv_rack = cfg.racks - 1;
  const auto topology = [&](net::Network& net) -> net::Link& {
    topo::LeafSpineConfig topo_cfg;
    topo_cfg.racks = cfg.racks;
    topo_cfg.hosts_per_rack = cfg.hosts_per_rack;
    topo_cfg.host_rate = cfg.link_rate;
    topo_cfg.uplink_rate = cfg.link_rate;
    topo_cfg.base_rtt = cfg.base_rtt;
    topo_cfg.edge_qdisc = cfg.edge_aqm.make_factory(cfg.link_rate);
    topo_cfg.fabric_qdisc = cfg.fabric_aqm.make_factory(cfg.link_rate);
    t = topo::build_leaf_spine(net, topo_cfg);
    if (cfg.racks < 2) {
      throw std::invalid_argument("leaf-spine scenario needs >= 2 racks");
    }
    // Bottleneck: the spine -> receiving-leaf downlink (single spine).
    return *t.downlinks[recv_rack];
  };
  const auto flows = [&](workload::TrafficManager& tm, sim::Rng& rng) {
    // Bulk flows: round-robin across the sending racks, all towards
    // hosts in the receiving rack (the spine -> leaf[recv_rack] link is
    // the bottleneck, as in the testbed).
    std::vector<net::Host*> bulk_srcs;
    for (std::uint32_t i = 0; i < cfg.bulk_flows; ++i) {
      const std::uint32_t rack = i % recv_rack;
      const auto& rack_hosts = t.hosts[rack];
      bulk_srcs.push_back(rack_hosts[(i / recv_rack) % rack_hosts.size()]);
    }
    std::vector<net::Host*> bulk_dsts(t.hosts[recv_rack].begin(),
                                      t.hosts[recv_rack].end());
    if (cfg.bulk_flows > 0) {
      workload::SenderGroup g = cfg.bulk_template;
      g.count = cfg.bulk_flows;
      workload::add_bulk_flows(tm, bulk_srcs, bulk_dsts, {g}, 0,
                               sim::milliseconds(10), rng);
    }

    // Web servers: the first `web_servers_per_rack` hosts of every
    // sending rack; clients: the first `web_clients` hosts of the
    // receiving rack.
    std::vector<net::Host*> servers;
    for (std::uint32_t r = 0; r < recv_rack; ++r) {
      for (std::uint32_t h = 0;
           h < cfg.web_servers_per_rack && h < t.hosts[r].size(); ++h) {
        servers.push_back(t.hosts[r][h]);
      }
    }
    std::vector<net::Host*> clients;
    for (std::uint32_t h = 0;
         h < cfg.web_clients && h < t.hosts[recv_rack].size(); ++h) {
      clients.push_back(t.hosts[recv_rack][h]);
    }
    if (cfg.web_pattern == LeafSpineScenarioConfig::WebPattern::kOpenWaves) {
      workload::add_web_waves(tm, servers, clients, cfg.web_transport,
                              cfg.web_tcp, cfg.web, rng);
    } else {
      workload::add_closed_loop_web(tm, servers, clients, cfg.web_transport,
                                    cfg.web_tcp, cfg.closed_loop, rng);
    }
  };
  const auto config = [&] {
    sim::Json j = sim::Json::object();
    j.set("racks", cfg.racks);
    j.set("hosts_per_rack", cfg.hosts_per_rack);
    j.set("link_rate_gbps", cfg.link_rate.gbits_per_sec());
    j.set("base_rtt_ps", cfg.base_rtt);
    j.set("edge_aqm", aqm_json(cfg.edge_aqm));
    j.set("fabric_aqm", aqm_json(cfg.fabric_aqm));
    j.set("bulk_flows", cfg.bulk_flows);
    j.set("web_servers_per_rack", cfg.web_servers_per_rack);
    j.set("web_clients", cfg.web_clients);
    j.set("web_pattern",
          cfg.web_pattern == LeafSpineScenarioConfig::WebPattern::kOpenWaves
              ? "open-waves"
              : "closed-loop");
    j.set("hwatch_enabled", cfg.hwatch_enabled);
    j.set("duration_ps", cfg.duration);
    j.set("sample_interval_ps", cfg.sample_interval);
    j.set("seed", cfg.seed);
    return j;
  };
  return run_single_context(cfg, "leaf_spine", cfg.fabric_aqm.buffer_packets,
                            topology, flows, config);
}

}  // namespace hwatch::api
