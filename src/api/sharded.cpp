#include "api/sharded.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "net/shard_channel.hpp"
#include "sim/env.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"

namespace hwatch::api {

unsigned shards_from_env() {
  return static_cast<unsigned>(
      sim::env_uint("HWATCH_SHARDS", 1, 1024).value_or(0));
}

namespace {

/// One shard's epoch protocol: drain the cross-shard inboxes, then run
/// the local scheduler through the window.  The telemetry hooks cost
/// one predictable null-check each when detached.
struct ShardRun final : sim::ShardTask {
  sim::SimContext* ctx = nullptr;
  std::vector<net::CrossShardChannel*>* ingress = nullptr;
  std::vector<std::pair<net::Node*, net::ShardInbox::Item>> scratch;
  sim::ShardTelemetry* telemetry = nullptr;
  stats::IncidentDetector* doctor = nullptr;
  std::size_t shard_id = 0;

  void drain(sim::TimePs window_start) override {
    if (telemetry != nullptr) {
      // Producers are quiescent across the drain barrier, so the
      // producer-owned counters (pushed / spilled / peak depth) are
      // safe to read here — and ONLY here (see ShardInbox).
      sim::ShardTelemetry::IngressSample in;
      for (const net::CrossShardChannel* ch : *ingress) {
        const net::ShardInbox& inbox = ch->inbox();
        in.pushed += inbox.pushed();
        in.spilled += inbox.spilled();
        in.peak_depth = std::max(in.peak_depth, inbox.peak_depth());
        in.depth += inbox.depth();
      }
      telemetry->shard_drain(shard_id, window_start, in);
    }
    net::drain_cross_shard_channels(*ingress, scratch);
  }
  void run(sim::TimePs window_end) override {
    ctx->scheduler().run_until(window_end);
    if (telemetry != nullptr) {
      telemetry->shard_run(shard_id, window_end,
                           ctx->scheduler().executed());
      if (doctor != nullptr) {
        // Open-episode count for the heartbeat's incident column —
        // sim-time detector state, owner-written like the counters.
        telemetry->shard_incidents(shard_id, doctor->active_count());
      }
    }
  }
};

}  // namespace

ScenarioResults run_fat_tree_sharded(const FatTreeScenarioConfig& cfg) {
  require_positive_sample_interval("FatTreeScenarioConfig",
                                   cfg.sample_interval);
  require_positive_rate("FatTreeScenarioConfig", "link_rate", cfg.link_rate);
  const RunPlan plan(cfg, "fat_tree_sharded");
  const bool progress = sim::env_flag("HWATCH_PROGRESS");
  const char* flight_dir = std::getenv("HWATCH_FLIGHT_DIR");
  const bool flight_forced = sim::env_flag("HWATCH_FLIGHT_DUMP");
  const std::uint64_t epoch_budget_ms =
      sim::ShardTelemetry::epoch_budget_ms_from_env();

  unsigned workers = cfg.shards;
  if (workers == 0) workers = shards_from_env();
  if (workers == 0) workers = 1;

  topo::ShardedFatTreeConfig tcfg;
  tcfg.k = cfg.k;
  tcfg.hosts = cfg.hosts;
  tcfg.link_rate = cfg.link_rate;
  tcfg.base_rtt = cfg.base_rtt;
  tcfg.qdisc = cfg.aqm.make_factory(cfg.link_rate);
  tcfg.seed = cfg.seed;
  tcfg.inbox_capacity = cfg.inbox_capacity;
  topo::ShardedFatTree tree = topo::build_sharded_fat_tree(tcfg);
  const std::size_t shard_count = tree.shards.size();

  // Each shard sets up only its own context, so doing the shards one
  // after another gives every shard the state it would have had from
  // any other order.  One incident detector per logical shard: every
  // hook fires on the shard's own context and episode state never
  // crosses a shard boundary.  Each host's shim forks its own shard's
  // RNG, so the probe schedule is a pure function of (seed, shard).
  std::vector<sim::SimContext*> contexts;
  Detectors doctors;
  Shims shims;
  std::vector<std::pair<std::size_t, std::size_t>> shim_range(shard_count,
                                                             {0, 0});
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto& shard = tree.shards[s];
    contexts.push_back(shard.ctx.get());
    plan.enable_planes(*shard.ctx, static_cast<std::uint64_t>(s) << 40);
    if (plan.detect) attach_detector(*shard.ctx, *shard.net, doctors);
    shim_range[s].first = shims.size();
    if (cfg.hwatch_enabled) {
      install_shims(*shard.net, cfg.hwatch, shard.ctx->rng(), shims);
    }
    shim_range[s].second = shims.size();
  }

  // Shard telemetry: deterministic counters whenever the manifest wants
  // them, wall-clock timelines only for the wall-clock consumers.
  const bool wall_spans = plan.trace || plan.profile;
  const bool telemetry_on = cfg.shard_telemetry || plan.collect ||
                            wall_spans || progress || epoch_budget_ms > 0 ||
                            flight_dir != nullptr || flight_forced;
  std::optional<sim::ShardTelemetry> tel;
  if (telemetry_on) {
    sim::ShardTelemetry::Config tc;
    tc.shard_count = shard_count;
    tc.workers = workers;
    tc.label = plan.label;
    tc.lookahead = tree.lookahead;
    tc.wall_spans = wall_spans;
    tc.progress = progress;
    tc.incidents = plan.detect;
    tc.epoch_budget_ms = epoch_budget_ms;
    if (flight_dir != nullptr) tc.flight_dir = flight_dir;
    tel.emplace(std::move(tc));
  }

  // Permutation workload.  A flow lives in its SOURCE host's shard (the
  // sender runs there); the sink runs in the destination shard, bound
  // to a port allocated by the destination shard's manager.
  std::vector<std::unique_ptr<workload::TrafficManager>> tms;
  tms.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    tms.push_back(
        std::make_unique<workload::TrafficManager>(*tree.shards[s].net));
  }
  const std::size_t n_hosts = tree.hosts.size();
  const std::uint32_t hosts_per_edge = tree.plan.hosts_per_edge;
  const std::uint64_t total_flows =
      static_cast<std::uint64_t>(n_hosts) * cfg.flows_per_host;
  std::uint64_t flow_idx = 0;
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const std::size_t src_shard = i / hosts_per_edge;
    const std::size_t j = (i + n_hosts / 2 + 1) % n_hosts;
    const std::size_t dst_shard = j / hosts_per_edge;
    for (std::uint32_t f = 0; f < cfg.flows_per_host; ++f, ++flow_idx) {
      workload::FlowSpec spec;
      spec.src = tree.hosts[i];
      spec.dst = tree.hosts[j];
      spec.dst_net = tree.shards[dst_shard].net.get();
      spec.dst_port = tms[dst_shard]->next_port(*spec.dst);
      spec.transport = cfg.transport;
      spec.tcp = cfg.tcp;
      spec.bytes = cfg.flow_bytes;
      spec.start = total_flows > 0
                       ? static_cast<sim::TimePs>(
                             (static_cast<std::uint64_t>(cfg.start_spread) *
                              flow_idx) /
                             total_flows)
                       : 0;
      spec.klass = stats::FlowClass::kShort;
      spec.epoch = f;
      tms[src_shard]->add_flow(spec);
    }
  }

  // Per-shard gauges + samplers.  Every closure reads only shard-local
  // deterministic state (the shard's links, transports, shims, and the
  // consumer-side drained counter), and each sampler ticks on its own
  // shard's scheduler — so the series are byte-identical across worker
  // counts.  Inbox DEPTH is deliberately not a gauge: mid-run it
  // depends on producer timing.
  Samplers samplers;
  if (plan.collect) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      auto& shard = tree.shards[s];
      sim::MetricsRegistry& m = shard.ctx->metrics();
      const std::string prefix = "shard" + std::to_string(s) + ".";
      const net::Network* net = shard.net.get();
      m.register_gauge(prefix + "net.queued_pkts_total", [net] {
        std::size_t n = 0;
        for (const auto& l : net->links()) n += l->qdisc().len_packets();
        return static_cast<double>(n);
      });
      const workload::TrafficManager* tm = tms[s].get();
      m.register_gauge(prefix + "tcp.bytes_in_flight", [tm] {
        return static_cast<double>(tm->total_bytes_in_flight());
      });
      const std::vector<net::CrossShardChannel*>* ingress = &shard.ingress;
      m.register_gauge(prefix + "shard.ingress.drained", [ingress] {
        std::uint64_t n = 0;
        for (const net::CrossShardChannel* ch : *ingress) {
          n += ch->inbox().popped();
        }
        return static_cast<double>(n);
      });
      if (cfg.hwatch_enabled) {
        const std::size_t lo = shim_range[s].first;
        const std::size_t hi = shim_range[s].second;
        const auto* all = &shims;
        m.register_gauge(prefix + "hwatch.flow_table_entries",
                         [all, lo, hi] {
                           std::size_t n = 0;
                           for (std::size_t i = lo; i < hi; ++i) {
                             n += (*all)[i]->flow_table().size();
                           }
                           return static_cast<double>(n);
                         });
      }
      samplers.push_back(std::make_unique<stats::MetricsSampler>(
          *shard.ctx, cfg.sample_interval, cfg.duration));
    }
  }

  // Conservative epochs to the horizon.
  std::vector<ShardRun> shard_tasks(shard_count);
  sim::ShardGroup group(workers);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_tasks[s].ctx = contexts[s];
    shard_tasks[s].ingress = &tree.shards[s].ingress;
    shard_tasks[s].telemetry = tel ? &*tel : nullptr;
    shard_tasks[s].doctor = plan.detect ? doctors[s].get() : nullptr;
    shard_tasks[s].shard_id = s;
    group.add(&shard_tasks[s]);
  }
  group.set_telemetry(tel ? &*tel : nullptr);
  const std::uint64_t run_wall_ns =
      run_timed(plan, contexts[0]->profiler(),
                [&] { group.run(cfg.duration, tree.lookahead); });
  if (flight_forced && tel) tel->dump_flight("forced");

  ScenarioResults res;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto records = tms[s]->collect_records();
    res.records.insert(res.records.end(), records.begin(), records.end());
    res.fabric_drops += tree.shards[s].net->total_queue_drops();
    res.retransmits += tms[s]->total_retransmits();
    res.timeouts += tms[s]->total_timeouts();
    res.events_executed += tree.shards[s].ctx->scheduler().executed();
  }
  res.shim = aggregate_shims(shims);
  if (tel) res.shard_imbalance = tel->imbalance_ratio();

  if (plan.collect) {
    // Per-shard harvest into each shard's own registry, then a pure
    // merge — no counter ever crosses a context boundary.
    std::uint64_t peak_depth_max = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      harvest_counters(*contexts[s], tree.shards[s].net->total_queue_drops(),
                       tms[s]->total_retransmits(), tms[s]->total_timeouts());
      sim::MetricsRegistry& m = contexts[s]->metrics();
      std::uint64_t pushed = 0, spilled = 0, drained = 0;
      for (const net::CrossShardChannel* ch : tree.shards[s].ingress) {
        pushed += ch->inbox().pushed();
        spilled += ch->inbox().spilled();
        drained += ch->inbox().popped();
        peak_depth_max =
            std::max(peak_depth_max, ch->inbox().peak_depth());
      }
      m.counter("shard.ingress.pushed").inc(pushed);
      m.counter("shard.ingress.spilled").inc(spilled);
      m.counter("shard.ingress.drained").inc(drained);
    }
    // Global maxima don't merge by summation, so shard 0's registry
    // hosts them (like the FCT histogram below).
    sim::MetricsRegistry& host = contexts[0]->metrics();
    host.counter("shard.ingress.peak_depth").inc(peak_depth_max);
    // FCT histogram over the merged records (bucket counts are
    // order-independent); hosted by shard 0's registry.
    const stats::Percentiles fct = record_fct(host, res.records);

    sim::Json config = sim::Json::object();
    config.set("k", cfg.k);
    config.set("hosts_total", static_cast<std::uint64_t>(n_hosts));
    config.set("hosts_per_edge", hosts_per_edge);
    config.set("link_rate_gbps", cfg.link_rate.gbits_per_sec());
    config.set("base_rtt_ps", cfg.base_rtt);
    config.set("aqm", aqm_json(cfg.aqm));
    config.set("flows_per_host", cfg.flows_per_host);
    config.set("flow_bytes", cfg.flow_bytes);
    config.set("start_spread_ps", cfg.start_spread);
    config.set("transport", tcp::to_string(cfg.transport));
    config.set("hwatch_enabled", cfg.hwatch_enabled);
    config.set("duration_ps", cfg.duration);
    config.set("sample_interval_ps", cfg.sample_interval);
    config.set("seed", cfg.seed);
    config.set("shards_logical", tree.plan.shard_count);
    config.set("lookahead_ps", tree.lookahead);
    config.set("cross_links", tree.cross_links);
    config.set("inbox_capacity",
               static_cast<std::uint64_t>(cfg.inbox_capacity));

    sim::Json own = sim::Json::object();
    own.set("epochs", group.epochs());
    own.set("shard_imbalance", res.shard_imbalance);
    if (tel) res.manifest.shards = tel->shards_json();
    res.manifest.sweep_threads = workers;
    finish_manifest(res, plan, std::move(config),
                    results_json(res, own, fct), contexts, doctors,
                    samplers);
  }

  if (plan.trace) {
    std::vector<const sim::SpanTracer*> tracers;
    tracers.reserve(shard_count);
    for (sim::SimContext* ctx : contexts) {
      ctx->tracer().close_open_spans(ctx->now());
      tracers.push_back(&ctx->tracer());
    }
    std::ostringstream spans;
    sim::dump_jsonl_merged(tracers, spans);
    res.trace_spans_jsonl = spans.str();
    std::ostringstream chrome;
    sim::export_chrome_merged(tracers, chrome, plan.label);
    res.trace_chrome = chrome.str();
    // The per-worker epoch timeline is wall-clock data: a separate
    // artifact, never merged into the byte-compared exports above.
    if (tel) {
      std::ostringstream wtrace;
      tel->export_chrome_workers(wtrace, plan.label);
      res.trace_workers_chrome = wtrace.str();
    }
    write_trace_files(plan, res);
  }

  if (plan.profile) {
    report_profile(contexts, run_wall_ns);
    if (tel) tel->report(std::cerr);
  }

  return res;
}

}  // namespace hwatch::api
