#include "api/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/shard_channel.hpp"
#include "sim/env.hpp"
#include "sim/self_profiler.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"
#include "stats/cdf.hpp"
#include "stats/incident.hpp"

namespace hwatch::api {

unsigned shards_from_env() {
  return static_cast<unsigned>(
      sim::env_uint("HWATCH_SHARDS", 1, 1024).value_or(0));
}

ShardedRunner::ShardedRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = shards_from_env();
  if (threads_ == 0) threads_ = 1;
}

ScenarioResults ShardedRunner::run(FatTreeScenarioConfig cfg) const {
  cfg.shards = threads_;
  return run_fat_tree_sharded(cfg);
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

// Wall time feeds only the manifest `environment` section (excluded
// from the deterministic dump).
using WallClock = std::chrono::steady_clock;  // hwlint: allow(nondeterminism)

double wall_ms_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
      .count();
}

/// True when `name` is set to anything but "" or "0".
bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' &&
         !(raw[0] == '0' && raw[1] == '\0');
}

sim::Json sharded_aqm_json(const AqmConfig& a) {
  sim::Json j = sim::Json::object();
  j.set("kind", to_string(a.kind));
  j.set("buffer_packets", a.buffer_packets);
  j.set("mark_threshold_packets", a.mark_threshold_packets);
  j.set("byte_mode", a.byte_mode);
  return j;
}

/// Merges every shard's sampler output into one name-sorted series
/// object (names are unique: each carries its "shard<N>." prefix).
sim::Json merged_series_json(
    const std::vector<std::unique_ptr<stats::MetricsSampler>>& samplers) {
  std::vector<const stats::MetricsSampler::GaugeSeries*> sorted;
  for (const auto& sampler : samplers) {
    for (const auto& g : sampler->series()) sorted.push_back(&g);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  sim::Json out = sim::Json::object();
  for (const auto* g : sorted) {
    sim::Json arr = sim::Json::array();
    for (const auto& p : g->series) {
      sim::Json point = sim::Json::array();
      point.push_back(sim::Json(p.time));
      point.push_back(sim::Json(p.value));
      arr.push_back(std::move(point));
    }
    out.set(g->name, std::move(arr));
  }
  return out;
}

}  // namespace

ScenarioResults run_fat_tree_sharded(const FatTreeScenarioConfig& cfg) {
  const char* metrics_dir = std::getenv("HWATCH_METRICS_DIR");
  const bool detect = cfg.detect_incidents || env_flag("HWATCH_INCIDENTS");
  const bool collect =
      cfg.collect_metrics || metrics_dir != nullptr || detect;
  const char* trace_dir = std::getenv("HWATCH_TRACE_DIR");
  const bool trace = cfg.trace_spans || trace_dir != nullptr;
  const bool profile = cfg.profile || env_flag("HWATCH_PROFILE");
  const bool progress = env_flag("HWATCH_PROGRESS");
  const char* flight_dir = std::getenv("HWATCH_FLIGHT_DIR");
  const bool flight_forced = env_flag("HWATCH_FLIGHT_DUMP");
  const std::uint64_t epoch_budget_ms =
      sim::ShardTelemetry::epoch_budget_ms_from_env();
  const WallClock::time_point wall0 = WallClock::now();

  unsigned workers = cfg.shards;
  if (workers == 0) workers = shards_from_env();
  if (workers == 0) workers = 1;

  const std::string label =
      cfg.run_label.empty()
          ? "fat_tree_sharded-seed" + std::to_string(cfg.seed)
          : cfg.run_label;

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

  for (std::size_t s = 0; s < shard_count; ++s) {
    sim::SimContext& ctx = *tree.shards[s].ctx;
    if (collect) ctx.metrics().set_enabled(true);
    if (trace) {
      ctx.tracer().set_id_base(static_cast<std::uint64_t>(s) << 40);
      ctx.tracer().set_enabled(true);
    }
    if (profile) ctx.profiler().set_enabled(true);
  }

  // One incident detector per logical shard: every hook fires on the
  // shard's own context, episode state never crosses a shard boundary,
  // and the end-of-run fold walks the shards in order — so the
  // incidents section is a pure function of (config, seed),
  // byte-identical across worker counts.
  std::vector<std::unique_ptr<stats::IncidentDetector>> doctors;
  if (detect) {
    doctors.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      auto doctor = std::make_unique<stats::IncidentDetector>();
      tree.shards[s].ctx->set_incident_sink(doctor.get());
      for (const auto& l : tree.shards[s].net->links()) {
        const std::uint32_t id = doctor->register_queue(
            l->name(), l->qdisc().capacity_packets());
        l->qdisc().attach_incident_sink(doctor.get(), id);
      }
      doctors.push_back(std::move(doctor));
    }
  }

  // Shard telemetry: deterministic counters whenever the manifest wants
  // them, wall-clock timelines only for the wall-clock consumers.
  const bool wall_spans = trace || profile;
  const bool telemetry_on = cfg.shard_telemetry || collect || wall_spans ||
                            progress || epoch_budget_ms > 0 ||
                            flight_dir != nullptr || flight_forced;
  std::optional<sim::ShardTelemetry> tel;
  if (telemetry_on) {
    sim::ShardTelemetry::Config tc;
    tc.shard_count = shard_count;
    tc.workers = workers;
    tc.label = label;
    tc.lookahead = tree.lookahead;
    tc.wall_spans = wall_spans;
    tc.progress = progress;
    tc.incidents = detect;
    tc.epoch_budget_ms = epoch_budget_ms;
    if (flight_dir != nullptr) tc.flight_dir = flight_dir;
    tel.emplace(std::move(tc));
  }

  // HWatch shims, per shard: each host's shim forks from its own
  // shard's RNG, so the probe schedule is a pure function of
  // (seed, shard), untouched by worker count.
  std::vector<std::unique_ptr<core::HypervisorShim>> shims;
  std::vector<std::pair<std::size_t, std::size_t>> shim_range(shard_count,
                                                             {0, 0});
  if (cfg.hwatch_enabled) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      auto& shard = tree.shards[s];
      shim_range[s].first = shims.size();
      for (net::Host* host : shard.hosts) {
        shims.push_back(core::install_hwatch(*shard.net, *host, cfg.hwatch,
                                             shard.ctx->rng().fork()));
      }
      shim_range[s].second = shims.size();
    }
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
  std::vector<std::unique_ptr<stats::MetricsSampler>> samplers;
  if (collect) {
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
    shard_tasks[s].ctx = tree.shards[s].ctx.get();
    shard_tasks[s].ingress = &tree.shards[s].ingress;
    shard_tasks[s].telemetry = tel ? &*tel : nullptr;
    shard_tasks[s].doctor = detect ? doctors[s].get() : nullptr;
    shard_tasks[s].shard_id = s;
    group.add(&shard_tasks[s]);
  }
  group.set_telemetry(tel ? &*tel : nullptr);
  std::uint64_t run_wall_ns = 0;
  if (profile) {
    const std::uint64_t t0 = tree.shards[0].ctx->profiler().now_ns();
    group.run(cfg.duration, tree.lookahead);
    run_wall_ns = tree.shards[0].ctx->profiler().now_ns() - t0;
  } else {
    group.run(cfg.duration, tree.lookahead);
  }
  if (flight_forced && tel) tel->dump_flight("forced");
  // Close every still-open episode at each shard's own horizon time —
  // shard-local state, so the order of this loop cannot matter.
  for (std::size_t s = 0; s < doctors.size(); ++s) {
    doctors[s]->finalize(tree.shards[s].ctx->now());
  }

  ScenarioResults res;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto records = tms[s]->collect_records();
    res.records.insert(res.records.end(), records.begin(), records.end());
    res.fabric_drops += tree.shards[s].net->total_queue_drops();
    res.retransmits += tms[s]->total_retransmits();
    res.timeouts += tms[s]->total_timeouts();
    res.events_executed += tree.shards[s].ctx->scheduler().executed();
  }
  for (const auto& shim : shims) {
    res.shim.probes_injected += shim->stats().probes_injected;
    res.shim.probe_bytes_injected += shim->stats().probe_bytes_injected;
    res.shim.synacks_rewritten += shim->stats().synacks_rewritten;
    res.shim.acks_rewritten += shim->stats().acks_rewritten;
    res.shim.window_decisions += shim->stats().window_decisions;
    res.shim.flows_tracked += shim->flow_table().created();
  }
  if (tel) res.shard_imbalance = tel->imbalance_ratio();

  if (collect) {
    // Per-shard harvest into each shard's own registry, then a pure
    // merge — no counter ever crosses a context boundary.
    std::uint64_t peak_depth_max = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      sim::MetricsRegistry& m = tree.shards[s].ctx->metrics();
      const sim::Scheduler& sched = tree.shards[s].ctx->scheduler();
      m.counter("sched.events.executed").inc(sched.executed());
      m.counter("sched.events.scheduled").inc(sched.scheduled());
      m.counter("sched.events.cancelled").inc(sched.cancelled());
      m.counter("sched.heap_peak").inc(sched.heap_peak());
      m.counter("net.fabric_drops")
          .inc(tree.shards[s].net->total_queue_drops());
      m.counter("tcp.retransmits").inc(tms[s]->total_retransmits());
      m.counter("tcp.timeouts").inc(tms[s]->total_timeouts());
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
    tree.shards[0].ctx->metrics().counter("shard.ingress.peak_depth")
        .inc(peak_depth_max);
    // FCT histogram over the merged records (bucket counts are
    // order-independent); hosted by shard 0's registry.
    sim::Histogram& fct = tree.shards[0].ctx->metrics().histogram(
        "tcp.fct_ms", sim::Histogram::exponential_bounds(0.05, 2.0, 18));
    for (const auto& r : res.records) {
      if (r.completed) fct.record(r.fct_ms());
    }
    std::vector<sim::MetricsSnapshot> parts;
    parts.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      parts.push_back(tree.shards[s].ctx->metrics().snapshot());
    }

    sim::Json config = sim::Json::object();
    config.set("k", cfg.k);
    config.set("hosts_total", static_cast<std::uint64_t>(n_hosts));
    config.set("hosts_per_edge", hosts_per_edge);
    config.set("link_rate_gbps", cfg.link_rate.gbits_per_sec());
    config.set("base_rtt_ps", cfg.base_rtt);
    config.set("aqm", sharded_aqm_json(cfg.aqm));
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

    sim::Json results = sim::Json::object();
    results.set("flows", res.records.size());
    std::size_t completed = 0;
    for (const auto& r : res.records) completed += r.completed ? 1 : 0;
    results.set("completed_flows", completed);
    results.set("incomplete_short_flows", res.incomplete_short_flows());
    results.set("fabric_drops", res.fabric_drops);
    results.set("retransmits", res.retransmits);
    results.set("timeouts", res.timeouts);
    results.set("events_executed", res.events_executed);
    results.set("epochs", group.epochs());
    results.set("shard_imbalance", res.shard_imbalance);
    sim::Json shim_json = sim::Json::object();
    shim_json.set("probes_injected", res.shim.probes_injected);
    shim_json.set("probe_bytes_injected", res.shim.probe_bytes_injected);
    shim_json.set("synacks_rewritten", res.shim.synacks_rewritten);
    shim_json.set("acks_rewritten", res.shim.acks_rewritten);
    shim_json.set("window_decisions", res.shim.window_decisions);
    shim_json.set("flows_tracked", res.shim.flows_tracked);
    results.set("shim", std::move(shim_json));
    results.set("fct_ms_percentiles",
                stats::percentiles_json(stats::percentiles(fct)));

    sim::RunManifest& man = res.manifest;
    man.name = label;
    man.scenario_kind = "fat_tree_sharded";
    man.seed = cfg.seed;
    man.config = std::move(config);
    man.results = std::move(results);
    if (tel) man.shards = tel->shards_json();
    if (detect) {
      // Shard-ordered fold; incidents_json() re-sorts globally by
      // (start, kind, location, ...), so the result is independent of
      // the partition's shard numbering details and of worker count.
      std::vector<stats::Incident> all;
      for (const auto& d : doctors) {
        all.insert(all.end(), d->incidents().begin(),
                   d->incidents().end());
      }
      man.incidents = stats::incidents_json(std::move(all));
    }
    man.metrics = sim::metrics_json(sim::merge_snapshots(parts));
    man.series = merged_series_json(samplers);
    man.wall_time_ms = wall_ms_since(wall0);
    man.sweep_threads = workers;
    res.has_manifest = true;
    if (metrics_dir != nullptr && man.write_file(metrics_dir).empty()) {
      throw std::runtime_error(
          std::string("HWATCH_METRICS_DIR=\"") + metrics_dir +
          "\": cannot create the directory or write the manifest file; "
          "point HWATCH_METRICS_DIR at a writable path");
    }
  }

  if (trace) {
    std::vector<const sim::SpanTracer*> tracers;
    tracers.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      tree.shards[s].ctx->tracer().close_open_spans(
          tree.shards[s].ctx->now());
      tracers.push_back(&tree.shards[s].ctx->tracer());
    }
    std::ostringstream spans;
    sim::dump_jsonl_merged(tracers, spans);
    res.trace_spans_jsonl = spans.str();
    std::ostringstream chrome;
    sim::export_chrome_merged(tracers, chrome, label);
    res.trace_chrome = chrome.str();
    // The per-worker epoch timeline is wall-clock data: a separate
    // artifact, never merged into the byte-compared exports above.
    if (tel) {
      std::ostringstream wtrace;
      tel->export_chrome_workers(wtrace, label);
      res.trace_workers_chrome = wtrace.str();
    }
    if (trace_dir != nullptr) {
      const std::string stem = sim::RunManifest::sanitize(label);
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      const auto write = [&](const char* suffix, const std::string& body) {
        const std::filesystem::path path =
            std::filesystem::path(trace_dir) / (stem + suffix);
        std::ofstream out(path, std::ios::binary);
        out << body;
        if (!out) {
          throw std::runtime_error(
              std::string("HWATCH_TRACE_DIR=\"") + trace_dir +
              "\": cannot create the directory or write \"" +
              path.string() + "\"; point HWATCH_TRACE_DIR at a writable "
              "path");
        }
      };
      write(".spans.jsonl", res.trace_spans_jsonl);
      write(".trace.json", res.trace_chrome);
      if (!res.trace_workers_chrome.empty()) {
        write(".workers.trace.json", res.trace_workers_chrome);
      }
    }
  }

  if (profile) {
    // One merged self-profile across the shards (stderr: wall times
    // never belong in result streams), then the straggler report.
    sim::SelfProfiler merged;
    sim::EventLoopStats loop;
    for (std::size_t s = 0; s < shard_count; ++s) {
      merged.merge_from(tree.shards[s].ctx->profiler());
      const sim::Scheduler& sched = tree.shards[s].ctx->scheduler();
      loop.events_executed += sched.executed();
      loop.events_scheduled += sched.scheduled();
      loop.heap_peak = std::max(loop.heap_peak, sched.heap_peak());
    }
    loop.wall_ns = run_wall_ns;
    merged.report(std::cerr, &loop);
    if (tel) tel->report(std::cerr);
  }

  return res;
}

}  // namespace hwatch::api
