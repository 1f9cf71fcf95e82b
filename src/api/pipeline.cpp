#include "api/pipeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "sim/env.hpp"

namespace hwatch::api {

void RunPlan::apply_env() {
  metrics_dir = std::getenv("HWATCH_METRICS_DIR");
  trace_dir = std::getenv("HWATCH_TRACE_DIR");
  detect = detect || sim::env_flag("HWATCH_INCIDENTS");
  collect = collect || metrics_dir != nullptr || detect;
  trace = trace || trace_dir != nullptr;
  profile = profile || sim::env_flag("HWATCH_PROFILE");
  wall0 = WallClock::now();
}

void RunPlan::enable_planes(sim::SimContext& ctx,
                            std::uint64_t span_id_base) const {
  if (collect) ctx.metrics().set_enabled(true);
  if (trace) {
    ctx.tracer().set_id_base(span_id_base);
    ctx.tracer().set_enabled(true);
  }
  if (profile) ctx.profiler().set_enabled(true);
}

void attach_detector(sim::SimContext& ctx, const net::Network& net,
                     Detectors& doctors) {
  auto doctor = std::make_unique<stats::IncidentDetector>();
  ctx.set_incident_sink(doctor.get());
  for (const auto& l : net.links()) {
    const std::uint32_t id =
        doctor->register_queue(l->name(), l->qdisc().capacity_packets());
    l->qdisc().attach_incident_sink(doctor.get(), id);
  }
  doctors.push_back(std::move(doctor));
}

void install_shims(net::Network& net, const core::HWatchConfig& cfg,
                   sim::Rng& rng, Shims& shims) {
  for (net::Host* host : net.hosts()) {
    shims.push_back(core::install_hwatch(net, *host, cfg, rng.fork()));
  }
}

ShimAggregate aggregate_shims(const Shims& shims) {
  ShimAggregate agg;
  for (const auto& s : shims) {
    agg.probes_injected += s->stats().probes_injected;
    agg.probe_bytes_injected += s->stats().probe_bytes_injected;
    agg.synacks_rewritten += s->stats().synacks_rewritten;
    agg.acks_rewritten += s->stats().acks_rewritten;
    agg.window_decisions += s->stats().window_decisions;
    agg.flows_tracked += s->flow_table().created();
  }
  return agg;
}

void harvest_counters(sim::SimContext& ctx, std::uint64_t fabric_drops,
                      std::uint64_t retransmits, std::uint64_t timeouts) {
  sim::MetricsRegistry& m = ctx.metrics();
  m.counter("net.fabric_drops").inc(fabric_drops);
  m.counter("tcp.retransmits").inc(retransmits);
  m.counter("tcp.timeouts").inc(timeouts);
  const sim::Scheduler& sched = ctx.scheduler();
  m.counter("sched.events.executed").inc(sched.executed());
  m.counter("sched.events.scheduled").inc(sched.scheduled());
  m.counter("sched.events.cancelled").inc(sched.cancelled());
  m.counter("sched.heap_peak").inc(sched.heap_peak());
}

stats::Percentiles record_fct(sim::MetricsRegistry& m,
                              const std::vector<stats::FlowRecord>& records) {
  sim::Histogram& fct = m.histogram(
      "tcp.fct_ms", sim::Histogram::exponential_bounds(0.05, 2.0, 18));
  for (const auto& r : records) {
    if (r.completed) fct.record(r.fct_ms());
  }
  return stats::percentiles(fct);
}

sim::Json aqm_json(const AqmConfig& a) {
  sim::Json j = sim::Json::object();
  j.set("kind", to_string(a.kind));
  j.set("buffer_packets", a.buffer_packets);
  j.set("mark_threshold_packets", a.mark_threshold_packets);
  j.set("byte_mode", a.byte_mode);
  return j;
}

sim::Json results_json(const ScenarioResults& res, const sim::Json& own,
                       const stats::Percentiles& fct) {
  sim::Json j = sim::Json::object();
  j.set("flows", res.records.size());
  std::size_t completed = 0;
  for (const auto& r : res.records) completed += r.completed ? 1 : 0;
  j.set("completed_flows", completed);
  j.set("incomplete_short_flows", res.incomplete_short_flows());
  j.set("fabric_drops", res.fabric_drops);
  j.set("retransmits", res.retransmits);
  j.set("timeouts", res.timeouts);
  j.set("events_executed", res.events_executed);
  for (const auto& [key, value] : own.members()) j.set(key, value);
  sim::Json s = sim::Json::object();
  s.set("probes_injected", res.shim.probes_injected);
  s.set("probe_bytes_injected", res.shim.probe_bytes_injected);
  s.set("synacks_rewritten", res.shim.synacks_rewritten);
  s.set("acks_rewritten", res.shim.acks_rewritten);
  s.set("window_decisions", res.shim.window_decisions);
  s.set("flows_tracked", res.shim.flows_tracked);
  j.set("shim", std::move(s));
  j.set("fct_ms_percentiles", stats::percentiles_json(fct));
  return j;
}

sim::Json series_json(const Samplers& samplers) {
  // Names are unique across samplers: a sharded run's carry their
  // "shard<N>." prefix.
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

void finish_manifest(ScenarioResults& res, const RunPlan& plan,
                     sim::Json config, sim::Json results,
                     const std::vector<sim::SimContext*>& contexts,
                     const Detectors& doctors, const Samplers& samplers) {
  sim::RunManifest& man = res.manifest;
  man.name = plan.label;
  man.scenario_kind = plan.kind;
  man.seed = plan.seed;
  man.config = std::move(config);
  man.results = std::move(results);
  if (plan.detect) {
    // Context-ordered fold; incidents_json() re-sorts globally by
    // (start, kind, location, ...), so the section does not depend on
    // the shard numbering or the worker count.
    std::vector<stats::Incident> all;
    for (std::size_t i = 0; i < doctors.size(); ++i) {
      doctors[i]->finalize(contexts[i]->now());
      all.insert(all.end(), doctors[i]->incidents().begin(),
                 doctors[i]->incidents().end());
    }
    man.incidents = stats::incidents_json(std::move(all));
  }
  std::vector<sim::MetricsSnapshot> parts;
  parts.reserve(contexts.size());
  for (const sim::SimContext* ctx : contexts) {
    parts.push_back(ctx->metrics().snapshot());
  }
  man.metrics = sim::metrics_json(sim::merge_snapshots(parts));
  man.series = series_json(samplers);
  man.wall_time_ms =
      std::chrono::duration<double, std::milli>(WallClock::now() - plan.wall0)
          .count();
  res.has_manifest = true;
  if (plan.metrics_dir != nullptr &&
      man.write_file(plan.metrics_dir).empty()) {
    throw std::runtime_error(
        std::string("HWATCH_METRICS_DIR=\"") + plan.metrics_dir +
        "\": cannot create the directory or write the manifest file; "
        "point HWATCH_METRICS_DIR at a writable path");
  }
}

void write_trace_files(const RunPlan& plan, const ScenarioResults& res) {
  if (plan.trace_dir == nullptr) return;
  const std::string stem = sim::RunManifest::sanitize(plan.label);
  std::error_code ec;
  std::filesystem::create_directories(plan.trace_dir, ec);
  const auto write = [&](const char* suffix, const std::string& body) {
    const std::filesystem::path path =
        std::filesystem::path(plan.trace_dir) / (stem + suffix);
    std::ofstream out(path, std::ios::binary);
    out << body;
    if (!out) {
      throw std::runtime_error(
          std::string("HWATCH_TRACE_DIR=\"") + plan.trace_dir +
          "\": cannot create the directory or write \"" + path.string() +
          "\"; point HWATCH_TRACE_DIR at a writable path");
    }
  };
  write(".spans.jsonl", res.trace_spans_jsonl);
  write(".trace.json", res.trace_chrome);
  if (!res.trace_workers_chrome.empty()) {
    write(".workers.trace.json", res.trace_workers_chrome);
  }
}

void report_profile(const std::vector<sim::SimContext*>& contexts,
                    std::uint64_t run_wall_ns) {
  sim::SelfProfiler merged;
  sim::EventLoopStats loop;
  for (const sim::SimContext* ctx : contexts) {
    merged.merge_from(ctx->profiler());
    const sim::Scheduler& sched = ctx->scheduler();
    loop.events_executed += sched.executed();
    loop.events_scheduled += sched.scheduled();
    loop.heap_peak = std::max(loop.heap_peak, sched.heap_peak());
  }
  loop.wall_ns = run_wall_ns;
  merged.report(std::cerr, &loop);
}

}  // namespace hwatch::api
