// The run pipeline the scenario runners share (internal to src/api).
//
// A RunPlan says what one run observes and where it writes.  Beside it
// sit the set-up and finish steps that do not depend on the topology:
// detectors, shims, counter harvest, the manifest's JSON sections, the
// artifact writers and the self-profile.  A single-context run passes
// one context to the finish steps; a sharded run passes one per logical
// shard, in shard order, so every merged artifact stays a pure function
// of (config, seed) whatever the worker count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "sim/context.hpp"
#include "stats/cdf.hpp"
#include "stats/incident.hpp"
#include "stats/timeseries.hpp"

namespace hwatch::api {

using Shims = std::vector<std::unique_ptr<core::HypervisorShim>>;
using Detectors = std::vector<std::unique_ptr<stats::IncidentDetector>>;
using Samplers = std::vector<std::unique_ptr<stats::MetricsSampler>>;

// Wall-clock time feeds only the manifest `environment` section, which
// RunManifest::deterministic_dump() excludes — simulated time and every
// result field stay seed-derived.
using WallClock = std::chrono::steady_clock;  // hwlint: allow(nondeterminism)

/// What one run observes and where it writes, resolved once from the
/// config's observer flags and the environment:
///   HWATCH_METRICS_DIR  forces metrics on and receives the manifest;
///   HWATCH_TRACE_DIR    forces spans on and receives the trace files;
///   HWATCH_INCIDENTS=1  forces the incident detectors on;
///   HWATCH_PROFILE=1    forces the self-profiler on.
/// Detectors imply metrics.  The two switches take only 0 or 1.
struct RunPlan {
  template <class Config>
  RunPlan(const Config& cfg, const char* run_kind)
      : kind(run_kind),
        seed(cfg.seed),
        label(cfg.run_label.empty()
                  ? std::string(run_kind) + "-seed" + std::to_string(cfg.seed)
                  : cfg.run_label),
        detect(cfg.detect_incidents),
        collect(cfg.collect_metrics),
        trace(cfg.trace_spans),
        profile(cfg.profile) {
    apply_env();
  }

  const char* kind;
  std::uint64_t seed;
  std::string label;  // manifest name and trace-file stem
  bool detect;   // incident detectors and the manifest `incidents`
  bool collect;  // metrics registry, gauges and the manifest
  bool trace;    // span tracer and the trace exports
  bool profile;  // self-profiler report on stderr
  const char* metrics_dir = nullptr;
  const char* trace_dir = nullptr;
  WallClock::time_point wall0;

  /// Turns this plan's planes on in `ctx`.  Sharded runs stripe each
  /// shard's span ids with `span_id_base`.
  void enable_planes(sim::SimContext& ctx,
                     std::uint64_t span_id_base = 0) const;

 private:
  /// Reads the four variables, turns on what they force and starts the
  /// wall clock.
  void apply_env();
};

/// Throws std::invalid_argument naming `config`.sample_interval unless
/// `interval` is positive.  Every sampler re-arms one interval after its
/// tick, so a zero interval never lets a run end and a negative one
/// lands in the scheduler's past.  Runners call it before building.
void require_positive_sample_interval(const char* config,
                                      sim::TimePs interval);

/// Throws std::invalid_argument naming `config`.`field` unless `rate` is
/// positive.  A 0 b/s link takes kTimeNever to serialize a packet, and
/// scheduling its completion that far ahead overflows the clock.
/// Runners call it before building.
void require_positive_rate(const char* config, const char* field,
                           sim::DataRate rate);

/// Gives `ctx` an incident detector that watches every queue of `net`
/// under its link's name, and appends it to `doctors`.
void attach_detector(sim::SimContext& ctx, const net::Network& net,
                     Detectors& doctors);

/// Installs HWatch on every host of `net`, each shim forking `rng`, and
/// appends the shims to `shims`.
void install_shims(net::Network& net, const core::HWatchConfig& cfg,
                   sim::Rng& rng, Shims& shims);

ShimAggregate aggregate_shims(const Shims& shims);

/// Runs `body` and returns its wall time in ns when the plan profiles
/// (0 otherwise).
template <class Body>
std::uint64_t run_timed(const RunPlan& plan, const sim::SelfProfiler& clock,
                        Body&& body) {
  if (!plan.profile) {
    body();
    return 0;
  }
  const std::uint64_t t0 = clock.now_ns();
  body();
  return clock.now_ns() - t0;
}

/// End-of-run harvest of one context: its scheduler totals and the
/// given loss totals become counters in its registry.
void harvest_counters(sim::SimContext& ctx, std::uint64_t fabric_drops,
                      std::uint64_t retransmits, std::uint64_t timeouts);

/// Records every completed flow's FCT in `m`'s tcp.fct_ms histogram and
/// returns its percentiles.
stats::Percentiles record_fct(sim::MetricsRegistry& m,
                              const std::vector<stats::FlowRecord>& records);

sim::Json aqm_json(const AqmConfig& a);

/// The manifest's results section: flow and loss totals, then the
/// runner's own keys in `own`, then the shim aggregate and the FCT
/// percentiles.
sim::Json results_json(const ScenarioResults& res, const sim::Json& own,
                       const stats::Percentiles& fct);

/// Every sampler's gauge series in one name-sorted object.
sim::Json series_json(const Samplers& samplers);

/// Closes each detector's open incidents at its context's time, fills
/// res.manifest (incidents folded in context order, metrics merged over
/// `contexts`) and writes it under HWATCH_METRICS_DIR when set.  Set any
/// runner-only manifest field before the call.
void finish_manifest(ScenarioResults& res, const RunPlan& plan,
                     sim::Json config, sim::Json results,
                     const std::vector<sim::SimContext*>& contexts,
                     const Detectors& doctors, const Samplers& samplers);

/// Writes the serialized traces in `res` under HWATCH_TRACE_DIR when
/// set: "<label>.spans.jsonl", "<label>.trace.json" and, when a worker
/// timeline exists, "<label>.workers.trace.json".
void write_trace_files(const RunPlan& plan, const ScenarioResults& res);

/// Prints one self-profile merged over `contexts` to stderr (wall times
/// never belong in result streams).
void report_profile(const std::vector<sim::SimContext*>& contexts,
                    std::uint64_t run_wall_ns);

}  // namespace hwatch::api
