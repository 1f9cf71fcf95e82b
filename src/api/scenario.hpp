// One-call experiment harness.
//
// ScenarioConfig structs describe the paper's set-ups declaratively
// (topology, AQM, tenant transport mix, workload, HWatch on/off) and
// run_dumbbell / run_leaf_spine execute them, returning per-flow records
// and bottleneck time-series.  Every example and every bench binary goes
// through this API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwatch/shim.hpp"
#include "net/priority_queue.hpp"
#include "net/queue.hpp"
#include "sim/manifest.hpp"
#include "stats/cdf.hpp"
#include "stats/flow_record.hpp"
#include "stats/flow_timeline.hpp"
#include "stats/timeseries.hpp"
#include "tcp/common.hpp"
#include "topo/dumbbell.hpp"
#include "topo/leaf_spine.hpp"
#include "workload/traffic.hpp"

namespace hwatch::api {

enum class AqmKind : std::uint8_t {
  kDropTail = 0,
  kRed,        // RED + ECN marking (gentle)
  kDctcpStep,  // instantaneous step marking at K
  kPriority,   // two-band strict priority by DSCP (preemptive baseline)
};

std::string to_string(AqmKind kind);

struct AqmConfig {
  AqmKind kind = AqmKind::kDropTail;
  /// Paper: 250-packet bottleneck buffer.
  std::uint64_t buffer_packets = 250;
  /// Step-marking threshold K (paper: 20-25% of the buffer).
  std::uint64_t mark_threshold_packets = 50;
  /// RED parameters; thresholds default to DCTCP-inherited settings
  /// (mark aggressively around mark_threshold_packets).
  double red_max_p = 0.1;
  double red_weight = 0.002;

  /// Byte-based buffering (real switch behaviour): the hard bound is
  /// buffer_packets * mtu bytes and marking thresholds scale likewise,
  /// so a 38-byte HWatch probe costs 38 bytes of buffer, not a full
  /// packet slot.  Packet mode reproduces ns-2's queue-in-packets.
  bool byte_mode = false;
  std::uint32_t mtu_bytes = 1500;

  net::QdiscFactory make_factory(sim::DataRate link_rate) const;
};

/// Aggregated HWatch shim counters across all hosts.
struct ShimAggregate {
  std::uint64_t probes_injected = 0;
  std::uint64_t probe_bytes_injected = 0;
  std::uint64_t synacks_rewritten = 0;
  std::uint64_t acks_rewritten = 0;
  std::uint64_t window_decisions = 0;
  std::uint64_t flows_tracked = 0;
};

struct ScenarioResults {
  std::vector<stats::FlowRecord> records;

  stats::TimeSeries queue_packets;   // bottleneck occupancy over time
  stats::TimeSeries utilization;     // bottleneck utilization over time
  stats::TimeSeries throughput_gbps; // delivered rate over time

  net::QueueStats bottleneck_queue;
  std::uint64_t fabric_drops = 0;  // across every queue
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t events_executed = 0;
  ShimAggregate shim;

  /// Filled when metrics collection ran (config flag or
  /// HWATCH_METRICS_DIR); see sim::RunManifest for the schema.
  sim::RunManifest manifest;
  bool has_manifest = false;

  /// Filled when span tracing ran (config flag or HWATCH_TRACE_DIR):
  /// the serialized traces — `trace_chrome` is Chrome trace-event JSON
  /// (schema hwatch.trace_export/v1, loads in Perfetto),
  /// `trace_spans_jsonl` the span JSONL dump — and, from the
  /// single-context runners only, the per-flow breakdown in `timeline`.
  /// run_fat_tree_sharded leaves `timeline` empty and `has_timeline`
  /// false.
  stats::FlowTimeline timeline;
  bool has_timeline = false;
  std::string trace_chrome;
  std::string trace_spans_jsonl;

  /// Sharded runs only: per-worker drain/run/barrier epoch timelines as
  /// Chrome trace-event JSON (same hwatch.trace_export/v1 schema).
  /// Wall-clock data, so it is a SEPARATE artifact — never merged into
  /// `trace_chrome`, which is byte-compared across worker counts.
  std::string trace_workers_chrome;
  /// Sharded runs only: per-epoch max/mean shard-events ratio (1.0 =
  /// perfectly balanced, 0 = no events / not a sharded run).
  /// Deterministic — derived from event counts, not wall time.
  double shard_imbalance = 0.0;

  // ---- convenience views ----
  std::vector<stats::FlowRecord> short_flows() const;
  std::vector<stats::FlowRecord> long_flows() const;
  /// FCTs (ms) of completed short flows.
  stats::Cdf short_fct_cdf_ms() const;
  /// Goodputs (Gb/s) of long flows.
  stats::Cdf long_goodput_cdf_gbps() const;
  /// Per-epoch mean FCT (ms) of short flows — "Avg FCT over the incast
  /// rounds" as the paper's CDFs report.
  stats::Cdf epoch_mean_fct_cdf_ms() const;
  double mean_utilization() const;
  std::size_t incomplete_short_flows() const;
};

struct DumbbellScenarioConfig {
  std::uint32_t pairs = 50;
  sim::DataRate edge_rate = sim::DataRate::gbps(10);
  sim::DataRate bottleneck_rate = sim::DataRate::gbps(10);
  sim::TimePs base_rtt = sim::microseconds(100);

  AqmConfig edge_aqm;  // defaults to a deep drop-tail edge
  AqmConfig core_aqm;

  /// Long-lived tenants (consume the first sources) and short-lived
  /// tenants (consume the following ones).
  std::vector<workload::SenderGroup> long_groups;
  std::vector<workload::SenderGroup> short_groups;
  workload::IncastConfig incast;
  sim::TimePs bulk_start_spread = sim::microseconds(100);

  bool hwatch_enabled = false;
  core::HWatchConfig hwatch;

  sim::TimePs duration = sim::seconds(1.0);
  sim::TimePs sample_interval = sim::milliseconds(1);  // must be > 0
  std::uint64_t seed = 1;

  /// Enables the per-context MetricsRegistry (counters, histograms,
  /// gauge sampling) and fills results.manifest.  Also forced on when
  /// the HWATCH_METRICS_DIR environment variable is set, in which case
  /// the manifest is additionally written to that directory.
  bool collect_metrics = false;
  /// Manifest name / output file stem; "" -> "<kind>-seed<seed>".
  std::string run_label;

  /// Enables the per-context SpanTracer and fills results.timeline /
  /// trace_chrome / trace_spans_jsonl.  Also forced on when the
  /// HWATCH_TRACE_DIR environment variable is set, in which case
  /// "<label>.spans.jsonl" and "<label>.trace.json" are written there.
  bool trace_spans = false;
  /// Enables the self-profiler; the report goes to stderr at end of
  /// run.  Also forced on by HWATCH_PROFILE=1.
  bool profile = false;

  /// Enables the congestion-incident detectors (stats::IncidentDetector)
  /// and fills the manifest `incidents` section (implies
  /// collect_metrics).  Also forced on by HWATCH_INCIDENTS=1.  Off, the
  /// hook sites cost one predictable branch each and the manifest is
  /// byte-identical to a detector-less build.
  bool detect_incidents = false;
};

ScenarioResults run_dumbbell(const DumbbellScenarioConfig& cfg);

struct LeafSpineScenarioConfig {
  std::uint32_t racks = 4;
  std::uint32_t hosts_per_rack = 21;
  sim::DataRate link_rate = sim::DataRate::gbps(1);
  sim::TimePs base_rtt = sim::microseconds(200);

  AqmConfig edge_aqm;
  AqmConfig fabric_aqm;

  /// Bulk (iperf-like) flows from the sending racks towards hosts in the
  /// receiving rack (the last rack).
  std::uint32_t bulk_flows = 42;
  workload::SenderGroup bulk_template;  // count ignored

  /// Web workload: `web_servers_per_rack` servers in each sending rack
  /// answer `web.connections_per_pair` parallel requests from
  /// `web_clients` client hosts in the receiving rack.
  std::uint32_t web_servers_per_rack = 7;
  std::uint32_t web_clients = 6;
  workload::WebWaveConfig web;
  tcp::Transport web_transport = tcp::Transport::kNewReno;
  tcp::TcpConfig web_tcp;

  /// Arrival pattern: open-loop waves (default; epochs of simultaneous
  /// requests) or closed loop (each connection slot fetches objects
  /// back to back, like the testbed's generators).
  enum class WebPattern : std::uint8_t { kOpenWaves = 0, kClosedLoop };
  WebPattern web_pattern = WebPattern::kOpenWaves;
  workload::ClosedLoopConfig closed_loop;

  bool hwatch_enabled = false;
  core::HWatchConfig hwatch;

  sim::TimePs duration = sim::seconds(6.0);
  sim::TimePs sample_interval = sim::milliseconds(5);  // must be > 0
  std::uint64_t seed = 1;

  /// Same semantics as DumbbellScenarioConfig::collect_metrics.
  bool collect_metrics = false;
  std::string run_label;

  /// Same semantics as DumbbellScenarioConfig::trace_spans / profile /
  /// detect_incidents.
  bool trace_spans = false;
  bool profile = false;
  bool detect_incidents = false;
};

ScenarioResults run_leaf_spine(const LeafSpineScenarioConfig& cfg);

}  // namespace hwatch::api
