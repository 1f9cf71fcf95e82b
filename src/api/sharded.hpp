// Sharded scenario runner: one large fat-tree fabric executed as a
// conservative-lookahead parallel simulation (one SimContext per edge
// shard, ShardGroup time windows bounded by the minimum cross-shard
// propagation delay).
//
// Where SweepRunner parallelizes ACROSS scenarios (one context per
// sweep point), run_fat_tree_sharded parallelizes WITHIN one scenario.
// The same determinism contract carries over: the logical partition is
// fixed by the topology, worker threads only execute it, so the
// manifest and trace exports are byte-identical for every value of
// `shards` / HWATCH_SHARDS.
#pragma once

#include <cstdint>
#include <string>

#include "api/scenario.hpp"
#include "topo/shard.hpp"

namespace hwatch::api {

struct FatTreeScenarioConfig {
  std::uint32_t k = 8;      // must be even and >= 2
  std::uint32_t hosts = 0;  // total hosts; 0 = classic k^3/4
  sim::DataRate link_rate = sim::DataRate::gbps(10);
  sim::TimePs base_rtt = sim::microseconds(100);
  AqmConfig aqm;  // every port

  /// Permutation workload: host i opens `flows_per_host` short flows of
  /// `flow_bytes` towards host (i + N/2 + 1) mod N — a fixed derangement
  /// that keeps most traffic cross-pod (and therefore cross-shard).
  /// Starts are staggered evenly over [0, start_spread).
  std::uint32_t flows_per_host = 1;
  std::uint64_t flow_bytes = 100'000;
  sim::TimePs start_spread = sim::milliseconds(1);
  tcp::Transport transport = tcp::Transport::kNewReno;
  tcp::TcpConfig tcp;

  bool hwatch_enabled = false;
  core::HWatchConfig hwatch;

  sim::TimePs duration = sim::milliseconds(50);
  /// Gauge-sampling interval (per-shard MetricsSampler ticks on each
  /// shard's own scheduler — deterministic, unlike wall-clock sampling).
  /// Must be > 0 even when metrics are off.
  sim::TimePs sample_interval = sim::milliseconds(1);
  std::uint64_t seed = 1;

  /// Worker threads executing the shards; 0 = HWATCH_SHARDS (or 1 when
  /// unset).  Never changes the logical partition — results are
  /// byte-identical for every value.
  unsigned shards = 0;
  /// Items each cross-shard inbox holds before a push spills (counted
  /// in the manifest as shard.ingress.spilled); see
  /// topo::ShardedFatTreeConfig::inbox_capacity.  Storage grows with
  /// use up to this bound, so raising it only costs memory on links
  /// whose windows actually run that deep.
  std::size_t inbox_capacity = 1024;

  /// Same semantics as the other scenario configs: forced on by
  /// HWATCH_METRICS_DIR / HWATCH_TRACE_DIR respectively.
  bool collect_metrics = false;
  std::string run_label;
  bool trace_spans = false;
  /// Enables the per-shard self-profilers (merged into one stderr
  /// report) plus the shard-telemetry straggler report.  Also forced on
  /// by HWATCH_PROFILE=1.
  bool profile = false;
  /// Enables just the deterministic shard-telemetry counter plane
  /// (results.shard_imbalance and the manifest `shards` section input)
  /// without metrics/gauges/traces — zero extra scheduler events, so
  /// bench event counts stay untouched.  Implied by collect_metrics,
  /// trace_spans, profile and the telemetry env knobs.
  bool shard_telemetry = false;

  /// Enables one stats::IncidentDetector per logical shard and fills
  /// the manifest `incidents` section (shard-ordered fold, globally
  /// sorted — byte-identical across worker counts; implies
  /// collect_metrics).  Also forced on by HWATCH_INCIDENTS=1.
  bool detect_incidents = false;
};

/// Parses HWATCH_SHARDS: 0 when unset; throws std::invalid_argument
/// (naming the variable and value) when set but not a positive integer.
unsigned shards_from_env();

/// Runs the sharded fat-tree scenario.  Flow records are concatenated
/// in shard order; the manifest merges the per-shard registries
/// (counters summed, histograms bucket-merged), carries a `shards`
/// section (per-shard per-epoch telemetry + imbalance stats, schema
/// hwatch.shard_telemetry/v1) and shard-prefixed gauge series; the
/// trace export k-way merges per-shard tracers.  All of it is
/// byte-identical across worker counts.  Wall-clock observability —
/// the per-worker epoch timeline (results.trace_workers_chrome, also
/// written as "<label>.workers.trace.json" under HWATCH_TRACE_DIR),
/// the HWATCH_PROGRESS heartbeat, the HWATCH_EPOCH_BUDGET_MS flight
/// watchdog (dumps hwatch.shard_flight/v1 JSON to HWATCH_FLIGHT_DIR or
/// stderr; HWATCH_FLIGHT_DUMP=1 forces a dump at end of run) — stays
/// out of every deterministic artifact.
ScenarioResults run_fat_tree_sharded(const FatTreeScenarioConfig& cfg);

}  // namespace hwatch::api
