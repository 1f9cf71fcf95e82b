// Golden digests of full runs on the paths the benchmark never takes.
//
// Each GoldenDigest case runs one paper dumbbell for 300 ms with metrics
// on and compares an FNV-1a 64 hash of RunManifest::deterministic_dump()
// with a committed value.  The three configurations cover the SACK
// writer and reader (Extension E2's "+ SACK + LT" guests), the
// strict-priority qdisc (Extension E3's preemption variant) and the
// shim's header rewriting (the Fig. 8 TCP-HWATCH curve).  A pure
// refactor of packet or queue representation must leave all three
// digests unchanged.
//
// Each GoldenArtifacts case runs one scenario runner with every
// deterministic observer on (metrics, spans, incidents) and hashes all
// three artifacts a run writes: the manifest's deterministic dump, the
// span JSONL and the Chrome export.  They pin the run pipeline of the
// dumbbell, leaf-spine and sharded fat-tree runners; the sharded case
// must give one digest at 1 and 4 workers.
//
// There is no auto-update: when behaviour changes on purpose, copy the
// digest a failing case prints into its test below and say why in the
// change log.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "api/sharded.hpp"
#include "fig89_common.hpp"

namespace hwatch {
namespace {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct RunDigest {
  std::string digest;
  std::uint64_t events = 0;
};

/// Runs `cfg` at the golden horizon and hashes its manifest.
RunDigest run_digest(api::DumbbellScenarioConfig cfg) {
  cfg.duration = sim::milliseconds(300);
  cfg.collect_metrics = true;
  const api::ScenarioResults res = api::run_dumbbell(cfg);
  EXPECT_TRUE(res.has_manifest);
  return {hex16(fnv1a64(res.manifest.deterministic_dump())),
          res.events_executed};
}

/// The environment switches observers on and adds manifest sections.
bool observer_env_set() {
  for (const char* v : {"HWATCH_METRICS_DIR", "HWATCH_TRACE_DIR",
                        "HWATCH_INCIDENTS", "HWATCH_PROFILE"}) {
    if (std::getenv(v) != nullptr) return true;
  }
  return false;
}

// Extension E2, "+ SACK + LT": NewReno guests with SACK and limited
// transmit on a DCTCP-step fabric (bench/ext_sack_incast.cpp).
api::DumbbellScenarioConfig sack_lt_config() {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm = cfg.core_aqm;
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  t.sack = true;
  t.limited_transmit = true;
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  return cfg;
}

// Extension E3, "Priority+DSCP" on the paper workload: strict-priority
// switches, the shim stamping short flows urgent and probing nothing
// (bench/ext_priority.cpp).
api::DumbbellScenarioConfig priority_config() {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.core_aqm.kind = api::AqmKind::kPriority;
  cfg.edge_aqm = cfg.core_aqm;
  cfg.hwatch_enabled = true;
  cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  cfg.hwatch.probe_count = 0;
  cfg.hwatch.prioritize_short_flows = true;
  return cfg;
}

class GoldenDigest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (observer_env_set()) {
      GTEST_SKIP() << "an observer env var adds manifest sections";
    }
  }
};

void expect_digest(const api::DumbbellScenarioConfig& cfg,
                   const char* golden) {
  const RunDigest run = run_digest(cfg);
  EXPECT_EQ(run.digest, golden)
      << "manifest changed (" << run.events << " events)";
}

TEST_F(GoldenDigest, SackLimitedTransmit) {
  expect_digest(sack_lt_config(), "122b4581e5cb1cca");
}

TEST_F(GoldenDigest, PriorityQdisc) {
  expect_digest(priority_config(), "8139617aad96e9ec");
}

TEST_F(GoldenDigest, Fig8HWatch) {
  expect_digest(bench::scheme_config(bench::Scheme::kTcpHWatch, 50),
                "b6738818c50fa47c");
}

/// Turns on every observer whose output is deterministic.
template <class Config>
void observe_all(Config& cfg) {
  cfg.collect_metrics = true;
  cfg.trace_spans = true;
  cfg.detect_incidents = true;
}

struct ArtifactDigests {
  std::string manifest;
  std::string spans;
  std::string chrome;
};

ArtifactDigests artifact_digests(const api::ScenarioResults& res) {
  EXPECT_TRUE(res.has_manifest);
  EXPECT_FALSE(res.trace_spans_jsonl.empty());
  EXPECT_NE(res.manifest.incidents.find("schema"), nullptr);
  return {hex16(fnv1a64(res.manifest.deterministic_dump())),
          hex16(fnv1a64(res.trace_spans_jsonl)),
          hex16(fnv1a64(res.trace_chrome))};
}

void expect_artifacts(const api::ScenarioResults& res,
                      const ArtifactDigests& golden) {
  const ArtifactDigests run = artifact_digests(res);
  EXPECT_EQ(run.manifest, golden.manifest)
      << "manifest changed (" << res.events_executed << " events)";
  EXPECT_EQ(run.spans, golden.spans) << "span dump changed";
  EXPECT_EQ(run.chrome, golden.chrome) << "Chrome export changed";
}

// ScenarioTest.LeafSpineSmokeRun's fabric and workload.
api::LeafSpineScenarioConfig leaf_spine_smoke_config() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = tcp::EcnMode::kNone;
  api::LeafSpineScenarioConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  cfg.link_rate = sim::DataRate::gbps(1);
  cfg.fabric_aqm.kind = api::AqmKind::kRed;
  cfg.fabric_aqm.buffer_packets = 100;
  cfg.fabric_aqm.mark_threshold_packets = 20;
  cfg.edge_aqm.kind = api::AqmKind::kDropTail;
  cfg.edge_aqm.buffer_packets = 100;
  cfg.bulk_flows = 4;
  cfg.bulk_template = {tcp::Transport::kNewReno, t, 0, "iperf"};
  cfg.web_servers_per_rack = 2;
  cfg.web_clients = 2;
  cfg.web.waves = 2;
  cfg.web.first_wave = sim::milliseconds(20);
  cfg.web.wave_interval = sim::milliseconds(50);
  cfg.web.connections_per_pair = 2;
  cfg.web.wave_spread = sim::milliseconds(5);
  cfg.web_tcp = t;
  cfg.hwatch_enabled = true;
  cfg.duration = sim::milliseconds(200);
  observe_all(cfg);
  return cfg;
}

// sharded_determinism_test's small_config() with the shim on: a k=4
// fat-tree, 16 hosts in 8 shards, 20 ms.
api::FatTreeScenarioConfig sharded_config(unsigned workers) {
  api::FatTreeScenarioConfig cfg;
  cfg.k = 4;
  cfg.aqm.kind = api::AqmKind::kDctcpStep;
  cfg.flows_per_host = 1;
  cfg.flow_bytes = 50'000;
  cfg.start_spread = sim::milliseconds(1);
  cfg.transport = tcp::Transport::kDctcp;
  cfg.duration = sim::milliseconds(20);
  cfg.seed = 7;
  cfg.run_label = "sharded-determinism";
  cfg.hwatch_enabled = true;
  cfg.shards = workers;
  observe_all(cfg);
  return cfg;
}

class GoldenArtifacts : public GoldenDigest {};

TEST_F(GoldenArtifacts, Fig8HWatchDumbbell) {
  api::DumbbellScenarioConfig cfg =
      bench::scheme_config(bench::Scheme::kTcpHWatch, 50);
  cfg.duration = sim::milliseconds(150);
  observe_all(cfg);
  expect_artifacts(api::run_dumbbell(cfg),
                   {"f6bfbc015c43aae6", "a1da65fdc40e62e6",
                    "9f69f6bb20891181"});
}

TEST_F(GoldenArtifacts, LeafSpineOpenWaves) {
  expect_artifacts(api::run_leaf_spine(leaf_spine_smoke_config()),
                   {"31d08255d8adb2f7", "c47f3a1ab7bf55e4",
                    "be4205895425465b"});
}

TEST_F(GoldenArtifacts, LeafSpineClosedLoop) {
  api::LeafSpineScenarioConfig cfg = leaf_spine_smoke_config();
  cfg.web_pattern = api::LeafSpineScenarioConfig::WebPattern::kClosedLoop;
  expect_artifacts(api::run_leaf_spine(cfg),
                   {"76056204aa4fe77e", "a797357623bb604a",
                    "e28bf0918208b991"});
}

TEST_F(GoldenArtifacts, ShardedFatTreeAtOneAndFourWorkers) {
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    expect_artifacts(api::run_fat_tree_sharded(sharded_config(workers)),
                     {"96557279fb80d471", "907d054f1ec2a3f3",
                      "a4e0835652ac0906"});
  }
}

}  // namespace
}  // namespace hwatch
