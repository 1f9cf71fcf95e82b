// Golden digests of full runs on the paths the benchmark never takes.
//
// Each case runs one paper dumbbell for 300 ms with metrics on and
// compares an FNV-1a 64 hash of RunManifest::deterministic_dump() with
// a committed value.  The three configurations cover the SACK writer
// and reader (Extension E2's "+ SACK + LT" guests), the strict-priority
// qdisc (Extension E3's preemption variant) and the shim's header
// rewriting (the Fig. 8 TCP-HWATCH curve).  A pure refactor of packet
// or queue representation must leave all three digests unchanged.
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

}  // namespace
}  // namespace hwatch
