// Observability acceptance tests: manifest schema sanity, metric
// determinism (same seed => byte-identical deterministic manifest, and
// identical across sweep thread counts), and the artifact files every
// runner writes under HWATCH_METRICS_DIR / HWATCH_TRACE_DIR.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/scenario.hpp"
#include "api/sharded.hpp"
#include "api/sweep.hpp"
#include "sim/json.hpp"

namespace hwatch::api {
namespace {

tcp::TcpConfig quick_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = tcp::EcnMode::kDctcp;
  return t;
}

DumbbellScenarioConfig small_metrics_point(std::uint64_t seed) {
  DumbbellScenarioConfig cfg;
  cfg.pairs = 8;
  cfg.core_aqm.kind = AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 100;
  cfg.core_aqm.mark_threshold_packets = 20;
  cfg.edge_aqm = cfg.core_aqm;
  workload::SenderGroup g{tcp::Transport::kDctcp, quick_tcp(), 4, "dctcp"};
  cfg.long_groups = {g};
  cfg.short_groups = {g};
  cfg.incast.epochs = 2;
  cfg.incast.first_epoch = sim::milliseconds(10);
  cfg.incast.epoch_interval = sim::milliseconds(20);
  cfg.duration = sim::milliseconds(60);
  cfg.seed = seed;
  cfg.hwatch_enabled = true;
  cfg.collect_metrics = true;
  return cfg;
}

const sim::Json* require(const sim::Json& j, const char* key) {
  const sim::Json* v = j.find(key);
  EXPECT_NE(v, nullptr) << "missing key: " << key;
  return v;
}

TEST(ManifestTest, DisabledByDefault) {
  DumbbellScenarioConfig cfg = small_metrics_point(5);
  cfg.collect_metrics = false;
  if (std::getenv("HWATCH_METRICS_DIR") != nullptr) {
    GTEST_SKIP() << "HWATCH_METRICS_DIR set in environment";
  }
  const ScenarioResults res = run_dumbbell(cfg);
  EXPECT_FALSE(res.has_manifest);
}

TEST(ManifestTest, SchemaAndCrossCheckedCounters) {
  const ScenarioResults res = run_dumbbell(small_metrics_point(5));
  ASSERT_TRUE(res.has_manifest);
  const sim::Json j = res.manifest.to_json(true);

  EXPECT_EQ(require(j, "schema")->as_string(), "hwatch.run_manifest/v1");
  EXPECT_EQ(require(j, "scenario_kind")->as_string(), "dumbbell");
  EXPECT_EQ(require(j, "seed")->as_uint(), 5u);
  EXPECT_EQ(require(j, "name")->as_string(), "dumbbell-seed5");
  ASSERT_NE(j.find("config"), nullptr);
  ASSERT_NE(j.find("results"), nullptr);
  ASSERT_NE(j.find("environment"), nullptr);

  // Harvested counters must equal the independently-reported results.
  const sim::Json* counters = require(*require(j, "metrics"), "counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("queue.bottleneck.enqueued")->as_uint(),
            res.bottleneck_queue.enqueued);
  EXPECT_EQ(counters->find("queue.bottleneck.ecn_marked")->as_uint(),
            res.bottleneck_queue.ecn_marked);
  EXPECT_EQ(counters->find("tcp.retransmits")->as_uint(), res.retransmits);
  EXPECT_EQ(counters->find("sched.events.executed")->as_uint(),
            res.events_executed);
  // HWatch live counters exist and saw traffic (hwatch is enabled and
  // every connection's SYN is probed).
  EXPECT_GT(counters->find("hwatch.probe_trains_sent")->as_uint(), 0u);
  EXPECT_GT(counters->find("hwatch.rwnd_rewrites")->as_uint(), 0u);
  EXPECT_GT(counters->find("hwatch.window_decisions")->as_uint(), 0u);

  // Gauge time series exist and line up with the sampler cadence.
  const sim::Json* series = require(j, "series");
  const sim::Json* depth = series->find("queue.bottleneck.depth_pkts");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->size(), 0u);
  // [t_ps, value] pairs with strictly increasing timestamps.
  std::uint64_t last_t = 0;
  for (std::size_t i = 0; i < depth->size(); ++i) {
    ASSERT_EQ(depth->at(i).size(), 2u);
    const std::uint64_t t = depth->at(i).at(0).as_uint();
    EXPECT_GT(t, last_t);
    last_t = t;
  }
  ASSERT_NE(series->find("tcp.bytes_in_flight"), nullptr);
  ASSERT_NE(series->find("hwatch.flow_table_entries"), nullptr);

  // FCT histogram counted every completed flow.
  const sim::Json* fct =
      require(*require(j, "metrics"), "histograms")->find("tcp.fct_ms");
  ASSERT_NE(fct, nullptr);
  std::size_t completed = 0;
  for (const auto& r : res.records) completed += r.completed ? 1 : 0;
  EXPECT_EQ(fct->find("count")->as_uint(), completed);
}

TEST(ManifestTest, SameSeedGivesByteIdenticalDeterministicDump) {
  const ScenarioResults a = run_dumbbell(small_metrics_point(7));
  const ScenarioResults b = run_dumbbell(small_metrics_point(7));
  ASSERT_TRUE(a.has_manifest);
  ASSERT_TRUE(b.has_manifest);
  EXPECT_EQ(a.manifest.deterministic_dump(), b.manifest.deterministic_dump());
  // And a different seed gives a different one (sanity for the above).
  const ScenarioResults c = run_dumbbell(small_metrics_point(8));
  EXPECT_NE(a.manifest.deterministic_dump(), c.manifest.deterministic_dump());
}

TEST(ManifestTest, SweepThreadCountDoesNotChangeManifests) {
  std::vector<DumbbellScenarioConfig> points;
  for (std::uint64_t s : {21ull, 22ull, 23ull, 24ull}) {
    points.push_back(small_metrics_point(s));
  }
  const auto serial = SweepRunner(1).run(points);
  const auto threaded = SweepRunner(4).run(points);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].has_manifest) << i;
    ASSERT_TRUE(threaded[i].has_manifest) << i;
    EXPECT_EQ(serial[i].manifest.deterministic_dump(),
              threaded[i].manifest.deterministic_dump())
        << "sweep point " << i;
    // The non-deterministic environment records the pool size.
    EXPECT_EQ(serial[i].manifest.sweep_threads, 1u);
    EXPECT_EQ(threaded[i].manifest.sweep_threads, 4u);
  }
}

TEST(ManifestTest, MetricsDirWritesParseableFile) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hwatch_manifest_test_out";
  fs::remove_all(dir);

  ::setenv("HWATCH_METRICS_DIR", dir.string().c_str(), 1);
  DumbbellScenarioConfig cfg = small_metrics_point(9);
  cfg.collect_metrics = false;  // the env var alone must switch it on
  cfg.run_label = "env var run/1";
  const ScenarioResults res = run_dumbbell(cfg);
  ::unsetenv("HWATCH_METRICS_DIR");

  ASSERT_TRUE(res.has_manifest);
  const fs::path file = dir / "env_var_run_1.json";
  ASSERT_TRUE(fs::exists(file)) << file;

  std::ifstream in(file);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const sim::Json j = sim::Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(require(j, "schema")->as_string(), "hwatch.run_manifest/v1");
  EXPECT_EQ(require(j, "name")->as_string(), "env var run/1");
  ASSERT_NE(j.find("environment"), nullptr);
  EXPECT_GT(j.find("environment")->find("wall_time_ms")->as_double(), 0.0);

  fs::remove_all(dir);
}

TEST(ManifestTest, MetricsDirCreatesMissingNestedDirectories) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "hwatch_manifest_nested_out";
  fs::remove_all(root);
  const fs::path dir = root / "a" / "b";  // two missing levels

  ::setenv("HWATCH_METRICS_DIR", dir.string().c_str(), 1);
  DumbbellScenarioConfig cfg = small_metrics_point(11);
  cfg.collect_metrics = false;
  cfg.run_label = "nested";
  const ScenarioResults res = run_dumbbell(cfg);
  ::unsetenv("HWATCH_METRICS_DIR");

  ASSERT_TRUE(res.has_manifest);
  EXPECT_TRUE(fs::exists(dir / "nested.json"));
  fs::remove_all(root);
}

/// A path unique to the running test, so parallel ctest processes
/// never share a fixture.
std::filesystem::path test_path(const std::string& suffix) {
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::path(::testing::TempDir()) /
         (std::string(t->test_suite_name()) + "." + t->name() + suffix);
}

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

LeafSpineScenarioConfig small_leaf_spine() {
  LeafSpineScenarioConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.bulk_flows = 1;
  cfg.bulk_template = {tcp::Transport::kDctcp, quick_tcp(), 0, "iperf"};
  cfg.web_servers_per_rack = 1;
  cfg.web_clients = 1;
  cfg.web.waves = 1;
  cfg.web.first_wave = sim::milliseconds(2);
  cfg.web_tcp = quick_tcp();
  cfg.duration = sim::milliseconds(20);
  cfg.sample_interval = sim::milliseconds(5);
  return cfg;
}

FatTreeScenarioConfig small_fat_tree() {
  FatTreeScenarioConfig cfg;
  cfg.k = 4;
  cfg.flow_bytes = 20'000;
  cfg.duration = sim::milliseconds(5);
  cfg.shards = 2;
  return cfg;
}

/// Points `var` at a path under a regular file, which can never become
/// a directory, and expects `run` to fail naming the variable and path.
template <class Run>
void expect_unwritable_dir_throws(const char* var, Run&& run) {
  namespace fs = std::filesystem;
  const fs::path blocker = test_path(".blocker");
  { std::ofstream(blocker.string()) << "not a directory"; }
  const fs::path dir = blocker / "sub";
  {
    const ScopedEnv env(var, dir.string());
    try {
      run();
      ADD_FAILURE() << "expected std::runtime_error for unwritable " << var;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
          << e.what();
    }
  }
  fs::remove(blocker);
}

TEST(ManifestTest, MetricsDirUnwritablePathThrowsNamingTheVariable) {
  // The run must fail loudly, naming HWATCH_METRICS_DIR, instead of
  // silently dropping the manifest.
  expect_unwritable_dir_throws("HWATCH_METRICS_DIR", [] {
    DumbbellScenarioConfig cfg = small_metrics_point(12);
    cfg.collect_metrics = false;
    run_dumbbell(cfg);
  });
}

TEST(ArtifactWrite, LeafSpineUnwritableMetricsDirThrows) {
  expect_unwritable_dir_throws("HWATCH_METRICS_DIR",
                               [] { run_leaf_spine(small_leaf_spine()); });
}

TEST(ArtifactWrite, ShardedUnwritableMetricsDirThrows) {
  expect_unwritable_dir_throws(
      "HWATCH_METRICS_DIR", [] { run_fat_tree_sharded(small_fat_tree()); });
}

TEST(ArtifactWrite, DumbbellUnwritableTraceDirThrows) {
  expect_unwritable_dir_throws("HWATCH_TRACE_DIR", [] {
    DumbbellScenarioConfig cfg = small_metrics_point(13);
    cfg.collect_metrics = false;
    run_dumbbell(cfg);
  });
}

TEST(ArtifactWrite, LeafSpineUnwritableTraceDirThrows) {
  expect_unwritable_dir_throws("HWATCH_TRACE_DIR",
                               [] { run_leaf_spine(small_leaf_spine()); });
}

TEST(ArtifactWrite, ShardedUnwritableTraceDirThrows) {
  expect_unwritable_dir_throws(
      "HWATCH_TRACE_DIR", [] { run_fat_tree_sharded(small_fat_tree()); });
}

TEST(ArtifactWrite, ShardedTraceDirWritesAllThreeTraces) {
  namespace fs = std::filesystem;
  const fs::path dir = test_path(".traces");
  fs::remove_all(dir);
  FatTreeScenarioConfig cfg = small_fat_tree();
  cfg.run_label = "sharded-traces";
  ScenarioResults res;
  {
    const ScopedEnv env("HWATCH_TRACE_DIR", dir.string());
    res = run_fat_tree_sharded(cfg);
  }
  const auto read = [&](const char* name) {
    std::ifstream in(dir / name, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << name;
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
  };
  EXPECT_EQ(read("sharded-traces.spans.jsonl"), res.trace_spans_jsonl);
  EXPECT_EQ(read("sharded-traces.trace.json"), res.trace_chrome);
  EXPECT_FALSE(res.trace_workers_chrome.empty());
  EXPECT_EQ(read("sharded-traces.workers.trace.json"),
            res.trace_workers_chrome);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hwatch::api
