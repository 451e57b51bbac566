#include "telemetry/prof.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace aropuf::telemetry {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every test starts from a clean slate: no profiling env, no cached mode,
// empty metrics and an empty run record.  The suite must pass identically
// on machines with and without perf_event access — counter-dependent
// assertions are gated on counters_active(), never assumed.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("AROPUF_PROF");
    unsetenv("AROPUF_PROF_RESOURCE");
    unsetenv("AROPUF_PROF_INTERVAL_MS");
    unsetenv("AROPUF_PROF_FORCE_FALLBACK");
    prof_reset_for_test();
    MetricsRegistry::global().reset();
    reset_run_record();
  }
  void TearDown() override {
    unsetenv("AROPUF_PROF");
    unsetenv("AROPUF_PROF_RESOURCE");
    unsetenv("AROPUF_PROF_INTERVAL_MS");
    unsetenv("AROPUF_PROF_FORCE_FALLBACK");
    prof_reset_for_test();
    MetricsRegistry::global().reset();
    reset_run_record();
  }
};

TEST_F(ProfTest, ModeOffByDefault) {
  EXPECT_EQ(prof_status().mode, ProfMode::kOff);
  EXPECT_TRUE(prof_status().fallback_reason.empty());
}

TEST_F(ProfTest, ForcedFallbackRecordsReason) {
  setenv("AROPUF_PROF", "on", 1);
  setenv("AROPUF_PROF_FORCE_FALLBACK", "1", 1);
  prof_reset_for_test();
  EXPECT_EQ(prof_status().mode, ProfMode::kFallback);
  EXPECT_FALSE(prof_status().fallback_reason.empty());
}

TEST_F(ProfTest, ProfOnResolvesToCountersOrFallbackWithReason) {
  setenv("AROPUF_PROF", "on", 1);
  prof_reset_for_test();
  const ProfStatus& status = prof_status();
  // Which branch we land on depends on the machine (PMU, paranoid level),
  // but the downgrade must never be silent.
  if (status.mode == ProfMode::kFallback) {
    EXPECT_FALSE(status.fallback_reason.empty());
  } else {
    EXPECT_EQ(status.mode, ProfMode::kCounters);
    EXPECT_TRUE(status.fallback_reason.empty());
  }
}

// The degraded path is the one CI actually exercises on PMU-less runners.
// A StageTimer is the profiling scope: with profiling off it still measures
// wall time into its stage row but files no prof.* series; what it must
// never do is fabricate hardware numbers.
TEST_F(ProfTest, ScopeInOffModeStillMeasuresWallTime) {
  { const StageTimer stage("off-scope"); }
  const JsonValue manifest = build_manifest("off", JsonValue(JsonValue::Object{}));
  const auto& stages = manifest.as_object().at("stages").as_array();
  ASSERT_EQ(stages.size(), 1U);
  EXPECT_GE(stages[0].as_object().at("wall_ms").as_number(), 0.0);
  EXPECT_FALSE(stages[0].as_object().contains("counters"));
  const JsonValue snap = MetricsRegistry::global().snapshot_json();
  const auto& obj = snap.as_object();
  EXPECT_FALSE(obj.at("counters").as_object().contains("prof.scopes"));
  EXPECT_FALSE(obj.at("histograms").as_object().contains("prof.scope_wall_ms"));
  EXPECT_FALSE(obj.at("counters").as_object().contains("prof.cycles"));
  EXPECT_FALSE(obj.at("gauges").as_object().contains("prof.ipc"));
}

TEST_F(ProfTest, ScopeInFallbackModeStillRecordsWallMetrics) {
  setenv("AROPUF_PROF", "on", 1);
  setenv("AROPUF_PROF_FORCE_FALLBACK", "1", 1);
  prof_reset_for_test();
  { const StageTimer stage("fallback-scope"); }
  const JsonValue snap = MetricsRegistry::global().snapshot_json();
  const auto& obj = snap.as_object();
  EXPECT_EQ(obj.at("counters").as_object().at("prof.scopes").as_number(), 1.0);
  EXPECT_TRUE(obj.at("histograms").as_object().contains("prof.scope_wall_ms"));
  // Hardware series must be absent — a fallback run that fabricates IPC
  // numbers is worse than one that reports none.
  EXPECT_FALSE(obj.at("counters").as_object().contains("prof.cycles"));
  EXPECT_FALSE(obj.at("gauges").as_object().contains("prof.ipc"));
}

TEST_F(ProfTest, DeltaDerivedRatiosGuardAgainstZeroDenominators) {
  CounterDelta d;
  EXPECT_EQ(d.ipc(), 0.0);
  EXPECT_EQ(d.cache_miss_rate(), 0.0);
  EXPECT_EQ(d.ghz(), 0.0);
  d.counters_valid = true;
  d.cache_valid = true;
  d.cycles = 1000;
  d.instructions = 2500;
  d.cache_references = 100;
  d.cache_misses = 25;
  d.task_clock_ms = 0.001;
  EXPECT_DOUBLE_EQ(d.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(d.cache_miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(d.ghz(), 1.0);
  const JsonValue::Object obj = d.to_json();
  EXPECT_TRUE(obj.contains("cycles"));
  EXPECT_TRUE(obj.contains("ipc"));
  EXPECT_TRUE(obj.contains("cache_miss_rate"));
}

TEST_F(ProfTest, FallbackDeltaSerializesOnlyWallAndCpu) {
  CounterDelta d;
  d.wall_ms = 5.0;
  d.cpu_ms = 4.0;
  const JsonValue::Object obj = d.to_json();
  EXPECT_TRUE(obj.contains("wall_ms"));
  EXPECT_TRUE(obj.contains("cpu_ms"));
  EXPECT_FALSE(obj.contains("cycles"));
  EXPECT_FALSE(obj.contains("ipc"));
}

TEST_F(ProfTest, PeakRssIsPositiveAndCoversCurrent) {
  const long peak = peak_rss_kib();
  const long current = current_rss_kib();
  EXPECT_GT(peak, 0);
  EXPECT_GT(current, 0);
  // A process's peak can never be below what it holds right now.
  EXPECT_LE(current, peak + 1024);  // slack: statm and rusage sample at
                                    // different instants
}

TEST_F(ProfTest, ResourceSamplerWritesMonotonicTimeline) {
  const std::string path = ::testing::TempDir() + "aropuf_prof_resource.jsonl";
  std::remove(path.c_str());
  ResourceSampler::Options opts;
  opts.jsonl_path = path;
  opts.interval_ms = 1.0;  // clamps to the 10 ms floor
  opts.chrome_counters = false;
  {
    ResourceSampler sampler(opts);
    EXPECT_DOUBLE_EQ(sampler.interval_ms(), 10.0);
    // First sample is immediate; stop() takes a final one, so >= 2 without
    // ever sleeping a full interval in the test.
    sampler.stop();
    EXPECT_GE(sampler.samples(), 2U);
    EXPECT_TRUE(sampler.ok());
    EXPECT_EQ(sampler.path(), path);
  }
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  double prev_ts = 0.0;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const JsonValue sample = JsonValue::parse(line);
    const auto& obj = sample.as_object();
    const double ts = obj.at("ts_unix_ms").as_number();
    EXPECT_GT(ts, 0.0);
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
    EXPECT_GE(obj.at("rss_kib").as_number(), 0.0);
    EXPECT_GE(obj.at("peak_rss_kib").as_number(), obj.at("rss_kib").as_number());
    EXPECT_GE(obj.at("cpu_user_ms").as_number(), 0.0);
    EXPECT_GE(obj.at("cpu_sys_ms").as_number(), 0.0);
    EXPECT_GE(obj.at("threads").as_number(), 1.0);
    ++count;
  }
  EXPECT_GE(count, 2);
  std::remove(path.c_str());
}

TEST_F(ProfTest, ResourceSamplerLatchesStreamFailure) {
  // A missing parent directory is created on demand, so an unopenable path
  // needs a parent that exists as a plain file — that fails everywhere,
  // including when the suite runs as root.
  const std::string blocker = ::testing::TempDir() + "aropuf_prof_notadir";
  { std::ofstream make(blocker, std::ios::trunc); }
  ResourceSampler::Options opts;
  opts.jsonl_path = blocker + "/resource.jsonl";
  opts.chrome_counters = false;
  ResourceSampler sampler(opts);
  sampler.stop();
  EXPECT_FALSE(sampler.ok());
  std::remove(blocker.c_str());
}

TEST_F(ProfTest, ManifestProfileSectionAlwaysWellFormed) {
  const JsonValue section = profile_manifest_section();
  const auto& obj = section.as_object();
  EXPECT_EQ(obj.at("mode").as_string(), "off");
  EXPECT_TRUE(obj.contains("fallback_reason"));
  EXPECT_GT(obj.at("peak_rss_kib").as_number(), 0.0);
}

TEST_F(ProfTest, ForcedFallbackManifestSectionCarriesReason) {
  setenv("AROPUF_PROF", "on", 1);
  setenv("AROPUF_PROF_FORCE_FALLBACK", "1", 1);
  prof_reset_for_test();
  start_process_profile();
  EXPECT_TRUE(stop_process_profile());
  const JsonValue section = profile_manifest_section();
  const auto& obj = section.as_object();
  EXPECT_EQ(obj.at("mode").as_string(), "fallback");
  EXPECT_FALSE(obj.at("fallback_reason").as_string().empty());
}

TEST_F(ProfTest, ProcessProfileStartsSamplerFromResourceEnv) {
  const std::string path = ::testing::TempDir() + "aropuf_prof_env.jsonl";
  std::remove(path.c_str());
  setenv("AROPUF_PROF_RESOURCE", path.c_str(), 1);
  setenv("AROPUF_PROF_INTERVAL_MS", "10", 1);
  prof_reset_for_test();
  start_process_profile();
  start_process_profile();  // idempotent
  EXPECT_TRUE(stop_process_profile());
  const JsonValue section = profile_manifest_section();
  const auto& obj = section.as_object();
  ASSERT_TRUE(obj.contains("sampler"));
  const auto& sampler = obj.at("sampler").as_object();
  EXPECT_DOUBLE_EQ(sampler.at("interval_ms").as_number(), 10.0);
  EXPECT_GE(sampler.at("samples").as_number(), 1.0);
  EXPECT_TRUE(sampler.at("ok").as_bool());
  EXPECT_FALSE(read_file(path).empty());
  std::remove(path.c_str());
}

TEST_F(ProfTest, StopWithoutStartIsSafe) {
  EXPECT_TRUE(stop_process_profile());
}

}  // namespace
}  // namespace aropuf::telemetry
