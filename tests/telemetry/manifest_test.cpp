#include "telemetry/manifest.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/metrics.hpp"

namespace aropuf::telemetry {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_run_record();
    unsetenv("AROPUF_MANIFEST");
  }
  void TearDown() override {
    reset_run_record();
    unsetenv("AROPUF_MANIFEST");
  }
};

TEST_F(ManifestTest, BuildManifestHasTheSchemaFields) {
  JsonValue::Object config;
  config["chips"] = JsonValue(40);
  const JsonValue m = build_manifest("test-run", JsonValue(std::move(config)));
  ASSERT_TRUE(m.is_object());
  const auto& root = m.as_object();
  EXPECT_EQ(root.at("schema").as_string(), kManifestSchema);
  EXPECT_EQ(root.at("schema_version").as_number(),
            static_cast<double>(kManifestSchemaVersion));
  EXPECT_EQ(root.at("run").as_string(), "test-run");
  EXPECT_TRUE(root.at("created_unix_ms").is_number());
  EXPECT_TRUE(root.at("git_sha").is_string());
  EXPECT_TRUE(root.at("build").as_object().at("simd_compiled").is_bool());
  EXPECT_EQ(root.at("config").as_object().at("chips").as_number(), 40.0);
  // Defaults keep the schema total before any subsystem reports in.
  EXPECT_TRUE(root.at("threads").is_number());
  EXPECT_TRUE(root.at("kernel_backend").is_string());
  EXPECT_TRUE(root.at("stages").is_array());
  EXPECT_TRUE(root.at("metrics").is_object());
}

TEST_F(ManifestTest, RuntimeFieldsOverrideDefaults) {
  set_runtime_field("threads", JsonValue(8));
  set_runtime_field("kernel_backend", JsonValue("batched"));
  const JsonValue m = build_manifest("run", JsonValue(JsonValue::Object{}));
  EXPECT_EQ(m.as_object().at("threads").as_number(), 8.0);
  EXPECT_EQ(m.as_object().at("kernel_backend").as_string(), "batched");
}

TEST_F(ManifestTest, ProcessFieldsSurviveTheRunRecordReset) {
  set_process_field("test.process_fact", JsonValue(3));
  set_runtime_field("test.run_fact", JsonValue(4));
  // A runtime field wins a key it shares with a process field.
  set_process_field("test.shared_fact", JsonValue("process"));
  set_runtime_field("test.shared_fact", JsonValue("runtime"));
  JsonValue m = build_manifest("run", JsonValue(JsonValue::Object{}));
  EXPECT_EQ(m.as_object().at("test.process_fact").as_number(), 3.0);
  EXPECT_EQ(m.as_object().at("test.run_fact").as_number(), 4.0);
  EXPECT_EQ(m.as_object().at("test.shared_fact").as_string(), "runtime");

  reset_run_record();
  m = build_manifest("run", JsonValue(JsonValue::Object{}));
  EXPECT_EQ(m.as_object().at("test.process_fact").as_number(), 3.0);
  EXPECT_FALSE(m.as_object().contains("test.run_fact"));
  EXPECT_EQ(m.as_object().at("test.shared_fact").as_string(), "process");
}

TEST_F(ManifestTest, StageTimerRecordsWallAndCpuTime) {
  {
    const StageTimer stage("unit-test-stage");
  }
  const JsonValue m = build_manifest("run", JsonValue(JsonValue::Object{}));
  const auto& stages = m.as_object().at("stages").as_array();
  ASSERT_EQ(stages.size(), 1U);
  const auto& s = stages[0].as_object();
  EXPECT_EQ(s.at("name").as_string(), "unit-test-stage");
  EXPECT_GE(s.at("wall_ms").as_number(), 0.0);
  EXPECT_GE(s.at("cpu_ms").as_number(), 0.0);
}

TEST_F(ManifestTest, ManifestCarriesTheProfileSection) {
  const JsonValue m = build_manifest("run", JsonValue(JsonValue::Object{}));
  const auto& root = m.as_object();
  // The profile section is unconditional: an unprofiled run says so
  // explicitly ("off"), it does not just omit the key.
  ASSERT_TRUE(root.contains("profile"));
  const auto& profile = root.at("profile").as_object();
  EXPECT_TRUE(profile.contains("mode"));
  EXPECT_TRUE(profile.contains("fallback_reason"));
  EXPECT_GT(profile.at("peak_rss_kib").as_number(), 0.0);
}

TEST_F(ManifestTest, ExplicitStageCountersLandInTheManifest) {
  JsonValue::Object counters;
  counters["cycles"] = JsonValue(12345.0);
  counters["ipc"] = JsonValue(1.25);
  record_stage("counted-stage", 10.0, 9.0, std::move(counters));
  record_stage("plain-stage", 5.0, 4.0);
  const JsonValue m = build_manifest("run", JsonValue(JsonValue::Object{}));
  const auto& stages = m.as_object().at("stages").as_array();
  ASSERT_EQ(stages.size(), 2U);
  const auto& counted = stages[0].as_object();
  ASSERT_TRUE(counted.contains("counters"));
  EXPECT_DOUBLE_EQ(counted.at("counters").as_object().at("ipc").as_number(), 1.25);
  // Stages without counter data stay lean: no empty "counters" stub.
  EXPECT_FALSE(stages[1].as_object().contains("counters"));
}

TEST_F(ManifestTest, WriteManifestRoundTripsThroughTheParser) {
  const std::string path = ::testing::TempDir() + "aropuf_manifest_test.json";
  MetricsRegistry::global().counter("test.manifest.counter").add(5);
  ASSERT_TRUE(write_manifest(path, "round-trip", JsonValue(JsonValue::Object{})));
  const JsonValue parsed = JsonValue::parse(read_file(path));
  EXPECT_EQ(parsed.as_object().at("run").as_string(), "round-trip");
  EXPECT_EQ(parsed.as_object()
                .at("metrics")
                .as_object()
                .at("counters")
                .as_object()
                .at("test.manifest.counter")
                .as_number(),
            5.0);
  std::remove(path.c_str());
}

TEST_F(ManifestTest, WriteManifestFailsCleanlyOnBadPath) {
  EXPECT_FALSE(write_manifest("/nonexistent-dir/m.json", "run", JsonValue(JsonValue::Object{})));
}

TEST_F(ManifestTest, EnvironmentPathWinsOverFallback) {
  const std::string env_path = ::testing::TempDir() + "aropuf_manifest_env.json";
  const std::string fallback_path = ::testing::TempDir() + "aropuf_manifest_fallback.json";
  std::remove(env_path.c_str());
  std::remove(fallback_path.c_str());

  setenv("AROPUF_MANIFEST", env_path.c_str(), 1);
  EXPECT_TRUE(finalize_run("env-run", JsonValue(JsonValue::Object{}), fallback_path));
  EXPECT_FALSE(read_file(env_path).empty());
  EXPECT_TRUE(read_file(fallback_path).empty());
  std::remove(env_path.c_str());

  // Without the env var the fallback receives the manifest.
  unsetenv("AROPUF_MANIFEST");
  EXPECT_TRUE(finalize_run("fallback-run", JsonValue(JsonValue::Object{}), fallback_path));
  const JsonValue parsed = JsonValue::parse(read_file(fallback_path));
  EXPECT_EQ(parsed.as_object().at("run").as_string(), "fallback-run");
  std::remove(fallback_path.c_str());

  // With neither, finalize_run is a successful no-op.
  EXPECT_TRUE(finalize_run("no-run", JsonValue(JsonValue::Object{})));
}

}  // namespace
}  // namespace aropuf::telemetry
