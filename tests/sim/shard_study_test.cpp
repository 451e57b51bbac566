#include "sim/shard_study.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/delay_kernel.hpp"
#include "common/statistics.hpp"
#include "sim/parallel.hpp"
#include "sim/study_report.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof.hpp"

namespace aropuf {
namespace {

struct GlobalThreadCountGuard {
  ~GlobalThreadCountGuard() { ParallelExecutor::set_global_thread_count(0); }
};

ShardStudyConfig small_config() {
  ShardStudyConfig cfg;
  cfg.pop.chips = 6;
  cfg.pop.seed = 77;
  cfg.checkpoints = {1.0, 5.0};
  return cfg;
}

/// Wraps one shard's study result in the minimal manifest the aggregator
/// accepts, mirroring what run_shard_job writes.
telemetry::ShardManifest to_manifest(const ShardStudyConfig& cfg, std::size_t index,
                                     std::size_t count, const ShardStudyResult& result) {
  JsonValue::Object doc;
  doc["schema"] = JsonValue(telemetry::kManifestSchema);
  doc["schema_version"] = JsonValue(telemetry::kManifestSchemaVersion);
  doc["run"] = JsonValue("study_test");
  doc["config"] = study_config_json(cfg);
  JsonValue::Object shard;
  shard["index"] = JsonValue(static_cast<std::uint64_t>(index));
  shard["count"] = JsonValue(static_cast<std::uint64_t>(count));
  shard["chip_lo"] = JsonValue(static_cast<std::uint64_t>(result.chip_lo));
  shard["chip_hi"] = JsonValue(static_cast<std::uint64_t>(result.chip_hi));
  doc["shard"] = JsonValue(std::move(shard));
  doc["results"] = study_results_to_json(result);
  return telemetry::wrap_shard_manifest(JsonValue(std::move(doc)),
                                        "shard-" + std::to_string(index));
}

TEST(ShardRangeTest, TilesExactlyAndBalances) {
  for (const std::size_t count : {1u, 7u, 40u, 100u, 101u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 8u}) {
      std::size_t cursor = 0;
      for (std::size_t k = 0; k < shards; ++k) {
        const auto [lo, hi] = shard_range(count, k, shards);
        EXPECT_EQ(lo, cursor);
        EXPECT_GE(hi, lo);
        // Balanced: no shard owns more than one item over the minimum.
        EXPECT_LE(hi - lo, count / shards + 1);
        cursor = hi;
      }
      EXPECT_EQ(cursor, count);
    }
  }
  EXPECT_THROW((void)shard_range(10, 3, 3), std::invalid_argument);  // index out of range
  EXPECT_THROW((void)shard_range(10, 0, 0), std::invalid_argument);  // no shards
}

// The PR's acceptance bar: merging any shard decomposition must reproduce the
// single-process statistics bit-for-bit, not approximately.
TEST(ShardStudyTest, FourShardAggregateEqualsSingleShardAggregate) {
  const ShardStudyConfig cfg = small_config();

  std::vector<telemetry::ShardManifest> four;
  for (std::size_t k = 0; k < 4; ++k) {
    four.push_back(to_manifest(cfg, k, 4, run_shard_study(cfg, k, 4)));
  }
  const telemetry::AggregateResult merged_four = telemetry::aggregate_shards(std::move(four));

  std::vector<telemetry::ShardManifest> one;
  one.push_back(to_manifest(cfg, 0, 1, run_shard_study(cfg, 0, 1)));
  const telemetry::AggregateResult merged_one = telemetry::aggregate_shards(std::move(one));

  EXPECT_TRUE(merged_four.conflicts.empty());
  EXPECT_TRUE(merged_one.conflicts.empty());
  // dump() serializes doubles at %.17g, so string equality is bit equality.
  EXPECT_EQ(merged_four.manifest.at("results").dump(),
            merged_one.manifest.at("results").dump());
}

TEST(ShardStudyTest, ResultsAreThreadCountInvariant) {
  const ShardStudyConfig cfg = small_config();
  const GlobalThreadCountGuard guard;

  ParallelExecutor::set_global_thread_count(1);
  const std::string baseline = study_results_to_json(run_shard_study(cfg, 1, 3)).dump();
  for (const int threads : {2, 8}) {
    ParallelExecutor::set_global_thread_count(threads);
    EXPECT_EQ(study_results_to_json(run_shard_study(cfg, 1, 3)).dump(), baseline)
        << "threads=" << threads;
  }
}

TEST(ShardStudyTest, BuildsEachDieOnceAndReusesItsOwnGoldenReads) {
  // One chip pass builds each of the shard's own dies once, under the first
  // design, and reads it fresh as both designs; each design's copy then ages
  // through every checkpoint in the same task, so the golden read the
  // aggregator pairs is the one E2 flips are measured against.  No shard
  // builds or reads another shard's dies: one pool pass.
  const ShardStudyConfig cfg = small_config();
  const auto checkpoints = static_cast<std::uint64_t>(cfg.checkpoints.size());
  auto& registry = telemetry::MetricsRegistry::global();
  for (const std::size_t shards : {1u, 3u}) {
    registry.reset();
    const ShardStudyResult r = run_shard_study(cfg, 0, shards);
    const std::uint64_t own = r.chip_hi - r.chip_lo;
    EXPECT_EQ(registry.counter("study.chips_built").value(), own) << shards << " shards";
    EXPECT_EQ(registry.counter("puf.evaluations").value(), 2 * own * (1 + checkpoints))
        << shards << " shards";
    EXPECT_EQ(registry.counter("parallel.jobs").value(), 1u) << shards << " shards";
    ASSERT_EQ(r.responses.size(), 2u);
    for (const ResponseSet& set : r.responses) {
      EXPECT_EQ(set.offset, r.chip_lo) << set.name;
      EXPECT_EQ(set.responses.size(), own) << set.name;
    }
  }
}

TEST(ShardStudyTest, EveryShardJobOfOneProcessRecordsThePoolSize) {
  // Each job resets the run record, as in-process shard runs do between
  // shards; the pool exists from the first job on, so only a process field
  // brings its size into the second job's manifest.
  const ShardStudyConfig cfg = small_config();
  const int threads = ParallelExecutor::global().thread_count();
  for (const int index : {0, 1}) {
    const JsonValue doc =
        JsonValue::parse(run_shard_job(cfg, index, 2, "threads_test", /*binary=*/false));
    EXPECT_EQ(doc.as_object().at("threads").as_number(), static_cast<double>(threads))
        << "shard " << index;
    EXPECT_EQ(doc.as_object().at("kernel_backend").as_string(), to_string(delay_backend()))
        << "shard " << index;
  }
  telemetry::MetricsRegistry::global().set_shard_index(-1);
  telemetry::reset_run_record();
}

TEST(ShardStudyTest, EachShardJobsProfileCountersCoverThatJobOnly) {
  // The fold sums the shards' profile counters, so a shard manifest that
  // carried the process total so far would count earlier shards again.
  setenv("AROPUF_PROF", "on", 1);
  setenv("AROPUF_PROF_FORCE_FALLBACK", "1", 1);
  telemetry::prof_reset_for_test();
  telemetry::start_process_profile();
  const ShardStudyConfig cfg = small_config();
  (void)run_shard_job(cfg, 0, 2, "prof_test", /*binary=*/false);
  const auto start = std::chrono::steady_clock::now();
  const JsonValue doc = JsonValue::parse(run_shard_job(cfg, 1, 2, "prof_test", false));
  const double around_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  (void)telemetry::stop_process_profile();
  unsetenv("AROPUF_PROF");
  unsetenv("AROPUF_PROF_FORCE_FALLBACK");
  telemetry::prof_reset_for_test();
  telemetry::MetricsRegistry::global().set_shard_index(-1);
  telemetry::reset_run_record();

  const JsonValue& profile = doc.at("profile");
  EXPECT_EQ(profile.at("mode").as_string(), "fallback");
  EXPECT_LE(profile.at("counters").at("wall_ms").as_number(), around_ms);
}

TEST(ShardStudyTest, ResumeValidityProbeRerunsASchemaOneShard) {
  // A shard file a schema-1 build left behind ships pair tiles and no
  // responses.  Its config echo names schema 1, so --resume re-runs it
  // instead of folding it beside schema-2 shards, whose response sets would
  // miss its chips.
  const ShardStudyConfig cfg = small_config();
  JsonValue doc = JsonValue::parse(run_shard_job(cfg, 1, 2, "resume_test", /*binary=*/false));
  telemetry::MetricsRegistry::global().set_shard_index(-1);
  telemetry::reset_run_record();
  const std::string path = ::testing::TempDir() + "aropuf_resume_schema1.json";
  const auto write = [&path](const JsonValue& d) {
    std::ofstream(path, std::ios::trunc) << d.dump(2);
  };
  const JsonValue expect_config = study_config_json(cfg);
  std::string why;
  write(doc);
  EXPECT_TRUE(telemetry::shard_manifest_is_valid(path, "resume_test", 1, 2, expect_config, &why))
      << why;

  doc.as_object()["config"].as_object()["study_schema"] = JsonValue(1);
  doc.as_object()["results"].as_object().erase("responses");
  write(doc);
  EXPECT_FALSE(telemetry::shard_manifest_is_valid(path, "resume_test", 1, 2, expect_config, &why));
  EXPECT_EQ(why, "study config mismatch");
}

TEST(ShardStudyTest, ConfigEchoIsIdenticalAcrossShards) {
  const ShardStudyConfig cfg = small_config();
  EXPECT_EQ(study_config_json(cfg).dump(), study_config_json(cfg).dump());
  ShardStudyConfig other = cfg;
  other.pop.seed = 78;
  EXPECT_NE(study_config_json(cfg).dump(), study_config_json(other).dump());
}

TEST(ShardStudyTest, RejectsDegenerateInputs) {
  ShardStudyConfig cfg = small_config();
  cfg.pop.chips = 1;
  EXPECT_THROW((void)run_shard_study(cfg, 0, 1), std::exception);
  cfg = small_config();
  cfg.checkpoints.clear();
  EXPECT_THROW((void)run_shard_study(cfg, 0, 1), std::exception);
  // Non-negative and strictly increasing: equal checkpoints would name one
  // series twice.
  for (const std::vector<double>& checkpoints :
       std::vector<std::vector<double>>{{1.0, 1.0}, {2.0, 1.0}, {-1.0, 1.0}}) {
    cfg = small_config();
    cfg.checkpoints = checkpoints;
    EXPECT_THROW((void)run_shard_study(cfg, 0, 1), std::invalid_argument)
        << checkpoints.front() << "," << checkpoints.back();
  }
}

TEST(ShardStudyTest, SeriesNamesSpellEachCheckpointExactly) {
  // The shortest round-trip spelling: whole years keep their short names,
  // and checkpoints %g would print alike get distinct series.
  ShardStudyConfig cfg = small_config();
  cfg.pop.chips = 2;
  cfg.checkpoints = {1.0, 1.0000001, 2.5, 10.0};
  const ShardStudyResult r = run_shard_study(cfg, 0, 1);
  std::vector<std::string> names;
  for (const SampleSeries& s : r.samples) {
    if (s.name.rfind("e2.aro.", 0) == 0) names.push_back(s.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "e2.aro.flip_percent.y1", "e2.aro.flip_percent.y1.0000001",
                       "e2.aro.flip_percent.y2.5", "e2.aro.flip_percent.y10"}));
}

TEST(ShardStudyTest, StudySectionReadsTheLastCheckpointsSeries) {
  // The study section finds the end-of-life series by name, so it must spell
  // the last checkpoint as the shards do, also where %g would round it
  // (3.3333333 -> 3.33333) or fold it onto an earlier one (1.0000001 -> 1).
  for (const std::vector<double>& checkpoints :
       std::vector<std::vector<double>>{{1.0, 3.3333333}, {1.0, 1.0000001}}) {
    ShardStudyConfig cfg = small_config();
    cfg.pop.chips = 4;
    cfg.checkpoints = checkpoints;
    const std::size_t years = checkpoints.size();
    std::vector<ShardStudyResult> shards;
    std::vector<telemetry::ShardManifest> manifests;
    for (std::size_t k = 0; k < 2; ++k) {
      shards.push_back(run_shard_study(cfg, k, 2));
      manifests.push_back(to_manifest(cfg, k, 2, shards.back()));
    }
    telemetry::AggregateResult merged = telemetry::aggregate_shards(std::move(manifests));
    // Poison every earlier checkpoint's mean: 1 and 1.0000001 year of aging
    // flip the same bits, so only a poisoned mean shows the wrong series.
    JsonValue::Object& samples =
        merged.manifest.as_object().at("results").as_object().at("samples").as_object();
    for (const char* key : {"conventional", "aro"}) {
      for (std::size_t j = 0; j + 1 < years; ++j) {
        samples.at(std::string("e2.") + key + ".flip_percent." +
                   checkpoint_series_suffix(checkpoints[j]))
            .as_object()["mean"] = JsonValue(-1.0);
      }
    }

    const JsonValue study = build_study_section(merged.manifest, cfg);
    const char* keys[] = {"conventional", "aro"};
    for (std::size_t d = 0; d < 2; ++d) {
      // A shard's samples run design by design: each checkpoint's E2 series,
      // then uniformity.
      RunningStats last;
      for (const ShardStudyResult& r : shards) {
        for (const double v : r.samples[d * (years + 1) + years - 1].values) last.add(v);
      }
      const JsonValue& entry = study.at("designs").at(keys[d]);
      ASSERT_TRUE(entry.contains("eol_flip_percent_mean"))
          << keys[d] << " at " << checkpoints.back();
      EXPECT_EQ(entry.at("eol_flip_percent_mean").as_number(), last.mean())
          << keys[d] << " at " << checkpoints.back();
      EXPECT_TRUE(entry.contains("eol_ber_p90"));
    }
  }
}

}  // namespace
}  // namespace aropuf
