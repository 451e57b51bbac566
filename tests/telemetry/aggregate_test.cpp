#include "telemetry/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "telemetry/manifest.hpp"

namespace aropuf::telemetry {
namespace {

/// Minimal well-formed shard manifest: the structural fields validate_shard
/// requires plus empty metric/result sections tests fill in as needed.
JsonValue make_shard_doc(int index, int count, std::int64_t chip_lo, std::int64_t chip_hi) {
  JsonValue::Object doc;
  doc["schema"] = JsonValue(kManifestSchema);
  doc["schema_version"] = JsonValue(kManifestSchemaVersion);
  doc["run"] = JsonValue("test_run");
  doc["git_sha"] = JsonValue("abc123");
  doc["kernel_backend"] = JsonValue("batched");
  doc["threads"] = JsonValue(1);
  JsonValue::Object config;
  config["chips"] = JsonValue(static_cast<std::uint64_t>(chip_hi > chip_lo ? 8 : 0));
  config["seed"] = JsonValue(2014);
  doc["config"] = JsonValue(std::move(config));
  JsonValue::Object build;
  build["type"] = JsonValue("Release");
  doc["build"] = JsonValue(std::move(build));
  JsonValue::Object shard;
  shard["index"] = JsonValue(index);
  shard["count"] = JsonValue(count);
  shard["chip_lo"] = JsonValue(static_cast<std::uint64_t>(chip_lo));
  shard["chip_hi"] = JsonValue(static_cast<std::uint64_t>(chip_hi));
  doc["shard"] = JsonValue(std::move(shard));
  JsonValue::Object metrics;
  metrics["counters"] = JsonValue(JsonValue::Object{});
  metrics["gauges"] = JsonValue(JsonValue::Object{});
  metrics["histograms"] = JsonValue(JsonValue::Object{});
  metrics["shard"] = JsonValue(index);
  doc["metrics"] = JsonValue(std::move(metrics));
  doc["stages"] = JsonValue(JsonValue::Array{});
  JsonValue::Object results;
  results["samples"] = JsonValue(JsonValue::Object{});
  results["tallies"] = JsonValue(JsonValue::Object{});
  doc["results"] = JsonValue(std::move(results));
  return JsonValue(std::move(doc));
}

void add_sample_series(JsonValue& doc, const std::string& name, std::int64_t offset,
                       std::int64_t total, const std::vector<double>& values) {
  JsonValue::Object series;
  series["offset"] = JsonValue(static_cast<std::uint64_t>(offset));
  series["total"] = JsonValue(static_cast<std::uint64_t>(total));
  series["hist_lo"] = JsonValue(0.0);
  series["hist_hi"] = JsonValue(1.0);
  series["hist_bins"] = JsonValue(10);
  JsonValue::Array arr;
  for (const double v : values) arr.emplace_back(v);
  series["values"] = JsonValue(std::move(arr));
  doc.as_object()["results"].as_object()["samples"].as_object()[name] =
      JsonValue(std::move(series));
}

void add_tally(JsonValue& doc, const std::string& name, std::int64_t offset, std::int64_t total,
               const std::vector<std::uint64_t>& raw_values, std::uint64_t denom) {
  JsonValue::Object tally;
  tally["offset"] = JsonValue(static_cast<std::uint64_t>(offset));
  tally["total"] = JsonValue(static_cast<std::uint64_t>(total));
  tally["denom"] = JsonValue(denom);
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;
  std::uint64_t min = raw_values.empty() ? 0 : raw_values.front();
  std::uint64_t max = min;
  for (const std::uint64_t v : raw_values) {
    sum += v;
    sum_sq += v * v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  tally["count"] = JsonValue(static_cast<std::uint64_t>(raw_values.size()));
  tally["sum"] = JsonValue(sum);
  tally["sum_sq"] = JsonValue(sum_sq);
  tally["min"] = JsonValue(min);
  tally["max"] = JsonValue(max);
  tally["hist_lo"] = JsonValue(0.0);
  tally["hist_hi"] = JsonValue(1.0);
  JsonValue::Array bins;
  for (int b = 0; b < 4; ++b) bins.emplace_back(0);
  tally["bins"] = JsonValue(std::move(bins));
  doc.as_object()["results"].as_object()["tallies"].as_object()[name] =
      JsonValue(std::move(tally));
}

void add_responses(JsonValue& doc, const std::string& name, std::int64_t offset,
                   const std::vector<std::string>& responses) {
  JsonValue::Object set;
  set["offset"] = JsonValue(static_cast<std::uint64_t>(offset));
  JsonValue::Array values;
  for (const std::string& r : responses) values.emplace_back(r);
  set["values"] = JsonValue(std::move(values));
  JsonValue& sets = doc.as_object()["results"].as_object()["responses"];
  if (!sets.is_object()) sets = JsonValue(JsonValue::Object{});
  sets.as_object()[name] = JsonValue(std::move(set));
}

void set_metric(JsonValue& doc, const char* kind, const std::string& name, JsonValue value) {
  doc.as_object()["metrics"].as_object()[kind].as_object()[name] = std::move(value);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "aropuf_aggregate_" + name;
}

TEST(AggregateTest, MergeIsIndependentOfManifestOrder) {
  std::vector<ShardManifest> forward;
  std::vector<ShardManifest> shuffled;
  const std::vector<std::vector<double>> chunks = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
  for (int k = 0; k < 3; ++k) {
    JsonValue doc = make_shard_doc(k, 3, 2 * k, 2 * k + 2);
    add_sample_series(doc, "series", 2 * k, 6, chunks[static_cast<std::size_t>(k)]);
    forward.push_back(wrap_shard_manifest(doc));
    shuffled.push_back(wrap_shard_manifest(std::move(doc)));
  }
  std::swap(shuffled[0], shuffled[2]);
  std::swap(shuffled[1], shuffled[2]);

  const AggregateResult a = aggregate_shards(std::move(forward));
  const AggregateResult b = aggregate_shards(std::move(shuffled));
  // created_unix_ms differs between the two calls; everything else must not.
  for (const char* key : {"results", "shards", "metrics", "config", "conflicts"}) {
    EXPECT_EQ(a.manifest.at(key).dump(), b.manifest.at(key).dump()) << key;
  }
}

TEST(AggregateTest, SampleMergeEqualsSerialReduction) {
  const std::vector<double> all = {0.11, 0.92, 0.37, 0.58, 0.21, 0.76, 0.49};
  std::vector<ShardManifest> shards;
  // Uneven split: [0,3), [3,4), [4,7).
  const std::vector<std::pair<int, int>> ranges = {{0, 3}, {3, 4}, {4, 7}};
  for (int k = 0; k < 3; ++k) {
    const auto [lo, hi] = ranges[static_cast<std::size_t>(k)];
    JsonValue doc = make_shard_doc(k, 3, lo, hi);
    add_sample_series(doc, "s", lo, static_cast<std::int64_t>(all.size()),
                      {all.begin() + lo, all.begin() + hi});
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));

  RunningStats serial;
  for (const double v : all) serial.add(v);
  const JsonValue& s = merged.manifest.at("results").at("samples").at("s");
  // Bit-identical, not approximately equal: the merge re-runs the exact
  // serial accumulation a single process would perform.
  EXPECT_EQ(s.at("mean").as_number(), serial.mean());
  EXPECT_EQ(s.at("m2").as_number(), serial.m2());
  EXPECT_EQ(s.at("min").as_number(), serial.min());
  EXPECT_EQ(s.at("max").as_number(), serial.max());
  EXPECT_EQ(static_cast<std::size_t>(s.at("count").as_number()), all.size());
}

TEST(AggregateTest, SampleSeriesWithGapThrows) {
  std::vector<ShardManifest> shards;
  JsonValue a = make_shard_doc(0, 2, 0, 2);
  add_sample_series(a, "s", 0, 5, {0.1, 0.2});
  JsonValue b = make_shard_doc(1, 2, 2, 5);
  add_sample_series(b, "s", 3, 5, {0.3, 0.4});  // gap: sample 2 missing
  shards.push_back(wrap_shard_manifest(std::move(a)));
  shards.push_back(wrap_shard_manifest(std::move(b)));
  EXPECT_THROW(aggregate_shards(std::move(shards)), std::runtime_error);
}

TEST(AggregateTest, TallyMergeIsExact) {
  const std::vector<std::uint64_t> lo_half = {3, 7, 5};
  const std::vector<std::uint64_t> hi_half = {2, 9};
  std::vector<ShardManifest> shards;
  JsonValue a = make_shard_doc(0, 2, 0, 4);
  add_tally(a, "t", 0, 5, lo_half, /*denom=*/16);
  JsonValue b = make_shard_doc(1, 2, 4, 8);
  add_tally(b, "t", 3, 5, hi_half, /*denom=*/16);
  shards.push_back(wrap_shard_manifest(std::move(a)));
  shards.push_back(wrap_shard_manifest(std::move(b)));
  const AggregateResult merged = aggregate_shards(std::move(shards));

  const JsonValue& t = merged.manifest.at("results").at("tallies").at("t");
  EXPECT_EQ(t.at("count").as_number(), 5.0);
  EXPECT_EQ(t.at("sum").as_number(), 26.0);
  EXPECT_EQ(t.at("sum_sq").as_number(), 168.0);
  EXPECT_EQ(t.at("min").as_number(), 2.0 / 16.0);
  EXPECT_EQ(t.at("max").as_number(), 9.0 / 16.0);
  EXPECT_EQ(t.at("mean").as_number(), (26.0 / 5.0) / 16.0);
}

TEST(AggregateTest, EmptyTallyPieceDoesNotPolluteMinMax) {
  std::vector<ShardManifest> shards;
  JsonValue a = make_shard_doc(0, 2, 0, 4);
  add_tally(a, "t", 0, 3, {5, 6, 7}, /*denom=*/8);
  JsonValue b = make_shard_doc(1, 2, 4, 8);
  add_tally(b, "t", 3, 3, {}, /*denom=*/8);  // empty pair range
  shards.push_back(wrap_shard_manifest(std::move(a)));
  shards.push_back(wrap_shard_manifest(std::move(b)));
  const AggregateResult merged = aggregate_shards(std::move(shards));
  const JsonValue& t = merged.manifest.at("results").at("tallies").at("t");
  EXPECT_EQ(t.at("min").as_number(), 5.0 / 8.0);  // not dragged to 0 by the empty piece
  EXPECT_EQ(t.at("max").as_number(), 7.0 / 8.0);
}

TEST(AggregateTest, CountersSumAcrossShards) {
  std::vector<ShardManifest> shards;
  for (int k = 0; k < 2; ++k) {
    JsonValue doc = make_shard_doc(k, 2, 4 * k, 4 * k + 4);
    set_metric(doc, "counters", "study.pair_hds", JsonValue(100 + k));
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));
  EXPECT_EQ(merged.manifest.at("metrics").at("counters").at("study.pair_hds").as_number(), 201.0);
}

TEST(AggregateTest, GaugesResolveByPolicyAndRetainPerShardValues) {
  std::vector<ShardManifest> shards;
  const double values[3] = {5.0, 11.0, 7.0};
  for (int k = 0; k < 3; ++k) {
    JsonValue doc = make_shard_doc(k, 3, 2 * k, 2 * k + 2);
    set_metric(doc, "gauges", "queue.depth", JsonValue(values[k]));
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));
  const JsonValue& gauges = merged.manifest.at("metrics").at("gauges");

  const JsonValue& depth = gauges.at("queue.depth");
  EXPECT_EQ(depth.at("policy").as_string(), "max");
  EXPECT_EQ(depth.at("value").as_number(), 11.0);  // max, never the average (7.67)
  EXPECT_EQ(depth.at("per_shard").at("0").as_number(), 5.0);
  EXPECT_EQ(depth.at("per_shard").at("1").as_number(), 11.0);
  EXPECT_EQ(depth.at("per_shard").at("2").as_number(), 7.0);
}

JsonValue make_profile(const std::string& mode, double peak_rss_kib,
                       const std::string& reason, double cycles = 0.0,
                       double instructions = 0.0) {
  JsonValue::Object profile;
  profile["mode"] = JsonValue(mode);
  profile["fallback_reason"] = JsonValue(reason);
  profile["peak_rss_kib"] = JsonValue(peak_rss_kib);
  if (cycles > 0.0) {
    JsonValue::Object counters;
    counters["cycles"] = JsonValue(cycles);
    counters["instructions"] = JsonValue(instructions);
    counters["task_clock_ms"] = JsonValue(1.0);
    counters["ipc"] = JsonValue(instructions / cycles);
    profile["counters"] = JsonValue(std::move(counters));
  }
  return JsonValue(std::move(profile));
}

TEST(AggregateTest, ProfilesMergeAcrossShards) {
  std::vector<ShardManifest> shards;
  for (int k = 0; k < 2; ++k) {
    JsonValue doc = make_shard_doc(k, 2, 4 * k, 4 * k + 4);
    doc.as_object()["profile"] =
        make_profile("counters", k == 0 ? 5000.0 : 7000.0, "",
                     /*cycles=*/1000.0 * (k + 1), /*instructions=*/2000.0 * (k + 1));
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));
  const auto& profile = merged.manifest.as_object().at("profile").as_object();
  EXPECT_EQ(profile.at("mode").as_string(), "counters");
  // Peak RSS takes the max shard, not a sum: shards are concurrent processes.
  EXPECT_DOUBLE_EQ(profile.at("peak_rss_kib").as_number(), 7000.0);
  EXPECT_TRUE(profile.at("fallback_reasons").as_array().empty());
  const auto& counters = profile.at("counters").as_object();
  EXPECT_DOUBLE_EQ(counters.at("cycles").as_number(), 3000.0);
  EXPECT_DOUBLE_EQ(counters.at("instructions").as_number(), 6000.0);
  // The merged IPC must come from the summed tallies, not from averaging
  // per-shard ratios (those weigh shards equally regardless of work done).
  EXPECT_DOUBLE_EQ(counters.at("ipc").as_number(), 2.0);
  EXPECT_EQ(profile.at("per_shard").as_object().size(), 2U);
}

TEST(AggregateTest, MixedProfileModesAreReportedAsMixed) {
  std::vector<ShardManifest> shards;
  JsonValue a = make_shard_doc(0, 2, 0, 4);
  a.as_object()["profile"] = make_profile("counters", 1000.0, "");
  JsonValue b = make_shard_doc(1, 2, 4, 8);
  b.as_object()["profile"] =
      make_profile("fallback", 2000.0, "perf_event unavailable on this platform");
  shards.push_back(wrap_shard_manifest(std::move(a)));
  shards.push_back(wrap_shard_manifest(std::move(b)));
  const AggregateResult merged = aggregate_shards(std::move(shards));
  const auto& profile = merged.manifest.as_object().at("profile").as_object();
  EXPECT_EQ(profile.at("mode").as_string(), "mixed");
  const auto& reasons = profile.at("fallback_reasons").as_array();
  ASSERT_EQ(reasons.size(), 1U);
  EXPECT_EQ(reasons[0].as_string(), "perf_event unavailable on this platform");
}

TEST(AggregateTest, ShardsWithoutProfilesMergeToOff) {
  std::vector<ShardManifest> shards;
  for (int k = 0; k < 2; ++k) {
    JsonValue doc = make_shard_doc(k, 2, 4 * k, 4 * k + 4);
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));
  const auto& profile = merged.manifest.as_object().at("profile").as_object();
  EXPECT_EQ(profile.at("mode").as_string(), "off");
  EXPECT_FALSE(profile.contains("counters"));
}

TEST(AggregateTest, ProvenanceMismatchBecomesConflictNotException) {
  std::vector<ShardManifest> shards;
  for (int k = 0; k < 2; ++k) {
    JsonValue doc = make_shard_doc(k, 2, 4 * k, 4 * k + 4);
    if (k == 1) {
      doc.as_object()["git_sha"] = JsonValue("fff999");
      doc.as_object()["config"].as_object()["seed"] = JsonValue(9999);
    }
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  const AggregateResult merged = aggregate_shards(std::move(shards));
  std::vector<std::string> fields;
  for (const AggregateConflict& c : merged.conflicts) fields.push_back(c.field);
  EXPECT_NE(std::find(fields.begin(), fields.end(), "git_sha"), fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "config"), fields.end());
  // Every shard's value is recorded so the operator can see who diverged.
  for (const AggregateConflict& c : merged.conflicts) {
    EXPECT_EQ(c.values.size(), 2u) << c.field;
  }
  // Conflicts are also embedded in the document itself.
  EXPECT_FALSE(merged.manifest.at("conflicts").as_array().empty());
}

TEST(AggregateTest, StructuralErrorsThrow) {
  {  // duplicate shard index
    std::vector<ShardManifest> shards;
    shards.push_back(wrap_shard_manifest(make_shard_doc(0, 2, 0, 4)));
    shards.push_back(wrap_shard_manifest(make_shard_doc(0, 2, 4, 8)));
    EXPECT_THROW(aggregate_shards(std::move(shards)), std::runtime_error);
  }
  {  // disagreeing shard counts
    std::vector<ShardManifest> shards;
    shards.push_back(wrap_shard_manifest(make_shard_doc(0, 2, 0, 4)));
    shards.push_back(wrap_shard_manifest(make_shard_doc(1, 3, 4, 8)));
    EXPECT_THROW(aggregate_shards(std::move(shards)), std::runtime_error);
  }
  {  // missing shard (count says 3, only 2 present)
    std::vector<ShardManifest> shards;
    shards.push_back(wrap_shard_manifest(make_shard_doc(0, 3, 0, 4)));
    shards.push_back(wrap_shard_manifest(make_shard_doc(1, 3, 4, 8)));
    EXPECT_THROW(aggregate_shards(std::move(shards)), std::runtime_error);
  }
  {  // chip ranges with a gap
    std::vector<ShardManifest> shards;
    shards.push_back(wrap_shard_manifest(make_shard_doc(0, 2, 0, 3)));
    shards.push_back(wrap_shard_manifest(make_shard_doc(1, 2, 4, 8)));
    EXPECT_THROW(aggregate_shards(std::move(shards)), std::runtime_error);
  }
  EXPECT_THROW(aggregate_shards({}), std::runtime_error);
}

TEST(AggregateTest, MalformedManifestFilesAreRejectedWithPathContext) {
  const std::string missing = temp_path("missing.json");
  EXPECT_THROW(load_shard_input(missing), std::runtime_error);

  const std::string truncated = temp_path("truncated.json");
  {
    std::ofstream out(truncated, std::ios::trunc);
    out << R"({"schema": "aropuf-run-manifest", "schema_version": 1, "run": "x", "shard")";
  }
  try {
    (void)load_shard_input(truncated);
    FAIL() << "truncated manifest should not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(truncated), std::string::npos)
        << "error should name the offending file: " << e.what();
  }

  const std::string wrong_schema = temp_path("wrong_schema.json");
  {
    std::ofstream out(wrong_schema, std::ios::trunc);
    out << R"({"schema": "something-else", "schema_version": 1, "run": "x"})";
  }
  EXPECT_THROW(load_shard_input(wrong_schema), std::runtime_error);

  // Wrapping an in-memory doc without the shard descriptor fails the same way.
  JsonValue no_shard = make_shard_doc(0, 1, 0, 4);
  no_shard.as_object().erase("shard");
  EXPECT_THROW(wrap_shard_manifest(std::move(no_shard)), std::runtime_error);
}

TEST(AggregateTest, ResumeValidityProbe) {
  const std::string good = temp_path("resume_good.json");
  const JsonValue doc = make_shard_doc(1, 3, 2, 4);
  {
    std::ofstream out(good, std::ios::trunc);
    out << doc.dump(2);
  }
  const JsonValue& config = doc.at("config");
  std::string why;
  EXPECT_TRUE(shard_manifest_is_valid(good, "test_run", 1, 3, config, &why)) << why;
  EXPECT_FALSE(shard_manifest_is_valid(good, "test_run", 0, 3, config, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(shard_manifest_is_valid(good, "test_run", 1, 4, config, nullptr));
  EXPECT_FALSE(shard_manifest_is_valid(good, "other_run", 1, 3, config, nullptr));
  EXPECT_FALSE(shard_manifest_is_valid(temp_path("resume_missing.json"), "test_run", 1, 3,
                                       config, &why));
}

TEST(AggregateTest, ResumeValidityProbeRejectsAnotherStudysShard) {
  // Regression: a --seed 1 shard left in the output directory must not be
  // folded into a --seed 2 --resume run just because the run name and the
  // shard coordinates agree.
  const std::string path = temp_path("resume_other_seed.json");
  const JsonValue doc = make_shard_doc(1, 3, 2, 4);
  {
    std::ofstream out(path, std::ios::trunc);
    out << doc.dump(2);
  }
  JsonValue other_seed = doc.at("config");
  other_seed.as_object()["seed"] = JsonValue(2015);
  std::string why;
  EXPECT_FALSE(shard_manifest_is_valid(path, "test_run", 1, 3, other_seed, &why));
  EXPECT_EQ(why, "study config mismatch");
  EXPECT_TRUE(shard_manifest_is_valid(path, "test_run", 1, 3, doc.at("config"), &why)) << why;
}

/// Four uneven shards with a sample series, a tally, and metrics — enough
/// surface to catch any fold-order dependence in the incremental path.
std::vector<ShardManifest> builder_fixture() {
  const std::vector<double> all = {0.11, 0.92, 0.37, 0.58, 0.21, 0.76, 0.49, 0.63};
  const std::vector<std::pair<int, int>> ranges = {{0, 3}, {3, 4}, {4, 6}, {6, 8}};
  std::vector<ShardManifest> shards;
  for (int k = 0; k < 4; ++k) {
    const auto [lo, hi] = ranges[static_cast<std::size_t>(k)];
    JsonValue doc = make_shard_doc(k, 4, lo, hi);
    add_sample_series(doc, "s", lo, static_cast<std::int64_t>(all.size()),
                      {all.begin() + lo, all.begin() + hi});
    add_tally(doc, "t", 2 * k, 8,
              {static_cast<std::uint64_t>(k + 1), static_cast<std::uint64_t>(k + 5)},
              /*denom=*/16);
    set_metric(doc, "counters", "study.pair_hds", JsonValue(10 * (k + 1)));
    set_metric(doc, "gauges", "queue.depth", JsonValue(static_cast<double>(k)));
    shards.push_back(wrap_shard_manifest(std::move(doc)));
  }
  return shards;
}

TEST(AggregateBuilderTest, ShuffledFoldOrderIsBitIdenticalToBatch) {
  for (const RawSeriesPolicy policy :
       {RawSeriesPolicy::kKeep, RawSeriesPolicy::kDropAfterCheck}) {
    const AggregateResult batch = aggregate_shards(builder_fixture(), policy);

    std::vector<ShardManifest> shuffled = builder_fixture();
    // Worst-case arrival: strictly reversed, so every piece but the last
    // waits in the out-of-order window.
    std::reverse(shuffled.begin(), shuffled.end());
    AggregateBuilder builder(policy);
    for (ShardManifest& shard : shuffled) builder.add(std::move(shard));
    const AggregateResult streamed = builder.finalize();

    // created_unix_ms differs between the two finalizations; every derived
    // section must not — same doubles, same serialization, byte for byte.
    for (const char* key : {"results", "shards", "metrics", "config", "conflicts",
                            "raw_series"}) {
      EXPECT_EQ(batch.manifest.at(key).dump(), streamed.manifest.at(key).dump())
          << key << " under policy "
          << (policy == RawSeriesPolicy::kKeep ? "keep" : "drop_after_check");
    }
  }
}

TEST(AggregateBuilderTest, RawSeriesPolicyControlsEmbeddedValuesAndMarker) {
  const AggregateResult kept = aggregate_shards(builder_fixture(), RawSeriesPolicy::kKeep);
  EXPECT_EQ(kept.manifest.at("raw_series").as_string(), "kept");
  EXPECT_EQ(kept.manifest.at("schema_version").as_number(), kAggregateSchemaVersion);
  const JsonValue& kept_s = kept.manifest.at("results").at("samples").at("s");
  ASSERT_TRUE(kept_s.contains("values"));
  EXPECT_EQ(kept_s.at("values").as_array().size(),
            static_cast<std::size_t>(kept_s.at("count").as_number()));
  // Values are concatenated in global chip order, not arrival order.
  EXPECT_EQ(kept_s.at("values").as_array().front().as_number(), 0.11);
  EXPECT_EQ(kept_s.at("values").as_array().back().as_number(), 0.63);

  const AggregateResult dropped =
      aggregate_shards(builder_fixture(), RawSeriesPolicy::kDropAfterCheck);
  EXPECT_EQ(dropped.manifest.at("raw_series").as_string(), "dropped");
  EXPECT_FALSE(dropped.manifest.at("results").at("samples").at("s").contains("values"));
  // Dropping raw values must not change a single statistic.
  JsonValue stripped = kept.manifest.at("results");
  stripped.as_object()["samples"].as_object()["s"].as_object().erase("values");
  EXPECT_EQ(stripped.dump(), dropped.manifest.at("results").dump());
}

TEST(AggregateBuilderTest, WindowPeakIsBoundedByOutOfOrderExtent) {
  {  // In-order arrival: each piece drains immediately, so the window's
     // high-water mark is the largest single piece — the bounded-memory claim.
    AggregateBuilder builder(RawSeriesPolicy::kDropAfterCheck);
    for (ShardManifest& shard : builder_fixture()) builder.add(std::move(shard));
    EXPECT_EQ(builder.peak_buffered_values(), 3u);  // largest piece is 3 values
    EXPECT_EQ(builder.buffered_values(), 0u);       // everything drained
    EXPECT_EQ(builder.reduced_values(), 8u);
    EXPECT_EQ(builder.shards_added(), 4);
    EXPECT_EQ(builder.expected_shards(), 4);
    (void)builder.finalize();
  }
  {  // Fully reversed arrival is the worst case: nothing drains until the
     // offset-0 piece lands, so the peak is the whole series.
    std::vector<ShardManifest> reversed = builder_fixture();
    std::reverse(reversed.begin(), reversed.end());
    AggregateBuilder builder(RawSeriesPolicy::kDropAfterCheck);
    for (ShardManifest& shard : reversed) builder.add(std::move(shard));
    EXPECT_EQ(builder.peak_buffered_values(), 8u);
    EXPECT_EQ(builder.buffered_values(), 0u);
    (void)builder.finalize();
  }
}

TEST(AggregateBuilderTest, FailedAddReportsPathAndLeavesPriorFoldsIntact) {
  AggregateBuilder builder(RawSeriesPolicy::kKeep);
  std::vector<ShardManifest> shards = builder_fixture();
  builder.add(std::move(shards[0]));
  builder.add(std::move(shards[1]));

  // A structurally broken shard 2: its series values are not numbers.
  JsonValue bad = make_shard_doc(2, 4, 4, 6);
  add_sample_series(bad, "s", 4, 8, {});
  bad.as_object()["results"].as_object()["samples"].as_object()["s"]
      .as_object()["values"].as_array().emplace_back("not-a-number");
  try {
    builder.add(wrap_shard_manifest(std::move(bad), "/runs/shard2.manifest.json"));
    FAIL() << "malformed mid-stream shard should not fold";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/runs/shard2.manifest.json"), std::string::npos)
        << "error should name the offending manifest: " << e.what();
  }

  // add() is transactional: the failed fold left no residue, so the real
  // shard 2 still folds and the set completes.
  EXPECT_EQ(builder.shards_added(), 2);
  builder.add(std::move(shards[2]));
  builder.add(std::move(shards[3]));
  const AggregateResult merged = builder.finalize();
  EXPECT_EQ(merged.manifest.at("results").dump(),
            aggregate_shards(builder_fixture()).manifest.at("results").dump());
}

TEST(AggregateBuilderTest, DuplicateIndexAndCountDisagreementRejectedAtAdd) {
  AggregateBuilder builder;
  std::vector<ShardManifest> shards = builder_fixture();
  builder.add(std::move(shards[0]));
  EXPECT_THROW(builder.add(wrap_shard_manifest(make_shard_doc(0, 4, 0, 3))),
               std::runtime_error);  // duplicate index
  EXPECT_THROW(builder.add(wrap_shard_manifest(make_shard_doc(1, 5, 3, 4))),
               std::runtime_error);  // disagreeing shard count
  EXPECT_EQ(builder.shards_added(), 1);
}

TEST(AggregateBuilderTest, LifecycleMisuseThrowsLogicError) {
  {
    AggregateBuilder builder;
    EXPECT_THROW((void)builder.finalize(), std::runtime_error);  // empty set
  }
  AggregateBuilder builder;
  for (ShardManifest& shard : builder_fixture()) builder.add(std::move(shard));
  (void)builder.finalize();
  EXPECT_THROW((void)builder.finalize(), std::logic_error);
  std::vector<ShardManifest> more = builder_fixture();
  EXPECT_THROW(builder.add(std::move(more[0])), std::logic_error);
}

TEST(AggregateBuilderTest, IncompleteSetFailsFinalizeNotAdd) {
  AggregateBuilder builder;
  std::vector<ShardManifest> shards = builder_fixture();
  builder.add(std::move(shards[0]));
  builder.add(std::move(shards[2]));  // shard 1's chips never arrive
  EXPECT_THROW((void)builder.finalize(), std::runtime_error);
}

/// Two shards of a four-chip response set, 6-bit responses, chips [0, 2)
/// and [2, 4).  Pair HDs: (0,1) 3, (0,2) 6, (0,3) 2, (1,2) 3, (1,3) 5,
/// (2,3) 4.
std::vector<JsonValue> response_fixture() {
  const std::vector<std::vector<std::string>> halves = {{"000000", "011100"},
                                                        {"111111", "000011"}};
  std::vector<JsonValue> docs;
  for (int k = 0; k < 2; ++k) {
    JsonValue doc = make_shard_doc(k, 2, 2 * k, 2 * k + 2);
    add_responses(doc, "r", 2 * k, halves[static_cast<std::size_t>(k)]);
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Folds shard 0 of the fixture, then `bad` as shard 1 under a named path,
/// and returns add()'s message ("" if it folded).
std::string add_error(JsonValue bad) {
  AggregateBuilder builder;
  builder.add(wrap_shard_manifest(response_fixture()[0]));
  try {
    builder.add(wrap_shard_manifest(std::move(bad), "/runs/shard1.manifest.json"));
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(builder.shards_added(), 1);
    return e.what();
  }
  return "";
}

TEST(AggregateBuilderTest, ResponseSetsTallyEveryPairOnceAtFinalize) {
  for (const RawSeriesPolicy policy :
       {RawSeriesPolicy::kKeep, RawSeriesPolicy::kDropAfterCheck}) {
    std::vector<ShardManifest> shards;
    for (JsonValue& doc : response_fixture()) shards.push_back(wrap_shard_manifest(std::move(doc)));
    std::reverse(shards.begin(), shards.end());
    const AggregateResult merged = aggregate_shards(std::move(shards), policy);
    const JsonValue& results = merged.manifest.at("results");
    // The responses become a tally; they are not emitted themselves.
    EXPECT_FALSE(results.contains("responses"));
    const JsonValue& t = results.at("tallies").at("r");
    EXPECT_EQ(t.at("count").as_number(), 6.0);
    EXPECT_EQ(t.at("sum").as_number(), 23.0);
    EXPECT_EQ(t.at("sum_sq").as_number(), 99.0);
    EXPECT_EQ(t.at("denom").as_number(), 6.0);
    EXPECT_EQ(t.at("min").as_number(), 2.0 / 6.0);
    EXPECT_EQ(t.at("max").as_number(), 1.0);
    EXPECT_EQ(t.at("mean").as_number(), (23.0 / 6.0) / 6.0);
    // HD 3/6 lands in bin 25 of 50, twice; HD 6/6 in the last bin.
    const JsonValue::Array& bins = t.at("histogram").at("bins").as_array();
    ASSERT_EQ(bins.size(), 50U);
    EXPECT_EQ(bins[25].as_number(), 2.0);
    EXPECT_EQ(bins[49].as_number(), 1.0);
  }
}

TEST(AggregateBuilderTest, RefusesAResponseOfAnotherLength) {
  JsonValue bad = response_fixture()[1];
  add_responses(bad, "r", 2, {"111111", "00001"});
  const std::string why = add_error(std::move(bad));
  EXPECT_NE(why.find("/runs/shard1.manifest.json"), std::string::npos) << why;
  EXPECT_NE(why.find("responses 'r' entry 1 is 5 bits long, entry 0 is 6"), std::string::npos)
      << why;

  // Also against the rest of the set from earlier shards.
  JsonValue shorter = response_fixture()[1];
  add_responses(shorter, "r", 2, {"11111", "00001"});
  EXPECT_NE(add_error(std::move(shorter)).find("are 5 bits long"), std::string::npos);
}

TEST(AggregateBuilderTest, RefusesAResponseThatIsNotABitString) {
  for (const JsonValue& entry : {JsonValue("0121x0"), JsonValue(""), JsonValue(3.0)}) {
    JsonValue bad = response_fixture()[1];
    bad.as_object()["results"].as_object()["responses"].as_object()["r"].as_object()["values"]
        .as_array()[0] = entry;
    const std::string why = add_error(std::move(bad));
    EXPECT_NE(why.find("/runs/shard1.manifest.json"), std::string::npos) << why;
    EXPECT_NE(why.find("responses 'r' entry 0 is not a bit string"), std::string::npos) << why;
  }
}

TEST(AggregateBuilderTest, RefusesAResponseCountOtherThanTheShardsChips) {
  JsonValue bad = response_fixture()[1];
  add_responses(bad, "r", 2, {"111111"});
  const std::string why = add_error(std::move(bad));
  EXPECT_NE(why.find("/runs/shard1.manifest.json"), std::string::npos) << why;
  EXPECT_NE(why.find("hold 1 entries for the shard's 2 chips"), std::string::npos) << why;
}

TEST(AggregateBuilderTest, RefusesAResponseOffsetOtherThanChipLo) {
  JsonValue bad = response_fixture()[1];
  add_responses(bad, "r", 1, {"111111", "000011"});
  const std::string why = add_error(std::move(bad));
  EXPECT_NE(why.find("/runs/shard1.manifest.json"), std::string::npos) << why;
  EXPECT_NE(why.find("start at chip 1, not at the shard's chip_lo 2"), std::string::npos)
      << why;
}

TEST(AggregateBuilderTest, FinalizeRefusesAGapInAResponseSet) {
  // Shard 1 ships no responses at all, so the set covers only [0, 2) of 4.
  std::vector<ShardManifest> shards;
  shards.push_back(wrap_shard_manifest(response_fixture()[0]));
  shards.push_back(wrap_shard_manifest(make_shard_doc(1, 2, 2, 4)));
  try {
    (void)aggregate_shards(std::move(shards));
    FAIL() << "a response set with a gap must not tally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("responses 'r'"), std::string::npos) << e.what();
  }
}

TEST(AggregateBuilderTest, FinalizeRefusesATallyArrivingAsTilesAndResponses) {
  // A shard that tallied its pair range itself (as schema-1 shards did)
  // folded beside one that ships responses for the same tally.
  std::vector<ShardManifest> shards;
  shards.push_back(wrap_shard_manifest(response_fixture()[0]));
  JsonValue tiles = make_shard_doc(1, 2, 2, 4);
  add_tally(tiles, "r", 3, 6, {6, 4, 1}, /*denom=*/6);
  shards.push_back(wrap_shard_manifest(std::move(tiles), "/runs/old-shard1.manifest.json"));
  try {
    (void)aggregate_shards(std::move(shards));
    FAIL() << "a tally arriving both ways must not merge";
  } catch (const std::runtime_error& e) {
    const std::string why = e.what();
    EXPECT_NE(why.find("/runs/old-shard1.manifest.json"), std::string::npos) << why;
    EXPECT_NE(why.find("tally 'r' arrives both as tiles and as responses"), std::string::npos)
        << why;
  }
}

TEST(AggregateTest, WriteAggregateManifestRoundTrips) {
  std::vector<ShardManifest> shards;
  JsonValue doc = make_shard_doc(0, 1, 0, 8);
  add_sample_series(doc, "s", 0, 2, {0.25, 0.75});
  shards.push_back(wrap_shard_manifest(std::move(doc)));
  const AggregateResult merged = aggregate_shards(std::move(shards));

  const std::string path = temp_path("roundtrip.json");
  ASSERT_TRUE(write_aggregate_manifest(path, merged.manifest));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue parsed = JsonValue::parse(buffer.str());
  EXPECT_EQ(parsed.string_or("schema", ""), kAggregateSchema);
  EXPECT_EQ(parsed.at("results").dump(), merged.manifest.at("results").dump());
}

}  // namespace
}  // namespace aropuf::telemetry
