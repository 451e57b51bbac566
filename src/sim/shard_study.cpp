#include "sim/shard_study.hpp"

#include <algorithm>
#include <charconv>
#include <functional>

#include "circuit/operating_point.hpp"
#include "common/check.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

namespace {

/// The two designs under study, keyed for series names.
std::vector<std::pair<std::string, PufConfig>> study_designs() {
  return {{"conventional", PufConfig::conventional()}, {"aro", PufConfig::aro()}};
}

/// A per-chip series over chips [lo, lo + own) of `total`, values zeroed.
SampleSeries chip_series(std::string name, std::size_t lo, std::size_t own, std::size_t total,
                         double hist_hi) {
  SampleSeries series;
  series.name = std::move(name);
  series.offset = lo;
  series.total = total;
  series.hist_lo = 0.0;
  series.hist_hi = hist_hi;
  series.hist_bins = 50;
  series.values.assign(own, 0.0);
  return series;
}

}  // namespace

std::string checkpoint_series_suffix(double year) {
  char buf[32] = {'y'};
  const std::to_chars_result r = std::to_chars(buf + 1, buf + sizeof buf, year);
  return {buf, r.ptr};
}

ShardStudyResult run_shard_study(const ShardStudyConfig& cfg, std::size_t index,
                                 std::size_t count) {
  ARO_REQUIRE(cfg.pop.chips >= 2, "study needs at least two chips");
  ARO_REQUIRE(!cfg.checkpoints.empty(), "study needs at least one aging checkpoint");
  // Strictly increasing: every checkpoint names its own series.
  ARO_REQUIRE(cfg.checkpoints.front() >= 0.0 &&
                  std::adjacent_find(cfg.checkpoints.begin(), cfg.checkpoints.end(),
                                     std::greater_equal<>()) == cfg.checkpoints.end(),
              "checkpoints must be non-negative and strictly increasing");
  const auto chips_total = static_cast<std::size_t>(cfg.pop.chips);
  const auto [chip_lo, chip_hi] = shard_range(chips_total, index, count);
  const std::size_t own = chip_hi - chip_lo;
  const std::size_t years = cfg.checkpoints.size();

  const auto designs = study_designs();

  auto& registry = telemetry::MetricsRegistry::global();
  registry.gauge("study.shard_chips").set(static_cast<double>(own));

  ShardStudyResult result;
  result.chip_lo = chip_lo;
  result.chip_hi = chip_hi;
  const OperatingPoint op = nominal_operating_point(cfg.pop.tech);
  const RngFabric fabric(cfg.pop.seed);

  // Per design, over own chips: E2's flip series per checkpoint, then E3's
  // uniformity; and the golden reads the aggregator pairs.
  std::vector<std::vector<SampleSeries>> series(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const std::string& key = designs[d].first;
    for (const double y : cfg.checkpoints) {
      series[d].push_back(chip_series("e2." + key + ".flip_percent." + checkpoint_series_suffix(y),
                                      chip_lo, own, chips_total, 100.0));
    }
    series[d].push_back(chip_series("e3." + key + ".uniformity", chip_lo, own, chips_total, 1.0));
    ResponseSet golden;
    golden.name = "e3." + key + ".pair_hd";
    golden.offset = chip_lo;
    golden.responses.resize(own);
    result.responses.push_back(std::move(golden));
  }

  // Chip pass: one task per own die, which chip i always draws from
  // fabric.child("chip", i).  The die is built once, under the first design,
  // and read as every other design before any aging: the designs differ only
  // in pairing and stress.  Each design's fresh (eval 0) read is the chip's
  // E3 response, and E2's flip_walk measures its flips against it, so every
  // value depends only on the chip's own streams.
  {
    const telemetry::StageTimer stage("shard.chips");
    registry.counter("study.chips_built").add(own);
    parallel_for_chips(own, [&](std::size_t k) {
      const std::size_t i = chip_lo + k;
      std::vector<RoPuf> dies;
      dies.reserve(designs.size());
      dies.emplace_back(cfg.pop.tech, designs.front().second,
                        fabric.child("chip", static_cast<std::uint64_t>(i)));
      for (std::size_t d = 1; d < designs.size(); ++d) {
        dies.emplace_back(dies.front(), designs[d].second);
      }
      for (std::size_t d = 0; d < designs.size(); ++d) {
        result.responses[d].responses[k] = dies[d].evaluate(op, /*eval_index=*/0);
      }
      for (std::size_t d = 0; d < designs.size(); ++d) {
        const BitVector& golden = result.responses[d].responses[k];
        const std::vector<double> flips = flip_walk(dies[d], golden, cfg.checkpoints);
        for (std::size_t j = 0; j < years; ++j) series[d][j].values[k] = flips[j];
        series[d][years].values[k] = golden.ones_fraction();
      }
    });
  }
  for (std::vector<SampleSeries>& design_series : series) {
    for (SampleSeries& s : design_series) result.samples.push_back(std::move(s));
  }
  return result;
}

JsonValue study_results_to_json(const ShardStudyResult& result, bool include_values) {
  JsonValue::Object samples;
  for (const SampleSeries& s : result.samples) {
    JsonValue::Object obj;
    obj["offset"] = JsonValue(static_cast<std::uint64_t>(s.offset));
    obj["total"] = JsonValue(static_cast<std::uint64_t>(s.total));
    obj["hist_lo"] = JsonValue(s.hist_lo);
    obj["hist_hi"] = JsonValue(s.hist_hi);
    obj["hist_bins"] = JsonValue(static_cast<std::uint64_t>(s.hist_bins));
    if (include_values) {
      JsonValue::Array values;
      values.reserve(s.values.size());
      for (const double v : s.values) values.emplace_back(v);
      obj["values"] = JsonValue(std::move(values));
    }
    samples[s.name] = JsonValue(std::move(obj));
  }
  JsonValue::Object responses;
  for (const ResponseSet& r : result.responses) {
    JsonValue::Object obj;
    obj["offset"] = JsonValue(static_cast<std::uint64_t>(r.offset));
    JsonValue::Array values;
    values.reserve(r.responses.size());
    for (const BitVector& response : r.responses) values.emplace_back(response.to_string());
    obj["values"] = JsonValue(std::move(values));
    responses[r.name] = JsonValue(std::move(obj));
  }
  JsonValue::Object tallies;
  for (const PairTally& t : result.tallies) {
    JsonValue::Object obj;
    obj["offset"] = JsonValue(static_cast<std::uint64_t>(t.offset));
    obj["total"] = JsonValue(static_cast<std::uint64_t>(t.total));
    obj["denom"] = JsonValue(t.denom);
    obj["count"] = JsonValue(t.count);
    obj["sum"] = JsonValue(t.sum);
    obj["sum_sq"] = JsonValue(t.sum_sq);
    obj["min"] = JsonValue(t.min);
    obj["max"] = JsonValue(t.max);
    obj["hist_lo"] = JsonValue(0.0);
    obj["hist_hi"] = JsonValue(1.0);
    JsonValue::Array bins;
    bins.reserve(t.bins.size());
    for (const std::uint64_t b : t.bins) bins.emplace_back(b);
    obj["bins"] = JsonValue(std::move(bins));
    tallies[t.name] = JsonValue(std::move(obj));
  }
  JsonValue::Object root;
  root["samples"] = JsonValue(std::move(samples));
  root["responses"] = JsonValue(std::move(responses));
  root["tallies"] = JsonValue(std::move(tallies));
  return JsonValue(std::move(root));
}

std::vector<telemetry::BinarySeries> study_series_binary(ShardStudyResult&& result) {
  std::vector<telemetry::BinarySeries> out;
  out.reserve(result.samples.size());
  for (SampleSeries& s : result.samples) {
    telemetry::BinarySeries b;
    b.name = std::move(s.name);
    b.offset = static_cast<std::uint64_t>(s.offset);
    b.total = static_cast<std::uint64_t>(s.total);
    b.hist_lo = s.hist_lo;
    b.hist_hi = s.hist_hi;
    b.hist_bins = static_cast<std::uint32_t>(s.hist_bins);
    b.values = std::move(s.values);
    out.push_back(std::move(b));
  }
  return out;
}

JsonValue study_config_json(const ShardStudyConfig& cfg) {
  JsonValue::Object config;
  config["study_schema"] = JsonValue(kShardStudySchemaVersion);
  config["chips"] = JsonValue(cfg.pop.chips);
  config["seed"] = JsonValue(cfg.pop.seed);
  config["technology"] = JsonValue(cfg.pop.tech.name);
  JsonValue::Array checkpoints;
  for (const double y : cfg.checkpoints) checkpoints.emplace_back(y);
  config["checkpoints"] = JsonValue(std::move(checkpoints));
  JsonValue::Array designs;
  for (const auto& [key, puf] : study_designs()) designs.emplace_back(key);
  config["designs"] = JsonValue(std::move(designs));
  return JsonValue(std::move(config));
}

JsonValue study_shard_descriptor(const ShardStudyConfig& cfg, int index, int count) {
  const auto [lo, hi] =
      shard_range(static_cast<std::size_t>(cfg.pop.chips), static_cast<std::size_t>(index),
                  static_cast<std::size_t>(count));
  JsonValue::Object shard;
  shard["index"] = JsonValue(index);
  shard["count"] = JsonValue(count);
  shard["chip_lo"] = JsonValue(static_cast<std::uint64_t>(lo));
  shard["chip_hi"] = JsonValue(static_cast<std::uint64_t>(hi));
  return JsonValue(std::move(shard));
}

std::string run_shard_job(const ShardStudyConfig& cfg, int index, int count,
                          const std::string& run_name, bool binary) {
  telemetry::reset_run_record();
  telemetry::MetricsRegistry::global().reset();
  telemetry::MetricsRegistry::global().set_shard_index(index);

  ShardStudyResult result =
      run_shard_study(cfg, static_cast<std::size_t>(index), static_cast<std::size_t>(count));
  telemetry::set_runtime_field("shard", study_shard_descriptor(cfg, index, count));
  // Binary transport: the manifest document carries series headers only; the
  // doubles travel as packed payload blocks.  The metadata JSON must be built
  // BEFORE study_series_binary moves the values out of `result`.
  telemetry::set_runtime_field("results",
                               study_results_to_json(result, /*include_values=*/!binary));
  JsonValue doc = telemetry::build_manifest(run_name, study_config_json(cfg));
  if (binary) {
    return telemetry::encode_shard_manifest(doc, study_series_binary(std::move(result)));
  }
  // Match write_manifest byte for byte (pretty print + trailing newline) so a
  // JSON shard file equals the manifest write_manifest would produce.
  return doc.dump(/*indent=*/2) + '\n';
}

}  // namespace aropuf
