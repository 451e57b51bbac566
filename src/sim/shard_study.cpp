#include "sim/shard_study.hpp"

#include <algorithm>
#include <charconv>
#include <functional>

#include "circuit/operating_point.hpp"
#include "common/check.hpp"
#include "common/statistics.hpp"
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

/// E3's exact tally over pair indices [lo, hi) of the flattened pair space,
/// in the lexicographic (row, col) order compute_uniqueness uses.  One pool
/// task per row of the pair triangle counts how often each bit-HD value
/// occurs in the row's owned segment; every tally field follows from the
/// summed integer counts, so no split of the range can move a bit.
PairTally tally_pair_range(const std::vector<BitVector>& golden, std::size_t lo,
                           std::size_t hi) {
  const std::size_t chips = golden.size();
  const std::size_t bits = golden.front().size();
  // row_start[i] is the index of pair (i, i + 1); row i ends where row i + 1
  // starts, and the last row is empty.
  std::vector<std::size_t> row_start(chips + 1, 0);
  for (std::size_t i = 0; i < chips; ++i) row_start[i + 1] = row_start[i] + (chips - 1 - i);
  const auto first_row = static_cast<std::size_t>(
      std::upper_bound(row_start.begin(), row_start.end(), lo) - row_start.begin() - 1);
  const auto end_row = static_cast<std::size_t>(
      std::lower_bound(row_start.begin(), row_start.end(), hi) - row_start.begin());
  const std::size_t rows = lo < hi ? end_row - first_row : 0;

  const auto row_counts = parallel_map_chips(rows, [&](std::size_t r) {
    const std::size_t row = first_row + r;
    const std::size_t col_lo = row + 1 + (std::max(lo, row_start[row]) - row_start[row]);
    const std::size_t col_hi = row + 1 + (std::min(hi, row_start[row + 1]) - row_start[row]);
    std::vector<std::uint64_t> count(bits + 1, 0);
    for (std::size_t col = col_lo; col < col_hi; ++col) {
      ++count[hamming_distance(golden[row], golden[col])];
    }
    return count;
  });

  PairTally tally;
  tally.offset = lo;
  tally.total = row_start[chips];
  tally.denom = bits;
  tally.bins.assign(50, 0);
  Histogram hist(0.0, 1.0, tally.bins.size());  // compute_uniqueness's binning
  for (std::uint64_t hd = 0; hd <= bits; ++hd) {
    std::uint64_t n = 0;
    for (const std::vector<std::uint64_t>& count : row_counts) n += count[hd];
    if (n == 0) continue;
    if (tally.count == 0) tally.min = hd;
    tally.max = hd;
    tally.count += n;
    tally.sum += n * hd;
    tally.sum_sq += n * hd * hd;
    hist.add(static_cast<double>(hd) / static_cast<double>(bits), n);
  }
  for (std::size_t b = 0; b < tally.bins.size(); ++b) tally.bins[b] = hist.count(b);
  return tally;
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
  const std::size_t pairs_total = chips_total * (chips_total - 1) / 2;
  const auto [pair_lo, pair_hi] = shard_range(pairs_total, index, count);
  const std::size_t years = cfg.checkpoints.size();

  const auto designs = study_designs();

  auto& registry = telemetry::MetricsRegistry::global();
  registry.gauge("study.shard_chips").set(static_cast<double>(own));
  registry.gauge("study.shard_pairs").set(static_cast<double>(pair_hi - pair_lo));

  ShardStudyResult result;
  result.chip_lo = chip_lo;
  result.chip_hi = chip_hi;
  const OperatingPoint op = nominal_operating_point(cfg.pop.tech);
  const RngFabric fabric(cfg.pop.seed);

  // Per design: E2's flip series per checkpoint, then E3's uniformity, over
  // own chips; and every die's golden read for the pair pass.
  std::vector<std::vector<SampleSeries>> series(designs.size());
  std::vector<std::vector<BitVector>> golden(designs.size(),
                                             std::vector<BitVector>(chips_total));
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const std::string& key = designs[d].first;
    for (const double y : cfg.checkpoints) {
      series[d].push_back(chip_series("e2." + key + ".flip_percent." + checkpoint_series_suffix(y),
                                      chip_lo, own, chips_total, 100.0));
    }
    series[d].push_back(chip_series("e3." + key + ".uniformity", chip_lo, own, chips_total, 1.0));
  }

  // Chip pass: one task per die of the population, which chip i always
  // draws from fabric.child("chip", i).  The die is built once, under the
  // first design, and read as every other design before any aging: the
  // designs differ only in pairing and stress.  Each design's fresh (eval 0)
  // read goes to E3; the shard's own chips then take E2's flip_walk in each
  // design, so every value depends only on the chip's own streams.
  {
    const telemetry::StageTimer stage("shard.chips");
    registry.counter("study.chips_built").add(chips_total);
    parallel_for_chips(chips_total, [&](std::size_t i) {
      std::vector<RoPuf> dies;
      dies.reserve(designs.size());
      dies.emplace_back(cfg.pop.tech, designs.front().second,
                        fabric.child("chip", static_cast<std::uint64_t>(i)));
      for (std::size_t d = 1; d < designs.size(); ++d) {
        dies.emplace_back(dies.front(), designs[d].second);
      }
      for (std::size_t d = 0; d < designs.size(); ++d) {
        golden[d][i] = dies[d].evaluate(op, /*eval_index=*/0);
      }
      if (i < chip_lo || i >= chip_hi) return;
      for (std::size_t d = 0; d < designs.size(); ++d) {
        const std::vector<double> flips = flip_walk(dies[d], golden[d][i], cfg.checkpoints);
        for (std::size_t j = 0; j < years; ++j) series[d][j].values[i - chip_lo] = flips[j];
        series[d][years].values[i - chip_lo] = golden[d][i].ones_fraction();
      }
    });
  }
  for (std::vector<SampleSeries>& design_series : series) {
    for (SampleSeries& s : design_series) result.samples.push_back(std::move(s));
  }

  // Pair passes: the shard's owned slice of the O(N^2) pair space.
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const std::string& key = designs[d].first;
    const telemetry::StageTimer stage("shard.pairs[" + key + "]");
    PairTally tally = tally_pair_range(golden[d], pair_lo, pair_hi);
    tally.name = "e3." + key + ".pair_hd";
    registry.counter("study.pair_hds").add(tally.count);
    result.tallies.push_back(std::move(tally));
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
