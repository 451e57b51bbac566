#include "sim/shard_study.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "circuit/operating_point.hpp"
#include "common/check.hpp"
#include "common/statistics.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace aropuf {

namespace {

/// E3 pair work is reported in chunks so the HUD sees movement inside the
/// O(N^2) stage; chunking never changes the tally (integer sums commute).
constexpr std::size_t kPairChunks = 8;

/// The two designs under study, keyed for series names.
std::vector<std::pair<std::string, PufConfig>> study_designs() {
  return {{"conventional", PufConfig::conventional()}, {"aro", PufConfig::aro()}};
}

std::string format_year(double y) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", y);
  return buf;
}

/// Builds the shard's chips as the same dies a full-population build would
/// produce: chip i always draws from fabric.child("chip", i).
std::vector<RoPuf> build_chip_range(const PopulationConfig& pop, const PufConfig& puf,
                                    std::size_t lo, std::size_t hi) {
  const telemetry::TraceScope span(
      "build_chip_range", "shard",
      {{"lo", JsonValue(static_cast<std::uint64_t>(lo))},
       {"hi", JsonValue(static_cast<std::uint64_t>(hi))}});
  telemetry::MetricsRegistry::global().counter("study.chips_built").add(hi - lo);
  const RngFabric fabric(pop.seed);
  std::vector<std::optional<RoPuf>> staged(hi - lo);
  parallel_for_chips(staged.size(), [&](std::size_t i) {
    staged[i].emplace(pop.tech, puf, fabric.child("chip", static_cast<std::uint64_t>(lo + i)));
  });
  std::vector<RoPuf> chips;
  chips.reserve(staged.size());
  for (auto& chip : staged) chips.push_back(std::move(*chip));
  return chips;
}

/// Golden (fresh, eval 0) responses of the WHOLE population — the pair study
/// needs every chip's response regardless of which pair range this shard
/// owns.  `own` holds the responses of chips [lo, lo + own.size()), which
/// E2 already read from the same fresh dies at the same corner; only the
/// other chips are built, evaluated, and dropped one at a time.
std::vector<BitVector> all_golden_responses(const PopulationConfig& pop, const PufConfig& puf,
                                            std::size_t lo, std::vector<BitVector> own) {
  const auto chips = static_cast<std::size_t>(pop.chips);
  const std::size_t hi = lo + own.size();
  const telemetry::TraceScope span("all_golden_responses", "shard",
                                   {{"chips", JsonValue(pop.chips)}});
  telemetry::MetricsRegistry::global().counter("study.chips_built").add(chips - own.size());
  const OperatingPoint op = nominal_operating_point(pop.tech);
  const RngFabric fabric(pop.seed);
  return parallel_map_chips(chips, [&](std::size_t i) {
    if (i >= lo && i < hi) return std::move(own[i - lo]);
    const RoPuf chip(pop.tech, puf, fabric.child("chip", static_cast<std::uint64_t>(i)));
    return chip.evaluate(op, /*eval_index=*/0);
  });
}

}  // namespace

ShardStudyResult run_shard_study(const ShardStudyConfig& cfg, std::size_t index,
                                 std::size_t count, const StudyProgressFn& progress) {
  ARO_REQUIRE(cfg.pop.chips >= 2, "study needs at least two chips");
  ARO_REQUIRE(!cfg.checkpoints.empty(), "study needs at least one aging checkpoint");
  const auto chips_total = static_cast<std::size_t>(cfg.pop.chips);
  const auto [chip_lo, chip_hi] = shard_range(chips_total, index, count);
  const std::size_t pairs_total = chips_total * (chips_total - 1) / 2;
  const auto [pair_lo, pair_hi] = shard_range(pairs_total, index, count);

  const auto designs = study_designs();
  // Work units for progress reporting: per design, one unit per E2 build +
  // one per checkpoint, then one per E3 response build + one per pair chunk.
  const std::int64_t units_total = static_cast<std::int64_t>(
      designs.size() * (1 + cfg.checkpoints.size() + 1 + kPairChunks));
  std::int64_t units_done = 0;
  const auto report = [&](const std::string& stage) {
    if (progress) progress(stage, units_done, units_total);
  };

  telemetry::MetricsRegistry::global().gauge("study.shard_chips").set(
      static_cast<double>(chip_hi - chip_lo));
  telemetry::MetricsRegistry::global().gauge("study.shard_pairs").set(
      static_cast<double>(pair_hi - pair_lo));

  ShardStudyResult result;
  result.chip_lo = chip_lo;
  result.chip_hi = chip_hi;
  const OperatingPoint op = nominal_operating_point(cfg.pop.tech);

  for (const auto& [key, puf] : designs) {
    // The shard's own chips' golden responses: read by E2, reused by E3.
    std::vector<BitVector> golden;

    // --- E2: aging flip series over the shard's chip range ----------------
    {
      const telemetry::StageTimer stage("shard.e2[" + key + "]");
      auto chips = build_chip_range(cfg.pop, puf, chip_lo, chip_hi);
      golden = parallel_map_chips(
          chips.size(), [&](std::size_t c) { return chips[c].evaluate(op, /*eval_index=*/0); });
      ++units_done;
      report("e2." + key + ".build");

      // Mirrors run_flip_checkpoints: incremental aging, eval index 1.. per
      // checkpoint, per-chip flip percent.  The per-chip values depend only
      // on the chip's own RNG streams, never on shard or thread layout.
      double previous_years = 0.0;
      std::uint64_t eval_index = 1;
      for (const double y : cfg.checkpoints) {
        ARO_REQUIRE(y >= previous_years, "checkpoints must be non-decreasing");
        const auto flip_percent = parallel_map_chips(chips.size(), [&](std::size_t c) {
          chips[c].age_years(y - previous_years);
          return fractional_hamming_distance(golden[c], chips[c].evaluate(op, eval_index)) *
                 100.0;
        });
        previous_years = y;
        ++eval_index;
        SampleSeries series;
        series.name = "e2." + key + ".flip_percent.y" + format_year(y);
        series.offset = chip_lo;
        series.total = chips_total;
        series.hist_lo = 0.0;
        series.hist_hi = 100.0;
        series.hist_bins = 50;
        series.values = flip_percent;
        result.samples.push_back(std::move(series));
        ++units_done;
        report("e2." + key + ".y" + format_year(y));
      }
    }

    // --- E3: uniqueness tally over the shard's pair range -----------------
    {
      const telemetry::StageTimer stage("shard.e3[" + key + "]");
      const std::vector<BitVector> responses =
          all_golden_responses(cfg.pop, puf, chip_lo, std::move(golden));
      ++units_done;
      report("e3." + key + ".responses");

      const std::size_t bits = responses.front().size();

      // Uniformity is per-chip: only the shard's own chips, as samples.
      SampleSeries uniformity;
      uniformity.name = "e3." + key + ".uniformity";
      uniformity.offset = chip_lo;
      uniformity.total = chips_total;
      uniformity.hist_lo = 0.0;
      uniformity.hist_hi = 1.0;
      uniformity.hist_bins = 50;
      uniformity.values.reserve(chip_hi - chip_lo);
      for (std::size_t c = chip_lo; c < chip_hi; ++c) {
        uniformity.values.push_back(responses[c].ones_fraction());
      }
      result.samples.push_back(std::move(uniformity));

      // Flattened pair index k -> (row, col), the same lexicographic order
      // compute_uniqueness uses; the shard owns k in [pair_lo, pair_hi).
      std::vector<std::size_t> row_offset(chips_total);
      for (std::size_t i = 0, k = 0; i < chips_total; ++i) {
        row_offset[i] = k;
        k += chips_total - 1 - i;
      }

      PairTally tally;
      tally.name = "e3." + key + ".pair_hd";
      tally.offset = pair_lo;
      tally.total = pairs_total;
      tally.denom = bits;
      tally.bins.assign(50, 0);
      Histogram hist(0.0, 1.0, tally.bins.size());  // compute_uniqueness's binning
      bool first_value = true;
      const std::size_t owned = pair_hi - pair_lo;
      for (std::size_t chunk = 0; chunk < kPairChunks; ++chunk) {
        const auto [c_lo, c_hi] = shard_range(owned, chunk, kPairChunks);
        const auto hds = parallel_map_chips(c_hi - c_lo, [&](std::size_t t) {
          const std::size_t k = pair_lo + c_lo + t;
          const auto row = static_cast<std::size_t>(
              std::distance(row_offset.begin(),
                            std::upper_bound(row_offset.begin(), row_offset.end(), k)) -
              1);
          const std::size_t col = row + 1 + (k - row_offset[row]);
          return static_cast<std::uint64_t>(hamming_distance(responses[row], responses[col]));
        });
        for (const std::uint64_t hd : hds) {
          ++tally.count;
          tally.sum += hd;
          tally.sum_sq += hd * hd;
          if (first_value) {
            tally.min = hd;
            tally.max = hd;
            first_value = false;
          } else {
            tally.min = std::min(tally.min, hd);
            tally.max = std::max(tally.max, hd);
          }
          hist.add(static_cast<double>(hd) / static_cast<double>(bits));
        }
        ++units_done;
        report("e3." + key + ".pairs");
      }
      for (std::size_t b = 0; b < tally.bins.size(); ++b) {
        tally.bins[b] = hist.count(b);
      }
      telemetry::MetricsRegistry::global().counter("study.pair_hds").add(tally.count);
      result.tallies.push_back(std::move(tally));
    }
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
                          const std::string& run_name, bool binary,
                          const StudyProgressFn& progress) {
  telemetry::reset_run_record();
  telemetry::MetricsRegistry::global().reset();
  telemetry::MetricsRegistry::global().set_shard_index(index);

  ShardStudyResult result = run_shard_study(cfg, static_cast<std::size_t>(index),
                                            static_cast<std::size_t>(count), progress);
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
  // streamed JSON result equals the file a disk-writing worker produces.
  return doc.dump(/*indent=*/2) + '\n';
}

}  // namespace aropuf
