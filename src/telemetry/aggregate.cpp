#include "telemetry/aggregate.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

#include "common/statistics.hpp"
#include "telemetry/binfmt.hpp"
#include "telemetry/log.hpp"
#include "telemetry/manifest.hpp"

namespace aropuf::telemetry {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw std::runtime_error(path + ": " + why);
}

std::int64_t int_field(const JsonValue& obj, const std::string& key, const std::string& path) {
  if (!obj.contains(key) || !obj.at(key).is_number()) {
    fail(path, "missing or non-numeric field '" + key + "'");
  }
  return static_cast<std::int64_t>(obj.at(key).as_number());
}

/// Validates the parts of a shard manifest the merger depends on.
ShardManifest validate_shard(JsonValue doc, const std::string& path) {
  if (!doc.is_object()) fail(path, "top level must be a JSON object");
  if (doc.string_or("schema", "") != kManifestSchema) {
    fail(path, "not a run manifest (schema != '" + std::string(kManifestSchema) + "')");
  }
  if (int_field(doc, "schema_version", path) != kManifestSchemaVersion) {
    fail(path, "unsupported manifest schema_version");
  }
  if (doc.string_or("run", "").empty()) fail(path, "missing run name");
  if (!doc.contains("shard") || !doc.at("shard").is_object()) {
    fail(path, "missing 'shard' descriptor (not a shard manifest?)");
  }
  const JsonValue& shard = doc.at("shard");
  ShardManifest out;
  out.path = path;
  out.shard_index = static_cast<int>(int_field(shard, "index", path));
  out.shard_count = static_cast<int>(int_field(shard, "count", path));
  out.chip_lo = int_field(shard, "chip_lo", path);
  out.chip_hi = int_field(shard, "chip_hi", path);
  if (out.shard_index < 0 || out.shard_count < 1 || out.shard_index >= out.shard_count) {
    fail(path, "shard index/count out of range");
  }
  if (out.chip_lo < 0 || out.chip_hi < out.chip_lo) fail(path, "invalid shard chip range");
  out.doc = std::move(doc);
  return out;
}

std::string compact(const JsonValue& v) { return v.dump(); }

/// Records a conflict when shards disagree on `field` (extracted by `get`).
template <typename Get>
void detect_conflict(const std::vector<ShardManifest>& shards, const std::string& field,
                     std::vector<AggregateConflict>& conflicts, const Get& get) {
  AggregateConflict c;
  c.field = field;
  std::set<std::string> distinct;
  for (const ShardManifest& s : shards) {
    const std::string value = get(s);
    distinct.insert(value);
    c.values[s.shard_index] = value;
  }
  if (distinct.size() > 1) conflicts.push_back(std::move(c));
}

JsonValue conflicts_to_json(const std::vector<AggregateConflict>& conflicts) {
  JsonValue::Array arr;
  for (const AggregateConflict& c : conflicts) {
    JsonValue::Object obj;
    obj["field"] = JsonValue(c.field);
    JsonValue::Object values;
    for (const auto& [shard, value] : c.values) values[std::to_string(shard)] = JsonValue(value);
    obj["values"] = JsonValue(std::move(values));
    arr.emplace_back(std::move(obj));
  }
  return JsonValue(std::move(arr));
}

/// Sums stage wall time in one shard manifest (shard health / ETA figure).
double shard_wall_ms(const JsonValue& doc) {
  double total = 0.0;
  if (!doc.contains("stages") || !doc.at("stages").is_array()) return total;
  for (const JsonValue& stage : doc.at("stages").as_array()) {
    if (stage.is_object()) total += stage.number_or("wall_ms", 0.0);
  }
  return total;
}

JsonValue merge_stages(const std::vector<ShardManifest>& shards) {
  // std::map keys the rollup by stage name: canonical order in the output.
  struct Rollup {
    std::size_t count = 0;
    double wall_sum = 0.0;
    double wall_max = 0.0;
    double cpu_sum = 0.0;
  };
  std::map<std::string, Rollup> rollups;
  for (const ShardManifest& s : shards) {
    if (!s.doc.contains("stages") || !s.doc.at("stages").is_array()) continue;
    for (const JsonValue& stage : s.doc.at("stages").as_array()) {
      if (!stage.is_object()) continue;
      Rollup& r = rollups[stage.string_or("name", "?")];
      const double wall = stage.number_or("wall_ms", 0.0);
      ++r.count;
      r.wall_sum += wall;
      r.wall_max = std::max(r.wall_max, wall);
      r.cpu_sum += stage.number_or("cpu_ms", 0.0);
    }
  }
  JsonValue::Array out;
  for (const auto& [name, r] : rollups) {
    JsonValue::Object obj;
    obj["name"] = JsonValue(name);
    obj["count"] = JsonValue(static_cast<std::uint64_t>(r.count));
    obj["wall_ms_sum"] = JsonValue(r.wall_sum);
    obj["wall_ms_max"] = JsonValue(r.wall_max);
    obj["cpu_ms_sum"] = JsonValue(r.cpu_sum);
    out.emplace_back(std::move(obj));
  }
  return JsonValue(std::move(out));
}

/// Folds per-shard "profile" sections (profiling layer, DESIGN.md §11):
/// modes unify (all equal → that mode, else "mixed"), peak RSS takes the
/// max, raw counters sum with IPC/cache-miss-rate re-derived from the sums,
/// and distinct fallback reasons are collected so a downgraded shard is
/// visible in the merged document.  Shards predating the profile section
/// are skipped; with none present the merged mode is "off".
JsonValue merge_profiles(const std::vector<ShardManifest>& shards) {
  JsonValue::Object out;
  std::string mode;
  bool mixed = false;
  double peak_rss_kib = 0.0;
  std::map<std::string, double> counter_sums;
  bool have_counters = false;
  std::vector<std::string> reasons;
  JsonValue::Object per_shard;
  for (const ShardManifest& s : shards) {
    if (!s.doc.contains("profile") || !s.doc.at("profile").is_object()) continue;
    const JsonValue& p = s.doc.at("profile");
    per_shard[std::to_string(s.shard_index)] = p;
    const std::string shard_mode = p.string_or("mode", "off");
    if (mode.empty()) {
      mode = shard_mode;
    } else if (mode != shard_mode) {
      mixed = true;
    }
    peak_rss_kib = std::max(peak_rss_kib, p.number_or("peak_rss_kib", 0.0));
    const std::string reason = p.string_or("fallback_reason", "");
    if (!reason.empty() && std::find(reasons.begin(), reasons.end(), reason) == reasons.end()) {
      reasons.push_back(reason);
    }
    if (p.contains("counters") && p.at("counters").is_object()) {
      for (const auto& [name, v] : p.at("counters").as_object()) {
        // Raw tallies sum across shards; the derived ratios (ipc,
        // cache_miss_rate, ghz) are recomputed from the sums below.
        if (v.is_number() && name != "ipc" && name != "cache_miss_rate" && name != "ghz") {
          counter_sums[name] += v.as_number();
          have_counters = true;
        }
      }
    }
  }
  out["mode"] = JsonValue(mixed ? "mixed" : (mode.empty() ? "off" : mode));
  {
    JsonValue::Array arr;
    for (const std::string& r : reasons) arr.emplace_back(r);
    out["fallback_reasons"] = JsonValue(std::move(arr));
  }
  out["peak_rss_kib"] = JsonValue(peak_rss_kib);
  if (have_counters) {
    JsonValue::Object counters;
    for (const auto& [name, v] : counter_sums) counters[name] = JsonValue(v);
    const double cycles = counter_sums.count("cycles") ? counter_sums.at("cycles") : 0.0;
    if (cycles > 0.0 && counter_sums.count("instructions")) {
      counters["ipc"] = JsonValue(counter_sums.at("instructions") / cycles);
    }
    if (counter_sums.count("cache_references") && counter_sums.count("cache_misses") &&
        counter_sums.at("cache_references") > 0.0) {
      counters["cache_miss_rate"] =
          JsonValue(counter_sums.at("cache_misses") / counter_sums.at("cache_references"));
    }
    if (cycles > 0.0 && counter_sums.count("task_clock_ms") &&
        counter_sums.at("task_clock_ms") > 0.0) {
      counters["ghz"] = JsonValue(cycles / (counter_sums.at("task_clock_ms") * 1e6));
    }
    out["counters"] = JsonValue(std::move(counters));
  }
  out["per_shard"] = JsonValue(std::move(per_shard));
  return JsonValue(std::move(out));
}

const JsonValue* metrics_section(const ShardManifest& s, const char* kind) {
  if (!s.doc.contains("metrics") || !s.doc.at("metrics").is_object()) return nullptr;
  const JsonValue& metrics = s.doc.at("metrics");
  if (!metrics.contains(kind) || !metrics.at(kind).is_object()) return nullptr;
  return &metrics.at(kind);
}

JsonValue merge_counters(const std::vector<ShardManifest>& shards) {
  std::map<std::string, double> sums;
  for (const ShardManifest& s : shards) {
    if (const JsonValue* counters = metrics_section(s, "counters")) {
      for (const auto& [name, v] : counters->as_object()) {
        if (v.is_number()) sums[name] += v.as_number();
      }
    }
  }
  JsonValue::Object out;
  for (const auto& [name, sum] : sums) out[name] = JsonValue(sum);
  return JsonValue(std::move(out));
}

JsonValue merge_gauges(const std::vector<ShardManifest>& shards) {
  std::map<std::string, std::map<int, double>> readings;  // name -> shard index -> value
  for (const ShardManifest& s : shards) {
    if (const JsonValue* gauges = metrics_section(s, "gauges")) {
      for (const auto& [name, v] : gauges->as_object()) {
        if (v.is_number()) readings[name][s.shard_index] = v.as_number();
      }
    }
  }
  JsonValue::Object out;
  for (const auto& [name, by_shard] : readings) {
    double resolved = by_shard.begin()->second;
    JsonValue::Object per_shard;
    for (const auto& [shard, v] : by_shard) {
      resolved = std::max(resolved, v);
      per_shard[std::to_string(shard)] = JsonValue(v);
    }
    JsonValue::Object obj;
    obj["policy"] = JsonValue("max");
    obj["value"] = JsonValue(resolved);
    obj["per_shard"] = JsonValue(std::move(per_shard));
    out[name] = JsonValue(std::move(obj));
  }
  return JsonValue(std::move(out));
}

/// Rebuilds the RunningStats a histogram snapshot serialized.  Prefers the
/// exact m2 moment; falls back to stddev^2 * (n-1) for older manifests.
RunningStats stats_from_snapshot(const JsonValue& h) {
  const auto n = static_cast<std::size_t>(h.number_or("count", 0.0));
  double m2 = h.number_or("m2", -1.0);
  if (m2 < 0.0) {
    const double sd = h.number_or("stddev", 0.0);
    m2 = n > 1 ? sd * sd * static_cast<double>(n - 1) : 0.0;
  }
  return RunningStats::from_moments(n, h.number_or("mean", 0.0), m2, h.number_or("min", 0.0),
                                    h.number_or("max", 0.0));
}

JsonValue histogram_snapshot_json(const RunningStats& stats, double lo, double hi,
                                  const std::vector<double>& bins) {
  JsonValue::Object obj;
  obj["count"] = JsonValue(static_cast<std::uint64_t>(stats.count()));
  obj["mean"] = JsonValue(stats.mean());
  obj["stddev"] = JsonValue(stats.stddev());
  obj["m2"] = JsonValue(stats.m2());
  obj["min"] = JsonValue(stats.count() > 0 ? stats.min() : 0.0);
  obj["max"] = JsonValue(stats.count() > 0 ? stats.max() : 0.0);
  obj["lo"] = JsonValue(lo);
  obj["hi"] = JsonValue(hi);
  JsonValue::Array out_bins;
  out_bins.reserve(bins.size());
  for (const double b : bins) out_bins.emplace_back(b);
  obj["bins"] = JsonValue(std::move(out_bins));
  return JsonValue(std::move(obj));
}

JsonValue merge_histograms(const std::vector<ShardManifest>& shards,
                           std::vector<AggregateConflict>& conflicts) {
  struct HistMerge {
    bool first = true;
    bool shape_conflict = false;
    double lo = 0.0, hi = 0.0;
    std::size_t bin_count = 0;
    RunningStats stats;
    std::vector<double> bins;
    std::map<int, std::string> shapes;
  };
  std::map<std::string, HistMerge> merges;
  for (const ShardManifest& s : shards) {
    const JsonValue* histograms = metrics_section(s, "histograms");
    if (histograms == nullptr) continue;
    for (const auto& [name, h] : histograms->as_object()) {
      if (!h.is_object() || !h.contains("bins") || !h.at("bins").is_array()) continue;
      HistMerge& m = merges[name];
      const double lo = h.number_or("lo", 0.0);
      const double hi = h.number_or("hi", 0.0);
      const JsonValue::Array& bins = h.at("bins").as_array();
      std::ostringstream shape;
      shape << "lo=" << lo << ",hi=" << hi << ",bins=" << bins.size();
      m.shapes[s.shard_index] = shape.str();
      if (m.first) {
        m.first = false;
        m.lo = lo;
        m.hi = hi;
        m.bin_count = bins.size();
        m.bins.assign(bins.size(), 0.0);
      } else if (lo != m.lo || hi != m.hi || bins.size() != m.bin_count) {
        m.shape_conflict = true;
        continue;
      }
      m.stats.merge(stats_from_snapshot(h));
      for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b].is_number()) m.bins[b] += bins[b].as_number();
      }
    }
  }
  JsonValue::Object out;
  for (auto& [name, m] : merges) {
    if (m.shape_conflict) {
      AggregateConflict c;
      c.field = "metrics.histograms." + name;
      c.values = std::move(m.shapes);
      conflicts.push_back(std::move(c));
      continue;  // unmergeable shape: reported, not silently mangled
    }
    out[name] = histogram_snapshot_json(m.stats, m.lo, m.hi, m.bins);
  }
  return JsonValue(std::move(out));
}

const JsonValue* results_section(const ShardManifest& s, const char* kind) {
  if (!s.doc.contains("results") || !s.doc.at("results").is_object()) return nullptr;
  const JsonValue& results = s.doc.at("results");
  if (!results.contains(kind) || !results.at(kind).is_object()) return nullptr;
  return &results.at(kind);
}

/// Pulls every embedded sample-series value array out of a JSON shard
/// manifest into owned chunks, validating structure as it goes.  Throws (via
/// fail) on malformed series; mutates nothing on failure paths that matter —
/// the caller only commits the chunks after all validation passes.
std::vector<SeriesChunk> extract_series_chunks(const ShardManifest& shard) {
  std::vector<SeriesChunk> chunks;
  const JsonValue* samples = results_section(shard, "samples");
  if (samples == nullptr) return chunks;
  for (const auto& [name, series] : samples->as_object()) {
    if (!series.is_object() || !series.contains("values") || !series.at("values").is_array()) {
      fail(shard.path, "sample series '" + name + "' malformed");
    }
    SeriesChunk p;
    p.name = name;
    p.offset = static_cast<std::int64_t>(series.number_or("offset", 0.0));
    p.total = static_cast<std::int64_t>(series.number_or("total", 0.0));
    p.hist_lo = series.number_or("hist_lo", 0.0);
    p.hist_hi = series.number_or("hist_hi", 1.0);
    p.hist_bins = static_cast<std::int64_t>(series.number_or("hist_bins", 50.0));
    const JsonValue::Array& values = series.at("values").as_array();
    p.values.reserve(values.size());
    for (const JsonValue& v : values) {
      if (!v.is_number()) fail(shard.path, "sample series '" + name + "' malformed");
      p.values.push_back(v.as_number());
    }
    chunks.push_back(std::move(p));
  }
  return chunks;
}

/// Checks that per-shard [lo, hi) ranges exactly tile [0, total).
void require_exact_tiling(const std::string& what,
                          std::vector<std::pair<std::int64_t, std::int64_t>> ranges,
                          std::int64_t total) {
  std::sort(ranges.begin(), ranges.end());
  std::int64_t cursor = 0;
  for (const auto& [lo, hi] : ranges) {
    if (lo != cursor) {
      throw std::runtime_error(what + ": shard ranges leave a gap or overlap at index " +
                               std::to_string(cursor) + " (next range starts at " +
                               std::to_string(lo) + ")");
    }
    cursor = hi;
  }
  if (cursor != total) {
    throw std::runtime_error(what + ": shard ranges cover [0, " + std::to_string(cursor) +
                             ") but the declared total is " + std::to_string(total));
  }
}

/// Bins of a pair tally's histogram over fractional HD in [0, 1].
constexpr std::size_t kPairTallyBins = 50;

/// One shard's piece of a response set: chips [offset, offset + chips), each
/// response `bits` long and packed LSB-first into ceil(bits / 64) words.
struct ResponsePiece {
  std::string name;
  std::int64_t offset = 0;
  std::int64_t chips = 0;
  std::size_t bits = 0;
  std::vector<std::uint64_t> words;
};

/// Reads a shard's results.responses, refusing (with the shard's path) any
/// set that does not hold one '0'/'1' string per own chip, all of one
/// length, starting at chip_lo.
std::vector<ResponsePiece> extract_responses(const ShardManifest& shard) {
  std::vector<ResponsePiece> pieces;
  if (!shard.doc.contains("results") || !shard.doc.at("results").is_object()) return pieces;
  const JsonValue& results = shard.doc.at("results");
  if (!results.contains("responses")) return pieces;
  if (!results.at("responses").is_object()) fail(shard.path, "responses section malformed");
  const std::int64_t own = shard.chip_hi - shard.chip_lo;
  for (const auto& [name, set] : results.at("responses").as_object()) {
    const std::string what = "responses '" + name + "'";
    if (!set.is_object() || !set.contains("offset") || !set.at("offset").is_number() ||
        !set.contains("values") || !set.at("values").is_array()) {
      fail(shard.path, what + " malformed");
    }
    if (set.at("offset").as_number() != static_cast<double>(shard.chip_lo)) {
      fail(shard.path, what + " start at chip " + set.at("offset").dump() +
                           ", not at the shard's chip_lo " + std::to_string(shard.chip_lo));
    }
    const JsonValue::Array& values = set.at("values").as_array();
    if (static_cast<std::int64_t>(values.size()) != own) {
      fail(shard.path, what + " hold " + std::to_string(values.size()) +
                           " entries for the shard's " + std::to_string(own) + " chips");
    }
    ResponsePiece piece;
    piece.name = name;
    piece.offset = shard.chip_lo;
    piece.chips = own;
    const auto bad_entry = [&](std::size_t c, const std::string& why) {
      fail(shard.path, what + " entry " + std::to_string(c) + " " + why);
    };
    std::size_t stride = 0;
    for (std::size_t c = 0; c < values.size(); ++c) {
      if (!values[c].is_string()) bad_entry(c, "is not a bit string");
      const std::string& bits = values[c].as_string();
      if (bits.empty() || bits.find_first_not_of("01") != std::string::npos) {
        bad_entry(c, "is not a bit string");
      }
      if (c == 0) {
        piece.bits = bits.size();
        stride = (piece.bits + 63) / 64;
        piece.words.assign(values.size() * stride, 0);
      } else if (bits.size() != piece.bits) {
        bad_entry(c, "is " + std::to_string(bits.size()) + " bits long, entry 0 is " +
                         std::to_string(piece.bits));
      }
      std::uint64_t* words = piece.words.data() + c * stride;
      for (std::size_t b = 0; b < bits.size(); ++b) {
        if (bits[b] == '1') words[b / 64] |= std::uint64_t{1} << (b % 64);
      }
    }
    pieces.push_back(std::move(piece));
  }
  return pieces;
}

/// E3's exact tally over every pair (i < j) of `chips` responses of `bits`
/// bits, packed as ResponsePiece packs them: how often each bit-HD value
/// occurs, and the one full-range tile (count, sum, sum of squares, min, max,
/// bins) those integer counts give, in a shard's results.tallies shape.
JsonValue tally_all_pairs(const std::vector<std::uint64_t>& words, std::size_t chips,
                          std::size_t bits) {
  const std::size_t stride = (bits + 63) / 64;
  std::vector<std::uint64_t> hd_count(bits + 1, 0);
  for (std::size_t i = 0; i < chips; ++i) {
    const std::uint64_t* a = words.data() + i * stride;
    for (std::size_t j = i + 1; j < chips; ++j) {
      const std::uint64_t* b = words.data() + j * stride;
      std::size_t hd = 0;
      for (std::size_t w = 0; w < stride; ++w) {
        hd += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
      }
      ++hd_count[hd];
    }
  }
  std::uint64_t count = 0, sum = 0, sum_sq = 0, min = 0, max = 0;
  Histogram hist(0.0, 1.0, kPairTallyBins);
  for (std::uint64_t hd = 0; hd <= bits; ++hd) {
    const std::uint64_t n = hd_count[hd];
    if (n == 0) continue;
    if (count == 0) min = hd;
    max = hd;
    count += n;
    sum += n * hd;
    sum_sq += n * hd * hd;
    hist.add(static_cast<double>(hd) / static_cast<double>(bits), n);
  }
  JsonValue::Object tile;
  tile["offset"] = JsonValue(std::uint64_t{0});
  tile["total"] = JsonValue(static_cast<std::uint64_t>(chips * (chips - 1) / 2));
  tile["denom"] = JsonValue(static_cast<std::uint64_t>(bits));
  tile["count"] = JsonValue(count);
  tile["sum"] = JsonValue(sum);
  tile["sum_sq"] = JsonValue(sum_sq);
  tile["min"] = JsonValue(min);
  tile["max"] = JsonValue(max);
  tile["hist_lo"] = JsonValue(0.0);
  tile["hist_hi"] = JsonValue(1.0);
  JsonValue::Array bins;
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    bins.emplace_back(static_cast<std::uint64_t>(hist.count(b)));
  }
  tile["bins"] = JsonValue(std::move(bins));
  return JsonValue(std::move(tile));
}

/// A set of pair-tally tiles: a results.tallies object (name -> tile) and
/// where it came from, for messages.
using TileSet = std::pair<std::string, const JsonValue*>;

/// Merges integer pair tallies: all moments are exact integer sums, so the
/// merge is order-independent and bit-identical to a single-process tally.
/// The fold hands it one full-range tile per response set (finalize()).
/// Summing tiles over a split pair space serves only callers that tally
/// their own pair ranges — perfbench's traced rebuild of the shard study —
/// and goes with that rebuild.
JsonValue merge_tallies(const std::vector<TileSet>& tile_sets) {
  struct TallyMerge {
    bool first = true;
    bool have_minmax = false;
    std::int64_t total = 0;
    double denom = 1.0;
    double hist_lo = 0.0, hist_hi = 1.0;
    std::size_t hist_bins = 0;
    double count = 0.0, sum = 0.0, sum_sq = 0.0;
    double min = 0.0, max = 0.0;
    std::vector<double> bins;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  };
  std::map<std::string, TallyMerge> merges;
  for (const auto& [origin, tallies] : tile_sets) {
    for (const auto& [name, t] : tallies->as_object()) {
      if (!t.is_object() || !t.contains("bins") || !t.at("bins").is_array()) {
        throw std::runtime_error(origin + ": tally '" + name + "' malformed");
      }
      TallyMerge& m = merges[name];
      const JsonValue::Array& bins = t.at("bins").as_array();
      if (m.first) {
        m.first = false;
        m.total = static_cast<std::int64_t>(t.number_or("total", 0.0));
        m.denom = t.number_or("denom", 1.0);
        m.hist_lo = t.number_or("hist_lo", 0.0);
        m.hist_hi = t.number_or("hist_hi", 1.0);
        m.hist_bins = bins.size();
        m.bins.assign(bins.size(), 0.0);
      } else if (static_cast<std::int64_t>(t.number_or("total", 0.0)) != m.total ||
                 t.number_or("denom", 1.0) != m.denom || bins.size() != m.hist_bins) {
        throw std::runtime_error(origin + ": tally '" + name + "' disagrees on shape");
      }
      // An empty piece (a shard whose pair range is empty) carries no
      // min/max information; letting its zeros in would corrupt the merge.
      if (t.number_or("count", 0.0) > 0.0) {
        if (!m.have_minmax) {
          m.have_minmax = true;
          m.min = t.number_or("min", 0.0);
          m.max = t.number_or("max", 0.0);
        } else {
          m.min = std::min(m.min, t.number_or("min", 0.0));
          m.max = std::max(m.max, t.number_or("max", 0.0));
        }
      }
      m.count += t.number_or("count", 0.0);
      m.sum += t.number_or("sum", 0.0);
      m.sum_sq += t.number_or("sum_sq", 0.0);
      m.ranges.emplace_back(static_cast<std::int64_t>(t.number_or("offset", 0.0)),
                            static_cast<std::int64_t>(t.number_or("offset", 0.0)) +
                                static_cast<std::int64_t>(t.number_or("count", 0.0)));
      for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b].is_number()) m.bins[b] += bins[b].as_number();
      }
    }
  }
  JsonValue::Object out;
  for (auto& [name, m] : merges) {
    require_exact_tiling("tally '" + name + "'", std::move(m.ranges), m.total);
    // Derived statistics in denominator units.  All inputs are exact integer
    // sums, so these doubles are identical for any shard decomposition.
    const double n = m.count;
    const double mean = n > 0 ? (m.sum / n) / m.denom : 0.0;
    double variance = 0.0;
    if (n > 1.5) {
      const double sum_frac = m.sum / m.denom;
      const double sum_sq_frac = m.sum_sq / (m.denom * m.denom);
      variance = std::max(0.0, (sum_sq_frac - sum_frac * sum_frac / n) / (n - 1.0));
    }
    JsonValue::Object obj;
    obj["count"] = JsonValue(m.count);
    obj["sum"] = JsonValue(m.sum);
    obj["sum_sq"] = JsonValue(m.sum_sq);
    obj["denom"] = JsonValue(m.denom);
    obj["mean"] = JsonValue(mean);
    obj["stddev"] = JsonValue(std::sqrt(variance));
    obj["min"] = JsonValue(n > 0 ? m.min / m.denom : 0.0);
    obj["max"] = JsonValue(n > 0 ? m.max / m.denom : 0.0);
    JsonValue::Object hobj;
    hobj["lo"] = JsonValue(m.hist_lo);
    hobj["hi"] = JsonValue(m.hist_hi);
    JsonValue::Array bins;
    for (const double b : m.bins) bins.emplace_back(b);
    hobj["bins"] = JsonValue(std::move(bins));
    obj["histogram"] = JsonValue(std::move(hobj));
    out[name] = JsonValue(std::move(obj));
  }
  return JsonValue(std::move(out));
}

}  // namespace

ShardManifest wrap_shard_manifest(JsonValue doc, const std::string& path) {
  return validate_shard(std::move(doc), path);
}

DecodedShard decode_shard_input(std::string bytes, const std::string& origin) {
  DecodedShard out;
  if (looks_binary(bytes)) {
    BinaryManifestReader reader = [&] {
      try {
        return BinaryManifestReader::parse(std::move(bytes));
      } catch (const BinfmtError& e) {
        throw BinfmtError(e.code(), origin + ": " + e.what());
      }
    }();
    out.manifest = validate_shard(reader.metadata(), origin);
    out.chunks.reserve(reader.series_count());
    for (std::size_t i = 0; i < reader.series_count(); ++i) {
      const SeriesView& view = reader.series(i);
      SeriesChunk chunk;
      chunk.name = std::string(view.name);
      chunk.offset = static_cast<std::int64_t>(view.offset);
      chunk.total = static_cast<std::int64_t>(view.total);
      chunk.hist_lo = view.hist_lo;
      chunk.hist_hi = view.hist_hi;
      chunk.hist_bins = static_cast<std::int64_t>(view.hist_bins);
      chunk.values = view.to_vector();
      out.chunks.push_back(std::move(chunk));
    }
    return out;
  }

  JsonValue doc;
  try {
    doc = JsonValue::parse(bytes);
  } catch (const std::exception& e) {
    fail(origin, std::string("malformed or truncated manifest: ") + e.what());
  }
  out.manifest = validate_shard(std::move(doc), origin);
  out.chunks = extract_series_chunks(out.manifest);
  return out;
}

DecodedShard load_shard_input(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) fail(path, "cannot open file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) fail(path, "read error");
  return decode_shard_input(buffer.str(), path);
}

bool shard_manifest_is_valid(const std::string& path, const std::string& expect_run,
                             int expect_index, int expect_count, const JsonValue& expect_config,
                             std::string* why) {
  try {
    const ShardManifest shard = load_shard_input(path).manifest;
    if (shard.doc.string_or("run", "") != expect_run) {
      if (why != nullptr) *why = "run name mismatch";
      return false;
    }
    if (shard.shard_index != expect_index || shard.shard_count != expect_count) {
      if (why != nullptr) *why = "shard coordinates mismatch";
      return false;
    }
    if (!shard.doc.contains("config") || shard.doc.at("config").dump() != expect_config.dump()) {
      if (why != nullptr) *why = "study config mismatch";
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

/// Builder state.  `shards` holds every folded manifest with its raw sample
/// values and responses stripped (the metadata-only residue the
/// finalize-time merges need); `series` holds the live per-series folds and
/// `responses` the response sets, which finalize() tallies.
struct AggregateBuilder::Impl {
  /// Incremental reduction of one sample series.  `cursor` is the next global
  /// chip index to reduce; `pending` is the out-of-order window keyed by
  /// piece offset.  A multimap so a duplicate offset (an overlap bug in the
  /// inputs) is parked rather than silently overwritten — finalize() then
  /// reports it through the same tiling check the batch path used.
  struct SeriesFold {
    std::int64_t total = 0;
    double hist_lo = 0.0, hist_hi = 1.0;
    std::int64_t hist_bins = 0;
    std::int64_t cursor = 0;
    RunningStats stats;
    std::optional<Histogram> hist;
    std::multimap<std::int64_t, std::vector<double>> pending;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    std::vector<double> kept;  ///< populated under RawSeriesPolicy::kKeep only
  };

  /// One response set's pieces by chip offset.  Kept to the end under every
  /// policy: finalize() pairs every chip with every other.
  struct ResponseFold {
    std::size_t bits = 0;  ///< response length; 0 until a non-empty piece lands
    std::vector<ResponsePiece> pieces;
  };

  RawSeriesPolicy policy = RawSeriesPolicy::kKeep;
  bool finalized = false;
  std::set<int> seen;
  std::vector<ShardManifest> shards;
  std::map<std::string, SeriesFold> series;
  std::map<std::string, ResponseFold> responses;
  std::size_t buffered = 0;
  std::size_t peak_buffered = 0;
  std::size_t reduced = 0;
};

AggregateBuilder::AggregateBuilder(RawSeriesPolicy policy) : impl_(std::make_unique<Impl>()) {
  impl_->policy = policy;
}
AggregateBuilder::~AggregateBuilder() = default;
AggregateBuilder::AggregateBuilder(AggregateBuilder&&) noexcept = default;
AggregateBuilder& AggregateBuilder::operator=(AggregateBuilder&&) noexcept = default;

RawSeriesPolicy AggregateBuilder::policy() const { return impl_->policy; }
int AggregateBuilder::shards_added() const { return static_cast<int>(impl_->shards.size()); }
int AggregateBuilder::expected_shards() const {
  return impl_->shards.empty() ? 0 : impl_->shards.front().shard_count;
}
std::size_t AggregateBuilder::buffered_values() const { return impl_->buffered; }
std::size_t AggregateBuilder::peak_buffered_values() const { return impl_->peak_buffered; }
std::size_t AggregateBuilder::reduced_values() const { return impl_->reduced; }

void AggregateBuilder::add(ShardManifest&& shard) {
  // JSON transport: pull the embedded value arrays out of the document into
  // chunks, then run the format-agnostic fold.  Extraction validates
  // structure and touches no builder state, so a throw keeps prior folds
  // intact (the transactional contract).
  DecodedShard input;
  input.chunks = extract_series_chunks(shard);
  input.manifest = std::move(shard);
  add(std::move(input));
}

void AggregateBuilder::add(DecodedShard&& input) {
  Impl& im = *impl_;
  ShardManifest& shard = input.manifest;
  if (im.finalized) throw std::logic_error("AggregateBuilder: add() after finalize()");

  // ---- validation phase: no builder state is touched until it all passes,
  // so a throw here leaves every prior fold intact. ----
  if (!im.shards.empty() && shard.shard_count != im.shards.front().shard_count) {
    fail(shard.path, "shard count disagrees with the other manifests");
  }
  if (im.seen.count(shard.shard_index) != 0) {
    fail(shard.path, "duplicate shard index " + std::to_string(shard.shard_index));
  }
  for (const SeriesChunk& p : input.chunks) {
    const auto it = im.series.find(p.name);
    if (it == im.series.end()) continue;
    const Impl::SeriesFold& f = it->second;
    if (p.total != f.total) {
      fail(shard.path, "sample series '" + p.name + "' disagrees on total sample count");
    }
    if (p.hist_lo != f.hist_lo || p.hist_hi != f.hist_hi || p.hist_bins != f.hist_bins) {
      fail(shard.path, "sample series '" + p.name + "' disagrees on histogram shape");
    }
  }
  // Tallies merge at finalize() from the retained docs; reject structural
  // junk here so a malformed shard never enters the fold at all.
  if (const JsonValue* tallies = results_section(shard, "tallies")) {
    for (const auto& [name, t] : tallies->as_object()) {
      if (!t.is_object() || !t.contains("bins") || !t.at("bins").is_array()) {
        fail(shard.path, "tally '" + name + "' malformed");
      }
    }
  }
  std::vector<ResponsePiece> responses = extract_responses(shard);
  for (const ResponsePiece& p : responses) {
    const auto it = im.responses.find(p.name);
    if (it != im.responses.end() && it->second.bits != 0 && p.bits != 0 &&
        p.bits != it->second.bits) {
      fail(shard.path, "responses '" + p.name + "' are " + std::to_string(p.bits) +
                           " bits long, the rest of their set " +
                           std::to_string(it->second.bits));
    }
  }

  // ---- commit phase: cannot fail. ----
  im.seen.insert(shard.shard_index);
  for (SeriesChunk& p : input.chunks) {
    Impl::SeriesFold& f = im.series[p.name];
    if (f.ranges.empty()) {
      f.total = p.total;
      f.hist_lo = p.hist_lo;
      f.hist_hi = p.hist_hi;
      f.hist_bins = p.hist_bins;
      f.hist.emplace(p.hist_lo, p.hist_hi,
                     static_cast<std::size_t>(std::max<std::int64_t>(p.hist_bins, 1)));
    }
    f.ranges.emplace_back(p.offset, p.offset + static_cast<std::int64_t>(p.values.size()));
    im.buffered += p.values.size();
    f.pending.emplace(p.offset, std::move(p.values));
    im.peak_buffered = std::max(im.peak_buffered, im.buffered);
    // Drain: reduce strictly in global chip order, exactly the operation
    // sequence of a single-process reduction, regardless of arrival order.
    while (!f.pending.empty() && f.pending.begin()->first == f.cursor) {
      std::vector<double> chunk = std::move(f.pending.begin()->second);
      f.pending.erase(f.pending.begin());
      for (const double x : chunk) {
        f.stats.add(x);
        f.hist->add(x);
      }
      if (im.policy == RawSeriesPolicy::kKeep) {
        f.kept.insert(f.kept.end(), chunk.begin(), chunk.end());
      }
      f.cursor += static_cast<std::int64_t>(chunk.size());
      im.buffered -= chunk.size();
      im.reduced += chunk.size();
    }  // under kDropAfterCheck the chunk dies here — peak stays O(window)
  }
  for (ResponsePiece& p : responses) {
    Impl::ResponseFold& f = im.responses[p.name];
    if (f.bits == 0) f.bits = p.bits;
    f.pieces.push_back(std::move(p));
  }
  // Retain only the metadata residue of the manifest: raw sample values and
  // responses have been folded, so the doc drops them before storage.
  if (shard.doc.contains("results") && shard.doc.at("results").is_object()) {
    JsonValue::Object& results = shard.doc.as_object().at("results").as_object();
    if (results.count("samples") != 0) results["samples"] = JsonValue(JsonValue::Object{});
    results.erase("responses");
  }
  im.shards.push_back(std::move(shard));
}

AggregateResult AggregateBuilder::finalize() {
  Impl& im = *impl_;
  if (im.finalized) throw std::logic_error("AggregateBuilder: finalize() called twice");
  if (im.shards.empty()) {
    throw std::runtime_error("aggregate: no shard manifests were added");
  }
  im.finalized = true;
  std::vector<ShardManifest>& shards = im.shards;
  // Canonical order: every finalize-time merge walks shards in index order,
  // so the output is independent of arrival order.
  std::sort(shards.begin(), shards.end(), [](const ShardManifest& a, const ShardManifest& b) {
    return a.shard_index < b.shard_index;
  });
  const int shard_count = shards.front().shard_count;
  std::vector<std::pair<std::int64_t, std::int64_t>> chip_ranges;
  std::int64_t chips = 0;
  for (const ShardManifest& s : shards) {
    chip_ranges.emplace_back(s.chip_lo, s.chip_hi);
    chips = std::max(chips, s.chip_hi);
  }
  if (static_cast<int>(shards.size()) != shard_count) {
    throw std::runtime_error("aggregate: have " + std::to_string(shards.size()) +
                             " manifests but shards declare a count of " +
                             std::to_string(shard_count));
  }
  require_exact_tiling("shard chip ranges", std::move(chip_ranges), chips);

  std::vector<AggregateConflict> conflicts;
  detect_conflict(shards, "run", conflicts,
                  [](const ShardManifest& s) { return s.doc.string_or("run", ""); });
  detect_conflict(shards, "git_sha", conflicts,
                  [](const ShardManifest& s) { return s.doc.string_or("git_sha", ""); });
  detect_conflict(shards, "kernel_backend", conflicts,
                  [](const ShardManifest& s) { return s.doc.string_or("kernel_backend", ""); });
  detect_conflict(shards, "build", conflicts, [](const ShardManifest& s) {
    return s.doc.contains("build") ? compact(s.doc.at("build")) : std::string("{}");
  });
  detect_conflict(shards, "config", conflicts, [](const ShardManifest& s) {
    return s.doc.contains("config") ? compact(s.doc.at("config")) : std::string("{}");
  });
  // A metrics snapshot that claims a different shard index than the manifest
  // descriptor means the worker's registry was mislabeled — surface it.
  for (const ShardManifest& s : shards) {
    if (s.doc.contains("metrics") && s.doc.at("metrics").is_object() &&
        s.doc.at("metrics").contains("shard")) {
      const double claimed = s.doc.at("metrics").at("shard").as_number();
      if (static_cast<int>(claimed) != s.shard_index) {
        AggregateConflict c;
        c.field = "metrics.shard";
        c.values[s.shard_index] = compact(s.doc.at("metrics").at("shard"));
        conflicts.push_back(std::move(c));
      }
    }
  }

  JsonValue::Object root;
  root["schema"] = JsonValue(kAggregateSchema);
  root["schema_version"] = JsonValue(kAggregateSchemaVersion);
  root["run"] = JsonValue(shards.front().doc.string_or("run", ""));
  root["created_unix_ms"] = JsonValue(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  root["chips"] = JsonValue(static_cast<std::uint64_t>(chips));
  root["shard_count"] = JsonValue(shard_count);
  root["config"] = shards.front().doc.contains("config") ? shards.front().doc.at("config")
                                                         : JsonValue(JsonValue::Object{});
  root["git_sha"] = JsonValue(shards.front().doc.string_or("git_sha", "unknown"));
  root["build"] = shards.front().doc.contains("build") ? shards.front().doc.at("build")
                                                       : JsonValue(JsonValue::Object{});

  JsonValue::Array shard_rows;
  for (const ShardManifest& s : shards) {
    JsonValue::Object row;
    row["index"] = JsonValue(s.shard_index);
    row["chip_lo"] = JsonValue(static_cast<std::uint64_t>(s.chip_lo));
    row["chip_hi"] = JsonValue(static_cast<std::uint64_t>(s.chip_hi));
    row["manifest"] = JsonValue(s.path);
    row["git_sha"] = JsonValue(s.doc.string_or("git_sha", "unknown"));
    row["threads"] = JsonValue(s.doc.number_or("threads", 0.0));
    row["kernel_backend"] = JsonValue(s.doc.string_or("kernel_backend", "unknown"));
    row["wall_ms"] = JsonValue(shard_wall_ms(s.doc));
    shard_rows.emplace_back(std::move(row));
  }
  root["shards"] = JsonValue(std::move(shard_rows));

  root["stages"] = merge_stages(shards);
  root["profile"] = merge_profiles(shards);
  {
    JsonValue::Object metrics;
    metrics["counters"] = merge_counters(shards);
    metrics["gauges"] = merge_gauges(shards);
    metrics["histograms"] = merge_histograms(shards, conflicts);
    root["metrics"] = JsonValue(std::move(metrics));
  }
  {
    JsonValue::Object samples_out;
    for (auto& [name, f] : im.series) {
      if (f.cursor != f.total || !f.pending.empty()) {
        // Incomplete fold: the ranges must have a gap, an overlap, or a short
        // total — report it through the same check (and message) as ever.
        require_exact_tiling("sample series '" + name + "'", f.ranges, f.total);
        ARO_ASSERT(false, "sample series fold incomplete despite exact tiling");
      }
      JsonValue::Object obj;
      obj["count"] = JsonValue(static_cast<std::uint64_t>(f.stats.count()));
      obj["mean"] = JsonValue(f.stats.mean());
      obj["stddev"] = JsonValue(f.stats.stddev());
      obj["m2"] = JsonValue(f.stats.m2());
      obj["min"] = JsonValue(f.stats.count() > 0 ? f.stats.min() : 0.0);
      obj["max"] = JsonValue(f.stats.count() > 0 ? f.stats.max() : 0.0);
      JsonValue::Object hobj;
      hobj["lo"] = JsonValue(f.hist_lo);
      hobj["hi"] = JsonValue(f.hist_hi);
      JsonValue::Array bins;
      for (std::size_t b = 0; b < f.hist->bins(); ++b) {
        bins.emplace_back(static_cast<std::uint64_t>(f.hist->count(b)));
      }
      hobj["bins"] = JsonValue(std::move(bins));
      obj["histogram"] = JsonValue(std::move(hobj));
      if (im.policy == RawSeriesPolicy::kKeep) {
        JsonValue::Array values;
        values.reserve(f.kept.size());
        for (const double x : f.kept) values.emplace_back(x);
        obj["values"] = JsonValue(std::move(values));
        f.kept.clear();
        f.kept.shrink_to_fit();
      }
      samples_out[name] = JsonValue(std::move(obj));
    }
    // E3 at the fold: each response set must cover [0, chips) exactly and
    // must not also arrive as tiles (a v1 shard folded beside a v2 one);
    // then every pair is tallied once, as one full-range tile.
    std::vector<TileSet> tile_sets;
    for (const ShardManifest& s : shards) {
      if (const JsonValue* tiles = results_section(s, "tallies")) {
        for (const auto& [name, f] : im.responses) {
          if (tiles->contains(name)) {
            fail(s.path, "tally '" + name + "' arrives both as tiles and as responses");
          }
        }
        tile_sets.emplace_back(s.path, tiles);
      }
    }
    JsonValue::Object response_tallies;
    for (auto& [name, f] : im.responses) {
      std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
      for (const ResponsePiece& p : f.pieces) ranges.emplace_back(p.offset, p.offset + p.chips);
      require_exact_tiling("responses '" + name + "'", std::move(ranges), chips);
      std::sort(f.pieces.begin(), f.pieces.end(),
                [](const ResponsePiece& a, const ResponsePiece& b) { return a.offset < b.offset; });
      std::vector<std::uint64_t> words;
      for (const ResponsePiece& p : f.pieces) {
        words.insert(words.end(), p.words.begin(), p.words.end());
      }
      response_tallies[name] =
          tally_all_pairs(words, static_cast<std::size_t>(chips), f.bits);
    }
    const JsonValue folded(std::move(response_tallies));
    tile_sets.emplace_back("responses", &folded);

    JsonValue::Object results;
    results["samples"] = JsonValue(std::move(samples_out));
    results["tallies"] = merge_tallies(tile_sets);
    root["results"] = JsonValue(std::move(results));
  }
  root["raw_series"] =
      JsonValue(im.policy == RawSeriesPolicy::kKeep ? "kept" : "dropped");
  root["conflicts"] = conflicts_to_json(conflicts);

  AggregateResult result;
  result.manifest = JsonValue(std::move(root));
  result.conflicts = std::move(conflicts);
  return result;
}

AggregateResult aggregate_shards(std::vector<ShardManifest> shards, RawSeriesPolicy policy) {
  if (shards.empty()) throw std::runtime_error("aggregate_shards: no shard manifests given");
  AggregateBuilder builder(policy);
  for (ShardManifest& shard : shards) builder.add(std::move(shard));
  return builder.finalize();
}

bool write_aggregate_manifest(const std::string& path, const JsonValue& manifest) {
  const std::string json = manifest.dump(/*indent=*/2);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    ARO_LOG_ERROR("aggregate", "cannot open aggregate manifest output file",
                  {"path", JsonValue(path)});
    return false;
  }
  out << json << '\n';
  out.flush();
  if (!out) {
    ARO_LOG_ERROR("aggregate", "aggregate manifest write failed", {"path", JsonValue(path)});
    return false;
  }
  ARO_LOG_INFO("aggregate", "aggregate manifest written", {"path", JsonValue(path)});
  return true;
}

}  // namespace aropuf::telemetry
