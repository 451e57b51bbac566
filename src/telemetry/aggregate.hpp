// Shard-manifest aggregation: N per-process run manifests → one merged run.
//
// The sharded-run orchestrator (tools/aropuf_shard.cpp) splits a chip
// population into seed-range shards, each shard writes an ordinary run
// manifest (telemetry/manifest.hpp) extended with a "shard" descriptor and a
// "results" payload, and this module merges those manifests exactly:
//
//  * counters      — summed (exact: counts are integers);
//  * gauges        — resolved by documented policy ("max" by default, "last"
//                    for names ending ".last") with every shard's reading
//                    retained under "per_shard" — never averaged;
//  * histograms    — RunningStats rebuilt from each shard's serialized
//                    moments (count/mean/m2/min/max round-trip exactly) and
//                    merged with RunningStats::merge in shard-index order;
//                    bin counts summed;
//  * stages        — wall/CPU time rolled up per stage name (sum + max);
//  * results       — the study payload, merged *bit-identically*:
//                    - sample series (per-chip doubles) concatenate in global
//                      chip order and are re-reduced serially, so the merged
//                      RunningStats equals a single-process reduction;
//                    - tallies (integer sufficient statistics over pair
//                      spaces) are summed, which is exact by construction.
//
// Merging is *incremental*: AggregateBuilder::add() folds one shard manifest
// at a time, in any arrival order, and finalize() emits the merged document.
// Sample-series values are re-reduced strictly in global chip order — the
// builder keeps a per-series cursor and buffers only the out-of-order window
// (pieces that arrived ahead of the cursor), so the floating-point operation
// sequence is identical for every arrival order and identical to a
// single-process reduction.  Peak raw-series residency is therefore
// O(largest shard + out-of-order window), not O(population); with
// RawSeriesPolicy::kDropAfterCheck the reduced values are freed immediately
// and the aggregate omits them (marked "raw_series": "dropped").
//
// Merging is deterministic and independent of the order manifests are given
// in.  Provenance mismatches across shards (config echo, git sha, build type,
// kernel backend, schema version, run name) are detected and reported as
// structured AggregateConflicts, embedded in the merged document under
// "conflicts".
//
// The merged document uses its own schema ("aropuf-aggregate-manifest") so
// scripts/validate_manifest.py --aggregate can validate it independently of
// per-shard manifests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace aropuf::telemetry {

inline constexpr const char* kAggregateSchema = "aropuf-aggregate-manifest";
/// v2: adds the top-level "raw_series" marker ("kept" | "dropped") and, under
/// the kKeep policy, the concatenated per-chip values inside each merged
/// sample series.  v1 documents had neither.
inline constexpr int kAggregateSchemaVersion = 2;

/// One loaded shard manifest plus the shard coordinates it self-reports.
struct ShardManifest {
  std::string path;          ///< file it was loaded from ("<memory>" for tests)
  int shard_index = 0;       ///< doc["shard"]["index"]
  int shard_count = 1;       ///< doc["shard"]["count"]
  std::int64_t chip_lo = 0;  ///< first global chip index owned by this shard
  std::int64_t chip_hi = 0;  ///< one past the last owned chip
  JsonValue doc;             ///< the full manifest document
};

/// One decoded sample-series slice with its values out of band.  The binary
/// transport (telemetry/binfmt.hpp) produces these directly; the JSON path
/// builds them by pulling the embedded value arrays out of the document, so
/// the fold downstream of this struct is format-agnostic — and bit-identical
/// across formats, because JSON round-trips doubles exactly.
struct SeriesChunk {
  std::string name;
  std::int64_t offset = 0;
  std::int64_t total = 0;
  double hist_lo = 0.0;
  double hist_hi = 1.0;
  std::int64_t hist_bins = 0;
  std::vector<double> values;
};

/// A shard manifest plus its sample values decoded out of band: the manifest
/// doc's samples entries carry headers only.
struct DecodedShard {
  ShardManifest manifest;
  std::vector<SeriesChunk> chunks;
};

/// Loads a shard manifest in either transport format, sniffing the binfmt
/// magic: binary containers decode without materializing value arrays as
/// JSON; JSON documents have their embedded values extracted.  Throws
/// std::runtime_error (or the more specific BinfmtError) with a
/// path-prefixed message on any defect.
[[nodiscard]] DecodedShard load_shard_input(const std::string& path);

/// Same decode for container bytes already in memory — the orchestrator's
/// path for a shard it just ran, which folds without re-reading the file it
/// wrote.  `origin` labels error messages and the manifest provenance
/// ("in-process", "<memory>", ...).  Both load_shard_input and this function
/// funnel into one decoder, so a shard folded from memory and a --resume
/// re-read of the same bytes produce identical DecodedShards.
[[nodiscard]] DecodedShard decode_shard_input(std::string bytes, const std::string& origin);

/// Wraps an in-memory manifest document (tests, the --check-single run).
/// Performs the same structural validation as load_shard_input.
[[nodiscard]] ShardManifest wrap_shard_manifest(JsonValue doc,
                                                const std::string& path = "<memory>");

/// Non-throwing validity probe used by the orchestrator's --resume mode: true
/// when `path` holds a well-formed shard manifest (either transport format)
/// for shard `expect_index` of `expect_count` with a matching run name and a
/// "config" echo equal to `expect_config` — a shard of another study (other
/// seed, population, or checkpoints) in the same directory must re-run, not
/// fold.  On failure, `*why` (when given) receives a one-line reason.
[[nodiscard]] bool shard_manifest_is_valid(const std::string& path, const std::string& expect_run,
                                           int expect_index, int expect_count,
                                           const JsonValue& expect_config,
                                           std::string* why = nullptr);

/// One provenance mismatch across shards: which field disagreed and each
/// shard's serialized value.
struct AggregateConflict {
  std::string field;                   ///< e.g. "git_sha", "config", "kernel_backend"
  std::map<int, std::string> values;   ///< shard index -> value (compact JSON)
};

struct AggregateResult {
  JsonValue manifest;                       ///< the merged aggregate document
  std::vector<AggregateConflict> conflicts; ///< also embedded under "conflicts"
};

/// Gauge resolution policy for a metric name (see Gauge docs in metrics.hpp).
enum class GaugePolicy { kMax, kLast };
[[nodiscard]] GaugePolicy gauge_merge_policy(const std::string& name);

/// What happens to raw per-chip sample values after the fold has reduced
/// them into RunningStats/Histogram form.
enum class RawSeriesPolicy {
  kKeep,            ///< concatenated values are embedded in the aggregate ("raw_series": "kept")
  kDropAfterCheck,  ///< values are freed once reduced; the aggregate omits them ("raw_series": "dropped")
};

/// Incremental shard-manifest fold.  add() accepts shards in any arrival
/// order; finalize() emits the aggregate.  The result is bit-identical to
/// aggregate_shards() on the same set for every arrival order.
///
/// add() is transactional: it fully validates the incoming shard (structure,
/// schema, duplicate index, shard-count and series-shape agreement with the
/// shards already folded) before mutating any state, and throws
/// std::runtime_error prefixed with the offending shard's path on failure —
/// prior folds stay intact, so an orchestrator can retry or replace the bad
/// shard and keep going.  Cross-shard completeness (chip ranges tiling
/// [0, chips), all declared shards present) can only be judged once the set
/// is closed and is checked by finalize().
class AggregateBuilder {
 public:
  explicit AggregateBuilder(RawSeriesPolicy policy = RawSeriesPolicy::kKeep);
  ~AggregateBuilder();
  AggregateBuilder(AggregateBuilder&&) noexcept;
  AggregateBuilder& operator=(AggregateBuilder&&) noexcept;

  /// Folds one shard.  Raw sample values at the per-series cursor are reduced
  /// immediately (and freed under kDropAfterCheck); values that arrived ahead
  /// of the cursor wait in the out-of-order window until the gap fills.
  void add(ShardManifest&& shard);

  /// Same fold for a shard whose sample values arrived out of band (the
  /// binary transport path): no JSON value arrays exist at any point.
  void add(DecodedShard&& shard);

  /// Closes the set, verifies completeness, and emits the aggregate document.
  /// Throws std::runtime_error on an empty/incomplete set; std::logic_error
  /// if called twice.
  [[nodiscard]] AggregateResult finalize();

  [[nodiscard]] RawSeriesPolicy policy() const;
  [[nodiscard]] int shards_added() const;
  /// Declared shard count, from the first shard added (0 before that).
  [[nodiscard]] int expected_shards() const;
  /// Raw sample values currently parked in the out-of-order window.
  [[nodiscard]] std::size_t buffered_values() const;
  /// High-water mark of the window — the bounded-memory claim, measurable.
  [[nodiscard]] std::size_t peak_buffered_values() const;
  /// Raw sample values reduced into statistics so far.
  [[nodiscard]] std::size_t reduced_values() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Merges shard manifests into one aggregate document — a thin wrapper that
/// feeds every shard through an AggregateBuilder.  Throws std::runtime_error
/// when the set is structurally unmergeable: empty input, duplicate shard
/// indices, disagreeing shard counts, or chip ranges that do not exactly tile
/// [0, chips).  Provenance disagreements are NOT exceptions: they come back
/// as conflicts (callers decide whether to fail the run).
[[nodiscard]] AggregateResult aggregate_shards(std::vector<ShardManifest> shards,
                                               RawSeriesPolicy policy = RawSeriesPolicy::kKeep);

/// Serializes the merged document to `path` (pretty-printed).  Returns false
/// and logs at error level when the file cannot be written.
bool write_aggregate_manifest(const std::string& path, const JsonValue& manifest);

}  // namespace aropuf::telemetry
