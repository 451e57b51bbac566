// Sharded E2+E3 population study: the workload behind tools/aropuf_shard.
//
// A statistical study over a large chip population (Wilde-style RO-PUF
// security analysis at 10k chips) splits into S chip-range shards.  This
// module defines what one shard computes and — critically — how the
// per-shard payloads recombine without losing bit-identity with a
// single-process run:
//
//  * Per-chip quantities (E2 flip percentages per aging checkpoint, E3
//    uniformity) ship as SampleSeries: the raw per-chip doubles, tagged with
//    the shard's global chip offset.  The aggregator concatenates them in
//    chip order and re-reduces serially — the identical floating-point
//    accumulation a single process performs.  JSON round-trips doubles
//    exactly (%.17g), so no precision is lost in transit.
//
//  * E3's inter-chip Hamming distance runs over all N(N-1)/2 pairs, and a
//    pair's two chips may live in different shards.  So each shard ships its
//    own chips' golden (eval 0) responses as a ResponseSet, and the
//    aggregator tallies every pair once, after the fold (AggregateBuilder::
//    finalize): exact integer sufficient statistics (count, sum of bit-HDs,
//    sum of squares, min, max, integer histogram bins), the same for every
//    shard decomposition.
//
// Chips are identified by their global index: chip i is always the die drawn
// from RngFabric(seed).child("chip", i), so shard boundaries never change
// which silicon is simulated (the same guarantee make_population gives).
// Both designs are the same silicon read through another pairing and stress
// profile, so a shard runs one pool pass over its own chips [lo, hi): one
// task per die builds it once, reads it fresh as both designs, and ages each
// design's copy through every checkpoint.  No shard builds another shard's
// dies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"  // shard_range
#include "sim/scenarios.hpp"
#include "telemetry/binfmt.hpp"

namespace aropuf {

/// v2: shards ship their own chips' golden responses (results.responses)
/// and the fold tallies E3's pairs; v1 shards shipped tallies over a range
/// of the pair space.  The config echo carries it, so --resume re-runs a v1
/// shard instead of folding it.
inline constexpr int kShardStudySchemaVersion = 2;

/// Configuration of the whole study (identical across shards; echoed into
/// every shard manifest so the aggregator can detect mismatches).
struct ShardStudyConfig {
  PopulationConfig pop;                              ///< chips = TOTAL population
  std::vector<double> checkpoints = {1.0, 2.0, 5.0, 10.0};  ///< aging years (E2), increasing
};

/// Per-chip doubles for chips [offset, offset + values.size()) of `total`.
struct SampleSeries {
  std::string name;
  std::size_t offset = 0;
  std::size_t total = 0;
  double hist_lo = 0.0;
  double hist_hi = 1.0;
  std::size_t hist_bins = 50;
  std::vector<double> values;
};

/// Golden (eval 0) responses of chips [offset, offset + responses.size()),
/// named after the pair tally the aggregator computes from the merged set.
struct ResponseSet {
  std::string name;
  std::size_t offset = 0;
  std::vector<BitVector> responses;
};

/// Exact integer tally over pair-space indices [offset, offset + count).
/// Raw values are integers in [0, denom] (bit Hamming distances); derived
/// statistics divide by `denom` to land in fractional-HD units.  A shard of
/// this study ships responses, not tallies; the aggregator still sums tiles
/// a caller tallied itself, which perfbench's traced rebuild of the study
/// does.
struct PairTally {
  std::string name;
  std::size_t offset = 0;
  std::size_t total = 0;  ///< size of the full pair space
  std::uint64_t denom = 1;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> bins;  ///< histogram over value/denom in [0, 1]
};

struct ShardStudyResult {
  std::size_t chip_lo = 0;
  std::size_t chip_hi = 0;
  std::vector<SampleSeries> samples;
  std::vector<ResponseSet> responses;
  std::vector<PairTally> tallies;  ///< empty from run_shard_study
};

/// The part of an E2 series name that spells checkpoint `year`:
/// "e2.<design>.flip_percent." + this.  It is "y" and the shortest spelling
/// that reads back as `year` (y1, y2.5, y1.0000001), so distinct checkpoints
/// always name distinct series.  Whatever looks a series up by its year
/// spells it through this function.
[[nodiscard]] std::string checkpoint_series_suffix(double year);

/// Runs shard `index` of `count` shards: both designs' E2 aging series, E3
/// uniformity and golden responses over the shard's chip range.  Results are
/// bit-identical for any (count, threads) decomposition once aggregated.
/// Throws std::invalid_argument unless the checkpoints are non-negative and
/// strictly increasing; each names its series through
/// checkpoint_series_suffix.
[[nodiscard]] ShardStudyResult run_shard_study(const ShardStudyConfig& cfg, std::size_t index,
                                               std::size_t count);

/// The study payload embedded in a shard manifest under "results".  With
/// `include_values` false (the binary transport), sample series carry their
/// headers only — the values travel out of band as packed doubles (see
/// study_series_binary), which is what makes million-chip manifests cheap to
/// parse.  Responses ride in the document under both transports, as
/// {"offset": chip_lo, "values": ["0110...", ...]}, one '0'/'1' string per
/// chip.
[[nodiscard]] JsonValue study_results_to_json(const ShardStudyResult& result,
                                              bool include_values = true);

/// The out-of-band value payload for the binary transport: one BinarySeries
/// per sample series, values moved (not copied) out of `result`.
[[nodiscard]] std::vector<telemetry::BinarySeries> study_series_binary(ShardStudyResult&& result);

/// Config echo for shard manifests: identical across shards by construction,
/// so any difference the aggregator sees is a real provenance conflict.
[[nodiscard]] JsonValue study_config_json(const ShardStudyConfig& cfg);

/// The "shard" descriptor embedded in every shard manifest: coordinates plus
/// the global chip range this shard owns.
[[nodiscard]] JsonValue study_shard_descriptor(const ShardStudyConfig& cfg, int index, int count);

/// Runs shard `index` end to end and serializes its manifest to bytes —
/// ARPB container bytes when `binary`, the pretty-printed JSON document
/// otherwise.  These are the exact bytes tools/aropuf_shard puts on disk and
/// folds, the same bytes --resume later reads back, which is what lets a
/// resumed run merge bit-identically to a single-process run.  Resets
/// process-wide telemetry state first (run record + metrics), so each call
/// produces an honest per-shard manifest even when one process runs many
/// shards back to back.  Throws on study failure.
[[nodiscard]] std::string run_shard_job(const ShardStudyConfig& cfg, int index, int count,
                                        const std::string& run_name, bool binary);

}  // namespace aropuf
