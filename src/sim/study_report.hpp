// Derived reporting over a merged study aggregate: the study section and the
// --check-single verification tools/aropuf_shard applies.  It lives here
// rather than in the tool so it stays unit-testable.
#pragma once

#include <string>

#include "common/json.hpp"
#include "sim/shard_study.hpp"
#include "telemetry/aggregate.hpp"

namespace aropuf {

/// Builds the derived study section (headline numbers + the ECC/area
/// comparison at each design's p90 provisioning BER) from the merged
/// results.  Purely a function of the merged statistics, so it is identical
/// for every shard decomposition and for either transport (ARPB or JSON).
[[nodiscard]] JsonValue build_study_section(const JsonValue& merged, const ShardStudyConfig& cfg);

/// --check-single: re-runs the full population as one in-process shard and
/// compares the decomposition-invariant sections ("results", "config") of
/// `merged` against it byte for byte.  The single-process aggregate is built
/// under the same RawSeriesPolicy as the merged one so the comparison stays
/// exact (kKeep embeds values on both sides; kDrop omits them on both
/// sides).  Prints progress and any first-divergence context to
/// stdout/stderr; returns true on match.  Resets process-wide telemetry
/// state (run record + metrics) as a side effect.
[[nodiscard]] bool check_merged_against_single(const ShardStudyConfig& cfg,
                                               const std::string& run_name,
                                               const JsonValue& merged,
                                               telemetry::RawSeriesPolicy policy);

}  // namespace aropuf
