// The ETA estimate behind aropuf_shard's progress line.
#pragma once

namespace aropuf::telemetry {

/// Wall-clock ETA over abstract work units, robust to resumed runs.  Work
/// that was already complete when tracking began (resumed/skipped shards) is
/// pinned as a baseline and excluded from the observed rate, so the estimate
/// reflects only work actually performed this run.  Without the baseline a
/// resumed run credits the skipped shards' units to the current elapsed
/// time, which inflates the apparent rate and prints a stale (far too
/// optimistic) ETA.
class EtaEstimator {
 public:
  /// Registers `units` of work that were already complete before tracking
  /// began.  Additive: call once per resumed shard or once with the sum.
  void add_baseline(double units) noexcept { baseline_ += units; }

  /// Seconds remaining to reach `total` units given `done` units complete
  /// overall (baseline included) after `elapsed_s` seconds of this run.
  /// Returns a negative value while no meaningful estimate exists (<1% of
  /// the remaining work performed this run, or degenerate inputs).
  [[nodiscard]] double eta_seconds(double done, double total, double elapsed_s) const noexcept;

 private:
  double baseline_ = 0.0;
};

}  // namespace aropuf::telemetry
