// Progress heartbeats for sharded runs, and the ETA estimate built on them.
//
// A fleet worker reports milestones of its running shard job; the worker
// loop (net/worker) ships each one to the coordinator as a HEARTBEAT frame,
// whose payload is this schema (DESIGN.md §11):
//   {"ts_unix_ms": ..., "shard": k, "stage": "e2.aro", "done": u,
//    "total": U, "elapsed_ms": ...}
// `done`/`total` count abstract work units (the study defines them); `stage`
// is a short dotted label.  Heartbeats also feed the coordinator's liveness
// timeout, and the orchestrator's HUD turns them into an ETA.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace aropuf::telemetry {

struct Heartbeat {
  std::int64_t ts_unix_ms = 0;  ///< wall-clock stamp of the beat
  int shard = 0;                ///< shard index of the reporting worker
  std::string stage;            ///< current milestone label
  std::int64_t done = 0;        ///< work units completed so far
  std::int64_t total = 0;       ///< work units this shard owns in total
  double elapsed_ms = 0.0;      ///< worker-local elapsed wall time
};

[[nodiscard]] JsonValue heartbeat_to_json(const Heartbeat& beat);
/// Throws std::invalid_argument / std::runtime_error on schema mismatch.
[[nodiscard]] Heartbeat heartbeat_from_json(const JsonValue& line);

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
