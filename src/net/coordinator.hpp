// Fleet coordinator: dispatches seed-range shard jobs to TCP workers and
// collects their shard-manifest containers.
//
// One single-threaded poll() loop owns the listener plus every worker
// connection; all protocol state lives in this module, all policy about what
// the bytes *mean* stays with the caller:
//
//  * jobs are the shard indices the caller lists (a JobMsg template with the
//    shard index filled per dispatch) — all of them for a fresh study, only
//    the missing ones for a resumed one;
//  * a returned RESULT is handed to callbacks.on_result as raw container
//    bytes — tools/aropuf_shard.cpp persists them and streams them into
//    AggregateBuilder via the format-agnostic decode path, so fold semantics
//    are identical to the in-process path;
//  * a worker that disconnects, times out (no frame within
//    heartbeat_timeout_s), or reports an ERROR while owning a job sends that
//    job back through the retry budget (attempts ≤ retries+1).  A throwing
//    on_result counts as a failed attempt too: a manifest that will not fold
//    is as fatal as a worker that never answered.
//
// The worker and coordinator state machines, frame ordering rules, and error
// codes are specified normatively in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "telemetry/progress.hpp"

namespace aropuf::net {

/// Run parameters for one coordinator instance.
struct CoordinatorConfig {
  /// Shard indices to run, in dispatch order: distinct, each in
  /// [0, job_template.shards).
  std::vector<int> jobs;
  int retries = 1;                  ///< extra attempts per failed job
  /// Drop a busy worker silent this long, and report a run with no worker
  /// attached this long (0 = never).
  double heartbeat_timeout_s = 60;
  double total_timeout_s = 0;       ///< abort the whole run (0 = never)
  /// Study parameters; shard/attempt/parent_span are filled per dispatch
  /// (trace_id, when set, rides every JOB unchanged — see DESIGN.md §11.8).
  JobMsg job_template;
};

/// Event hooks.  All callbacks fire on the coordinator's own thread.
struct CoordinatorCallbacks {
  /// A completed shard's manifest container bytes (ARPB or JSON text).
  /// Throwing fails this attempt and routes the job through the retry budget.
  std::function<void(int shard, std::string bytes, const std::string& worker)> on_result;
  /// A worker's progress heartbeat (a HEARTBEAT frame's payload).
  std::function<void(const telemetry::Heartbeat& beat, const std::string& worker)> on_heartbeat;
  /// A worker's METRICS snapshot (registry state + drained trace spans).
  /// `clock_offset_ms` is the coordinator's current skew estimate for this
  /// worker (coordinator clock − worker clock, minimum over the arrival
  /// samples from HELLO/HEARTBEAT/METRICS timestamps — DESIGN.md §11.8).
  std::function<void(const MetricsMsg& msg, const std::string& worker, double clock_offset_ms)>
      on_metrics;
  /// Lifecycle narration for logs/HUD: event ∈ {"connect", "dispatch",
  /// "retry", "disconnect", "timeout", "fail", "bye"}.  "disconnect" carries
  /// "<worker>: <reason>" and also follows every worker "timeout"; a
  /// "timeout" with shard -1 means no worker has been attached for
  /// heartbeat_timeout_s.  Throwing aborts run() with the exception.
  std::function<void(const std::string& event, int shard, const std::string& detail)> on_event;
};

/// Terminal accounting for one coordinator run.
struct FleetSummary {
  bool ok = false;        ///< every job completed within its retry budget
  bool timed_out = false; ///< total_timeout_s elapsed with jobs outstanding
  int jobs_done = 0;      ///< jobs whose RESULT was accepted by on_result
  int jobs_failed = 0;    ///< jobs that exhausted their retry budget
  int workers_seen = 0;    ///< connections that completed the HELLO handshake
  int reassignments = 0;   ///< dispatches beyond each job's first attempt
};

/// Runs the coordinator loop over a listener the caller bound (so the caller
/// picks the interface and learns the ephemeral port before any worker
/// exists), serves in run() until every job lands or fails terminally, then
/// sends BYE to the fleet.
class Coordinator {
 public:
  /// Takes ownership of the bound `listener`; throws std::runtime_error when
  /// the job list is empty, repeats a shard, or names one out of range.
  Coordinator(Listener listener, CoordinatorConfig config, CoordinatorCallbacks callbacks);
  /// Closes the listener and every worker connection still open.
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound listen port (resolves a port-0 request).
  [[nodiscard]] std::uint16_t port() const;

  /// Blocks until the run completes.  Throws std::runtime_error only on
  /// unrecoverable transport faults (listener death); per-worker faults are
  /// absorbed into the retry budget and the summary.
  [[nodiscard]] FleetSummary run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aropuf::net
