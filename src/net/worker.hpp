// Fleet worker: connects to a coordinator, runs assigned shard jobs, and
// frames the resulting shard-manifest containers back.
//
// The transport loop lives here; the *work* is injected as a JobRunner
// callback so this module never depends on the simulation layers —
// tools/aropuf_shard.cpp wires in sim/shard_study's in-process job runner,
// and the loopback tests wire in stubs.  Heartbeats ride the same connection:
// the runner's progress hook is forwarded as HEARTBEAT frames, which is what
// feeds the coordinator's liveness timeout while a long shard computes.
//
// State machine (DESIGN.md §11.4): connect → send HELLO → loop { wait frame;
// JOB → run + RESULT; BYE → exit 0 }.  A job that throws is reported as an
// ERROR frame (code "job-failed") and the worker stays available — the
// coordinator owns the retry decision.  A lost connection ends the worker
// with a nonzero status; restarting it is the operator's (or supervisor's)
// choice, the coordinator has already reassigned the job either way.
//
// Observability (DESIGN.md §11.8): the worker ships METRICS frames — a
// metrics-registry snapshot plus drained trace spans — right after HELLO,
// after every finished job, and at most every metrics_interval_s while a job
// runs.  When no trace session is active the worker starts a buffer-only one
// so its spans exist to ship; with AROPUF_TRACE set, shipped spans are
// drained out of the local file (the merged fleet timeline is the artifact).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/frame.hpp"

namespace aropuf::net {

/// Connection parameters for one worker process.
struct WorkerConfig {
  std::string host;              ///< coordinator host
  std::uint16_t port = 0;        ///< coordinator port
  double connect_timeout_s = 10; ///< bound on the initial TCP connect
  std::string name;              ///< HELLO display name ("" = host:pid)
  int threads = 0;               ///< echoed in HELLO (informational)
  /// Minimum seconds between periodic METRICS snapshots while a job runs
  /// (snapshots after HELLO and after every finished job are unconditional).
  double metrics_interval_s = 2.0;
  /// Test hook: abort the connection (no RESULT, no ERROR, hard close) on
  /// the worker's first assigned job — simulates a worker killed mid-job so
  /// e2e tests can drive the coordinator's reassignment path
  /// deterministically.  Never set outside tests.
  bool abort_first_job = false;
};

/// Runs one job: returns the serialized shard-manifest container (ARPB bytes
/// for format "binary", JSON text for "json").  The progress hook's
/// (stage, done, total) triples become HEARTBEAT frames.  Throwing reports
/// the job as failed.
using JobRunner = std::function<std::string(
    const JobMsg& job,
    const std::function<void(const std::string& stage, std::int64_t done, std::int64_t total)>&
        progress)>;

/// Exit statuses of run_worker (also the aropuf_shard worker-mode exit code).
enum class WorkerExit {
  kBye = 0,        ///< coordinator sent BYE: clean shutdown
  kLost = 1,       ///< connection failed or was cut
  kProtocol = 2,   ///< coordinator violated the protocol (incl. version mismatch)
  kAborted = 3,    ///< abort_first_job test hook fired
};

/// Blocks until the coordinator dismisses this worker (BYE) or the
/// connection dies.  Connection-level failures are returned, not thrown.
[[nodiscard]] WorkerExit run_worker(const WorkerConfig& config, const JobRunner& runner);

}  // namespace aropuf::net
