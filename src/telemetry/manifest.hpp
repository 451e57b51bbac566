// Run manifests: machine-readable provenance for every scenario run.
//
// A manifest is a JSON document written next to a run's CSV output that pins
// the result to exactly what produced it: config echo, RNG seed, git sha,
// build flags, thread count, kernel backend, wall/CPU time per stage, and a
// final metrics snapshot.  The sharded-run driver on the ROADMAP merges
// shards by reading these instead of parsing logs.
//
// Two inputs feed a manifest besides the caller's config echo:
//  * runtime fields — subsystems self-report facts at the point of use
//    (the thread pool registers "threads", the delay kernel registers
//    "kernel_backend") via set_runtime_field(), keeping this module free of
//    upward dependencies;
//  * stages — StageTimer RAII scopes record wall and CPU time per named
//    stage into a process-wide log (scenario functions wrap their bodies).
//
// Drivers call finalize_run() last: it writes the manifest to the path in
// AROPUF_MANIFEST (when set), flushes the trace session (when active), and
// returns false on any write failure so main() can exit non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/binfmt.hpp"

namespace aropuf::telemetry {

inline constexpr const char* kManifestSchema = "aropuf-run-manifest";
inline constexpr int kManifestSchemaVersion = 1;

/// Registers (or overwrites) a runtime provenance field, e.g.
/// set_runtime_field("threads", JsonValue(8)).  Thread-safe.
void set_runtime_field(const std::string& key, JsonValue value);

/// Appends one completed stage to the process-wide stage log.
void record_stage(const std::string& name, double wall_ms, double cpu_ms);

/// Overload carrying a hardware-counter delta object ({"cycles", "ipc",
/// ...}, from CounterDelta::to_json()); empty objects are omitted from the
/// manifest's stage entries.
void record_stage(const std::string& name, double wall_ms, double cpu_ms,
                  JsonValue::Object counters);

/// Clears stages and runtime fields (tests, and orchestrators that produce
/// several per-shard manifests from one process).  Bumps the run-record
/// generation so once-per-run provenance announcers re-fire.
void reset_run_record();

/// Monotonic generation of the run record: starts at 1, incremented by every
/// reset_run_record().  Modules that register provenance lazily on first use
/// (e.g. the delay kernel's "kernel_backend" field) compare this against the
/// generation they last announced under, so a process that serves many jobs
/// back to back (fleet workers, in-process shard runs) re-registers into each
/// fresh record instead of leaving later manifests at "unknown".
[[nodiscard]] std::uint64_t run_record_generation() noexcept;

/// RAII wall + CPU stage timer; records into the stage log on destruction
/// and opens a trace span of the same name for the duration.
class StageTimer {
 public:
  explicit StageTimer(std::string name);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  struct Impl;
  Impl* impl_;  // raw pimpl: keeps trace.hpp out of this header
};

/// Assembles the manifest document:
///   schema/schema_version/run/created_unix_ms/git_sha/build/config/
///   runtime fields (threads, kernel_backend, ...)/stages/metrics/profile.
/// Absent runtime fields default ("threads": 0, "kernel_backend": "unknown")
/// so the document always validates against scripts/validate_manifest.py.
[[nodiscard]] JsonValue build_manifest(const std::string& run_name, JsonValue config);

/// Serializes build_manifest() to `path` (pretty-printed).  Returns false and
/// logs at error level when the file cannot be written.
bool write_manifest(const std::string& path, const std::string& run_name, JsonValue config);

/// Path requested via AROPUF_MANIFEST, or "" when unset.
[[nodiscard]] std::string manifest_path_from_env();

/// End-of-run hook for drivers: writes the manifest when AROPUF_MANIFEST is
/// set (or to `fallback_path` when non-empty), then flushes the trace
/// session.  Returns false when any requested artifact failed to write.
bool finalize_run(const std::string& run_name, JsonValue config,
                  const std::string& fallback_path = "");

}  // namespace aropuf::telemetry
