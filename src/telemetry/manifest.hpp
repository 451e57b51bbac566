// Run manifests: machine-readable provenance for every scenario run.
//
// A manifest is a JSON document written next to a run's CSV output that pins
// the result to exactly what produced it: config echo, RNG seed, git sha,
// build flags, thread count, kernel backend, wall/CPU time per stage, and a
// final metrics snapshot.  The shard orchestrator (tools/aropuf_shard) merges
// shards by reading these instead of parsing logs.
//
// Three inputs feed a manifest besides the caller's config echo:
//  * process fields — facts that hold for the whole process, reported by
//    subsystems at the point of use via set_process_field(): the thread pool
//    registers "threads" and the delay kernel "kernel_backend".  They
//    survive reset_run_record(), so a process that writes many manifests
//    (in-process shard runs) states them in every one;
//  * runtime fields — facts about one run (e.g. a shard's coordinates and
//    results) via set_runtime_field(); reset_run_record() clears them;
//  * stages — StageTimer RAII scopes record wall and CPU time per named
//    stage into a process-wide log (scenario functions wrap their bodies).
// Both field kinds keep this module free of upward dependencies.
//
// Drivers call finalize_run() last: it writes the manifest to the path in
// AROPUF_MANIFEST (when set), flushes the trace session (when active), and
// returns false on any write failure so main() can exit non-zero.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/binfmt.hpp"

namespace aropuf::telemetry {

inline constexpr const char* kManifestSchema = "aropuf-run-manifest";
inline constexpr int kManifestSchemaVersion = 1;

/// Registers (or overwrites) a process provenance field, e.g.
/// set_process_field("threads", JsonValue(8)).  It survives
/// reset_run_record().  Thread-safe.
void set_process_field(const std::string& key, JsonValue value);

/// Registers (or overwrites) a runtime provenance field of the current run,
/// e.g. set_runtime_field("shard", descriptor).  Thread-safe.
void set_runtime_field(const std::string& key, JsonValue value);

/// Appends one completed stage to the process-wide stage log.
void record_stage(const std::string& name, double wall_ms, double cpu_ms);

/// Overload carrying a hardware-counter delta object ({"cycles", "ipc",
/// ...}, from CounterDelta::to_json()); empty objects are omitted from the
/// manifest's stage entries.
void record_stage(const std::string& name, double wall_ms, double cpu_ms,
                  JsonValue::Object counters);

/// Clears stages and runtime fields (tests, and orchestrators that produce
/// several per-shard manifests from one process).  Process fields stay.
void reset_run_record();

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
///   process fields (threads, kernel_backend)/runtime fields (shard, ...)/
///   stages/metrics/profile.
/// Runtime fields are written after process fields, so a runtime field wins
/// a shared key.  Unreported facts default ("threads": 0, "kernel_backend":
/// "unknown") so the document always validates against
/// scripts/validate_manifest.py.
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
