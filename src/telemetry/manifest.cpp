#include "telemetry/manifest.hpp"

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <mutex>
#include <vector>

#include "common/cli.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof.hpp"
#include "telemetry/trace.hpp"

// Baked in by src/telemetry/CMakeLists.txt from `git rev-parse`; "unknown"
// outside a git checkout (e.g. release tarballs).
#ifndef AROPUF_GIT_SHA
#define AROPUF_GIT_SHA "unknown"
#endif
#ifndef AROPUF_BUILD_TYPE
#define AROPUF_BUILD_TYPE "unknown"
#endif

namespace aropuf::telemetry {

namespace {

struct StageRecord {
  std::string name;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// Hardware-counter delta ({"cycles", "ipc", ...}); empty unless the
  /// profiling layer had live counters during the stage.
  JsonValue::Object counters;
};

struct RunRecord {
  std::mutex mutex;
  std::vector<StageRecord> stages;
  JsonValue::Object process_fields;
  JsonValue::Object runtime_fields;
};

RunRecord& run_record() {
  static RunRecord r;
  return r;
}

bool simd_compiled_in() noexcept {
#if defined(AROPUF_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

}  // namespace

void set_process_field(const std::string& key, JsonValue value) {
  RunRecord& r = run_record();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.process_fields[key] = std::move(value);
}

void set_runtime_field(const std::string& key, JsonValue value) {
  RunRecord& r = run_record();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.runtime_fields[key] = std::move(value);
}

void record_stage(const std::string& name, double wall_ms, double cpu_ms) {
  record_stage(name, wall_ms, cpu_ms, JsonValue::Object{});
}

void record_stage(const std::string& name, double wall_ms, double cpu_ms,
                  JsonValue::Object counters) {
  RunRecord& r = run_record();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.stages.push_back(StageRecord{name, wall_ms, cpu_ms, std::move(counters)});
}

void reset_run_record() {
  {
    RunRecord& r = run_record();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.stages.clear();
    r.runtime_fields.clear();
  }
  restart_process_counters();
}

struct StageTimer::Impl {
  std::string name;
  std::chrono::steady_clock::time_point wall_start;
  std::clock_t cpu_start;
  std::uint64_t trace_start_us;
  CounterReader counters;

  explicit Impl(std::string n)
      : name(std::move(n)),
        wall_start(std::chrono::steady_clock::now()),
        cpu_start(std::clock()),
        trace_start_us(steady_now_us()) {}
};

StageTimer::StageTimer(std::string name) : impl_(new Impl(std::move(name))) {}

StageTimer::~StageTimer() {
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - impl_->wall_start)
                             .count();
  // clock() is process CPU time: for a parallel stage cpu_ms ≈ threads ×
  // wall_ms, which is exactly the utilization signal we want per stage.
  const double cpu_ms = static_cast<double>(std::clock() - impl_->cpu_start) * 1000.0 /
                        static_cast<double>(CLOCKS_PER_SEC);
  // Counter deltas ride along wherever the profiling layer has live
  // counters: into the stage log, the metrics registry, and the stage's
  // trace span args.
  const CounterDelta delta = impl_->counters.sample();
  JsonValue::Object counters;
  if (delta.counters_valid) counters = delta.to_json();
  // In fallback mode the delta still carries wall/rusage time, so profiled
  // runs on counter-less machines keep their "prof.*" wall metrics.
  if (prof_status().mode != ProfMode::kOff) record_counter_metrics(delta);
  if (trace_enabled()) {
    trace_complete(impl_->name, "stage", impl_->trace_start_us,
                   delta.counters_valid ? delta.to_json() : JsonValue::Object{});
  }
  record_stage(impl_->name, wall_ms, cpu_ms, std::move(counters));
  delete impl_;
}

JsonValue build_manifest(const std::string& run_name, JsonValue config) {
  JsonValue::Object root;
  root["schema"] = JsonValue(kManifestSchema);
  root["schema_version"] = JsonValue(kManifestSchemaVersion);
  root["run"] = JsonValue(run_name);
  root["created_unix_ms"] = JsonValue(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  root["git_sha"] = JsonValue(AROPUF_GIT_SHA);
  {
    JsonValue::Object build;
    build["type"] = JsonValue(AROPUF_BUILD_TYPE);
    build["simd_compiled"] = JsonValue(simd_compiled_in());
    root["build"] = JsonValue(std::move(build));
  }
  root["config"] = config.is_object() ? std::move(config) : JsonValue(JsonValue::Object{});

  // Fields reported by subsystems at their point of use; defaults keep the
  // schema total even when a subsystem never ran.
  root["threads"] = JsonValue(0);
  root["kernel_backend"] = JsonValue("unknown");
  {
    RunRecord& r = run_record();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& [key, value] : r.process_fields) root[key] = value;
    for (const auto& [key, value] : r.runtime_fields) root[key] = value;
    JsonValue::Array stages;
    stages.reserve(r.stages.size());
    for (const StageRecord& s : r.stages) {
      JsonValue::Object stage;
      stage["name"] = JsonValue(s.name);
      stage["wall_ms"] = JsonValue(s.wall_ms);
      stage["cpu_ms"] = JsonValue(s.cpu_ms);
      if (!s.counters.empty()) stage["counters"] = JsonValue(s.counters);
      stages.emplace_back(std::move(stage));
    }
    root["stages"] = JsonValue(std::move(stages));
  }
  root["metrics"] = MetricsRegistry::global().snapshot_json();
  root["profile"] = profile_manifest_section();
  return JsonValue(std::move(root));
}

bool write_manifest(const std::string& path, const std::string& run_name, JsonValue config) {
  const std::string json = build_manifest(run_name, std::move(config)).dump(/*indent=*/2);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    ARO_LOG_ERROR("manifest", "cannot open manifest output file", {"path", JsonValue(path)});
    return false;
  }
  out << json << '\n';
  out.flush();
  if (!out) {
    ARO_LOG_ERROR("manifest", "manifest write failed", {"path", JsonValue(path)});
    return false;
  }
  ARO_LOG_INFO("manifest", "manifest written", {"path", JsonValue(path)},
               {"run", JsonValue(run_name)});
  return true;
}

std::string manifest_path_from_env() {
  const char* env = cli::env_value("AROPUF_MANIFEST");
  return env != nullptr ? std::string(env) : std::string();
}

bool finalize_run(const std::string& run_name, JsonValue config,
                  const std::string& fallback_path) {
  bool ok = true;
  std::string path = manifest_path_from_env();
  if (path.empty()) path = fallback_path;
  if (!path.empty() && !write_manifest(path, run_name, std::move(config))) ok = false;
  if (!flush_trace()) ok = false;
  return ok;
}

}  // namespace aropuf::telemetry
