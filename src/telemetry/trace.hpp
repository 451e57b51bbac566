// Span-based tracing that serializes to Chrome trace_event JSON.
//
// A trace session buffers "complete" events (ph = "X": name, start, duration,
// thread id) and writes them as {"traceEvents": [...]} on flush — the format
// chrome://tracing and https://ui.perfetto.dev load directly, which turns a
// 10k-chip aging series into a per-thread flame chart.
//
// Sessions start either from the environment (AROPUF_TRACE=out.json, written
// automatically at process exit) or programmatically with start_trace().
// When no session is active a TraceScope costs one relaxed atomic load; when
// active, ending a span appends to a mutex-guarded buffer — spans here are
// coarse (experiment stages, parallel_for chunks), never per-RO.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/json.hpp"

namespace aropuf::telemetry {

/// One relaxed atomic load; instrumentation guards on this before building
/// span names or args.
[[nodiscard]] bool trace_enabled() noexcept;

/// Starts buffering spans; they are written to `path` by flush_trace() (or at
/// process exit).  Restarting an active session discards buffered spans.
void start_trace(const std::string& path);

/// Starts a buffer-only session: spans are collected for
/// drain_trace_events() but never written to a file — a caller that reads
/// its own spans (e.g. a benchmark summing the engine's busy time) drains
/// them instead.  flush_trace() on a buffer-only session just ends it
/// (nothing is written).
void start_trace_buffered();

/// Writes the buffered spans as Chrome trace JSON and ends the session.
/// Returns false (and logs at error level) when the file cannot be written.
/// No-op returning true when no session is active or the session is
/// buffer-only (started with start_trace_buffered()).
bool flush_trace();

/// Number of spans currently buffered (tests and sanity checks).
[[nodiscard]] std::size_t trace_event_count() noexcept;

/// Moves the buffered spans out as Chrome event objects: name/cat/ph/ts/dur
/// (µs on this process's steady-clock base)/tid (+ args).  No pid: the
/// events never leave this process.  The session stays active; returns an
/// empty array when no session is active.
[[nodiscard]] JsonValue::Array drain_trace_events();

/// Wall-clock milliseconds at this process's steady-clock zero — the anchor
/// that rebases trace timestamps onto wall time (event unix µs =
/// trace_epoch_unix_ms()*1000 + ts), e.g. for the resource sampler's
/// timeline.
[[nodiscard]] double trace_epoch_unix_ms();

/// Stable small integer identifying the calling thread in trace output
/// (assigned on first use; the main thread is usually 0).
[[nodiscard]] int trace_thread_id() noexcept;

/// Microseconds on the steady clock since process start — the trace time
/// base, also used by the engine's queue-wait instrumentation.
[[nodiscard]] std::uint64_t steady_now_us() noexcept;

using TraceArg = std::pair<std::string_view, JsonValue>;
using TraceCounterValue = std::pair<std::string_view, double>;

/// Appends a Chrome counter ("C"-phase) event at the current timestamp;
/// each (series, value) pair renders as a stacked counter track in
/// chrome://tracing / Perfetto.  The ResourceSampler emits RSS/CPU/thread
/// timelines through this.  No-op when tracing is disabled.
void trace_counter(std::string_view name, std::initializer_list<TraceCounterValue> values);

/// Appends a complete ("X") span covering [start_us, now] whose args are
/// only known at end of scope — profiling scopes attach counter deltas
/// this way (TraceScope copies args at construction, too early for them).
/// No-op when tracing is disabled.
void trace_complete(std::string_view name, std::string_view category, std::uint64_t start_us,
                    JsonValue::Object args);

/// RAII span: records a complete event covering construction → destruction.
/// Construction is a no-op (no string copies) when tracing is disabled.
class TraceScope {
 public:
  explicit TraceScope(std::string_view name, std::string_view category = "aropuf");
  TraceScope(std::string_view name, std::string_view category,
             std::initializer_list<TraceArg> args);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_ = false;
  std::uint64_t start_us_ = 0;
  std::string name_;
  std::string category_;
  JsonValue::Object args_;
};

}  // namespace aropuf::telemetry
