// Layer spans for the traced benchmark run.
//
// Spans are placed by the benchmark around public library calls; the library
// itself is not modified.  Each span is timed on the steady clock and folded
// into per-thread totals (count, total time, self time = total minus the time
// of child spans on the same thread).  The first `event_budget` spans are also
// written to the library's own trace channel (telemetry::trace_complete, the
// Chrome trace that TraceScope feeds), each carrying its id, the id of the
// span that caused it and, for authentication requests, the request id.
//
// Two span kinds:
//   * Span   — work on the calling thread; nests through a thread-local stack.
//              A span opened inside a parallel task names the region (or task)
//              that caused it explicitly, since that parent lives on another
//              thread.
//   * Region — the wall time of one parallel_for on the calling thread.  It
//              is kept off the stack so that the calling thread's own task
//              spans (the caller participates in the pool) are not subtracted
//              from it.
//
// With tracing disabled (the untraced run) both cost one relaxed atomic load.
// Totals are read and reset only while no traced work runs (after the
// parallel_for or the client threads that produced them have finished).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

/// Turns span collection on or off and resets every total.  `event_budget`
/// caps how many spans are also emitted to the telemetry trace session.
void enable(bool on, std::size_t event_budget = 20000);

[[nodiscard]] bool enabled() noexcept;

/// Nanoseconds on the steady clock.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Totals of one span name, summed over threads.
struct Totals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  /// Self time of spans opened inside parallel tasks (thread-seconds).
  double self_task_s = 0.0;
  /// Self time of spans on the orchestrating thread outside parallel tasks.
  double self_serial_s = 0.0;
};

/// Span and region totals since the last enable() or reset().
struct Snapshot {
  std::map<std::string, Totals> spans;
  std::map<std::string, Totals> regions;

  /// Totals of `name` (all zero when it never ran).
  [[nodiscard]] Totals span(const std::string& name) const;
  /// Summed wall time of every region.
  [[nodiscard]] double region_wall_s() const;
};

[[nodiscard]] Snapshot snapshot();

/// Zeroes every total (the event budget is not restored).
void reset();

class Span {
 public:
  /// `parent` = 0 takes the parent from the calling thread's span stack;
  /// non-zero names a parent on another thread (a region) and marks the
  /// span as running inside a parallel task.  `request` groups the spans of
  /// one authentication request; children inherit it.
  explicit Span(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when tracing is disabled).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  friend class Region;

  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  bool in_task_ = false;
  Span* outer_ = nullptr;
};

class Region {
 public:
  explicit Region(const char* name) noexcept;
  ~Region();

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Parent id for the task spans of this region (0 when disabled).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace perfbench::trace
