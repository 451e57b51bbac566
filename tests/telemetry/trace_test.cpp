#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace aropuf::telemetry {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceTest, DisabledSessionIsFreeAndFlushIsNoop) {
  ASSERT_TRUE(flush_trace());  // end any leftover session first
  EXPECT_FALSE(trace_enabled());
  {
    const TraceScope span("ignored", "test");
  }
  EXPECT_EQ(trace_event_count(), 0U);
  EXPECT_TRUE(flush_trace());
}

TEST(TraceTest, SpansSerializeToValidChromeTraceJson) {
  const std::string path = ::testing::TempDir() + "aropuf_trace_test.json";
  start_trace(path);
  ASSERT_TRUE(trace_enabled());
  {
    const TraceScope outer("outer", "test", {{"chips", JsonValue(40)}});
    const TraceScope inner("inner", "test");
  }
  EXPECT_EQ(trace_event_count(), 2U);
  ASSERT_TRUE(flush_trace());
  EXPECT_FALSE(trace_enabled());

  const JsonValue doc = JsonValue::parse(read_file(path));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.as_object().at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.as_object().at("traceEvents").as_array();
  // process_name + thread_name metadata (both spans share one thread) + the
  // two spans.
  ASSERT_EQ(events.size(), 4U);
  bool saw_outer = false;
  for (const JsonValue& event : events) {
    const auto& e = event.as_object();
    // The validator (scripts/validate_manifest.py --trace) requires these on
    // every event, metadata included.
    EXPECT_TRUE(e.contains("ph"));
    EXPECT_TRUE(e.contains("ts"));
    EXPECT_TRUE(e.contains("tid"));
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("name"));
    if (e.at("name").as_string() == "outer") {
      saw_outer = true;
      EXPECT_EQ(e.at("ph").as_string(), "X");
      EXPECT_EQ(e.at("cat").as_string(), "test");
      EXPECT_TRUE(e.contains("dur"));
      EXPECT_EQ(e.at("args").as_object().at("chips").as_number(), 40.0);
    }
  }
  EXPECT_TRUE(saw_outer);
  std::remove(path.c_str());
}

TEST(TraceTest, SpansRecordTheirThreadIds) {
  const std::string path = ::testing::TempDir() + "aropuf_trace_threads.json";
  start_trace(path);
  {
    const TraceScope main_span("on-main", "test");
  }
  std::thread worker([] { const TraceScope span("on-worker", "test"); });
  worker.join();
  ASSERT_TRUE(flush_trace());

  const JsonValue doc = JsonValue::parse(read_file(path));
  double main_tid = -1.0;
  double worker_tid = -1.0;
  for (const JsonValue& event : doc.as_object().at("traceEvents").as_array()) {
    const auto& e = event.as_object();
    if (e.at("name").as_string() == "on-main") main_tid = e.at("tid").as_number();
    if (e.at("name").as_string() == "on-worker") worker_tid = e.at("tid").as_number();
  }
  EXPECT_GE(main_tid, 0.0);
  EXPECT_GE(worker_tid, 0.0);
  EXPECT_NE(main_tid, worker_tid);
  std::remove(path.c_str());
}

TEST(TraceTest, ProcessAndThreadLabelsFlowIntoMetadataEvents) {
  // Every trace names its process "aropuf" and each thread "thread <tid>".
  const std::string path = ::testing::TempDir() + "aropuf_trace_labels.json";
  start_trace(path);
  {
    const TraceScope span("labeled", "test");
  }
  ASSERT_TRUE(flush_trace());

  const JsonValue doc = JsonValue::parse(read_file(path));
  const std::string thread_label = "thread " + std::to_string(trace_thread_id());
  bool saw_process = false;
  bool saw_thread = false;
  for (const JsonValue& event : doc.as_object().at("traceEvents").as_array()) {
    const auto& e = event.as_object();
    if (e.at("ph").as_string() != "M") continue;
    const std::string label = e.at("args").as_object().at("name").as_string();
    if (e.at("name").as_string() == "process_name") {
      saw_process = true;
      EXPECT_EQ(label, "aropuf");
    }
    if (e.at("name").as_string() == "thread_name") {
      saw_thread = true;
      EXPECT_EQ(label, thread_label);
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
  std::remove(path.c_str());
}

TEST(TraceTest, BufferedSessionDrainsEventsForTheWire) {
  // No file: spans accumulate in memory until the caller drains them with
  // drain_trace_events().
  start_trace_buffered();
  ASSERT_TRUE(trace_enabled());
  {
    const TraceScope span("shippable", "test");
  }
  EXPECT_EQ(trace_event_count(), 1U);

  JsonValue::Array drained = drain_trace_events();
  ASSERT_EQ(drained.size(), 1U);
  const auto& e = drained[0].as_object();
  EXPECT_EQ(e.at("name").as_string(), "shippable");
  EXPECT_EQ(e.at("ph").as_string(), "X");
  // Drained form: steady-clock ts and tid, no pid.
  EXPECT_FALSE(e.contains("pid"));
  EXPECT_EQ(e.at("tid").as_number(), trace_thread_id());

  // Draining empties the buffer without ending the session.
  EXPECT_EQ(trace_event_count(), 0U);
  EXPECT_TRUE(trace_enabled());
  EXPECT_TRUE(drain_trace_events().empty());
  // A buffer-only session flushes as a no-op success (nothing to write).
  EXPECT_TRUE(flush_trace());
  EXPECT_FALSE(trace_enabled());
}

TEST(TraceTest, TraceEpochAnchorsSteadyTimestampsToWallClock) {
  // epoch + steady_now_us()/1000 must reconstruct "now" to within a coarse
  // tolerance — this is the invariant the resource sampler's timeline relies
  // on.
  const double epoch_ms = trace_epoch_unix_ms();
  const double reconstructed_ms =
      epoch_ms + static_cast<double>(steady_now_us()) / 1000.0;
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
  EXPECT_NEAR(reconstructed_ms, static_cast<double>(wall_ms), 250.0);
}

TEST(TraceTest, FlushToUnwritablePathFails) {
  start_trace("/nonexistent-dir/trace.json");
  {
    const TraceScope span("span", "test");
  }
  EXPECT_FALSE(flush_trace());
  EXPECT_FALSE(trace_enabled());  // the session still ends
}

TEST(TraceTest, CounterEventsSerializeWithoutDuration) {
  const std::string path = ::testing::TempDir() + "aropuf_trace_counters.json";
  start_trace(path);
  trace_counter("resource.rss_mib", {{"rss_mib", 128.5}});
  trace_counter("resource.cpu_ms", {{"user", 10.0}, {"sys", 2.0}});
  {
    const TraceScope span("work", "test");  // the validator still wants one X
  }
  ASSERT_TRUE(flush_trace());

  const JsonValue doc = JsonValue::parse(read_file(path));
  const auto& events = doc.as_object().at("traceEvents").as_array();
  int counter_events = 0;
  for (const JsonValue& event : events) {
    const auto& e = event.as_object();
    if (e.at("ph").as_string() != "C") continue;
    ++counter_events;
    // Counter events are instantaneous: a 'dur' would make Perfetto render
    // them as broken slices instead of a counter track.
    EXPECT_FALSE(e.contains("dur"));
    EXPECT_EQ(e.at("cat").as_string(), "resource");
    ASSERT_TRUE(e.contains("args"));
    for (const auto& [series, value] : e.at("args").as_object()) {
      (void)series;
      EXPECT_TRUE(value.is_number());
    }
    if (e.at("name").as_string() == "resource.cpu_ms") {
      EXPECT_EQ(e.at("args").as_object().size(), 2U);
      EXPECT_DOUBLE_EQ(e.at("args").as_object().at("user").as_number(), 10.0);
    }
  }
  EXPECT_EQ(counter_events, 2);
  std::remove(path.c_str());
}

TEST(TraceTest, CounterEventsAreNoopsWhenDisabled) {
  ASSERT_TRUE(flush_trace());
  EXPECT_FALSE(trace_enabled());
  trace_counter("resource.rss_mib", {{"rss_mib", 1.0}});
  EXPECT_EQ(trace_event_count(), 0U);
}

TEST(TraceTest, CompleteEventsCoverTheGivenStart) {
  const std::string path = ::testing::TempDir() + "aropuf_trace_complete.json";
  start_trace(path);
  const std::uint64_t start = steady_now_us();
  JsonValue::Object args;
  args["ipc"] = JsonValue(1.5);
  trace_complete("profiled", "prof", start, std::move(args));
  ASSERT_TRUE(flush_trace());

  const JsonValue doc = JsonValue::parse(read_file(path));
  bool saw = false;
  for (const JsonValue& event : doc.as_object().at("traceEvents").as_array()) {
    const auto& e = event.as_object();
    if (e.at("name").as_string() != "profiled") continue;
    saw = true;
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_TRUE(e.contains("dur"));
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(e.at("args").as_object().at("ipc").as_number(), 1.5);
  }
  EXPECT_TRUE(saw);
  std::remove(path.c_str());
}

TEST(TraceTest, RestartDiscardsBufferedSpans) {
  const std::string path = ::testing::TempDir() + "aropuf_trace_restart.json";
  start_trace(path);
  {
    const TraceScope span("first", "test");
  }
  EXPECT_EQ(trace_event_count(), 1U);
  start_trace(path);
  EXPECT_EQ(trace_event_count(), 0U);
  ASSERT_TRUE(flush_trace());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aropuf::telemetry
