// Loopback coordinator/worker e2e over 127.0.0.1 (POSIX only; registered by
// tests/net/CMakeLists.txt under UNIX).  Runs the REAL study job runner
// in-process and requires the fleet-merged aggregate to be bit-identical to a
// directly computed single-process aggregate — the tentpole guarantee — plus
// the failure paths: a worker hard-killed mid-job (reassignment), a job that
// throws (ERROR + retry budget), and a client speaking the wrong protocol
// version.
//
// Workers run jobs SEQUENTIALLY here (one worker thread at a time, or one
// worker serving all jobs): the run record and metrics registry are
// process-global, so two concurrent in-process jobs would interleave their
// telemetry.  Real fleet workers are separate processes — the parallel case
// is covered by the tools.fleet_* ctest legs driving real binaries.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/coordinator.hpp"
#include "net/fleet_view.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "sim/shard_study.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/trace.hpp"

namespace aropuf::net {
namespace {

ShardStudyConfig tiny_config() {
  ShardStudyConfig cfg;
  cfg.pop.chips = 8;
  cfg.pop.seed = 77;
  cfg.checkpoints = {1.0};
  return cfg;
}

JobMsg job_template(const ShardStudyConfig& cfg, int shards, const std::string& format) {
  JobMsg job;
  job.shards = shards;
  job.chips = cfg.pop.chips;
  job.seed = cfg.pop.seed;
  job.checkpoints = cfg.checkpoints;
  job.run = "loopback";
  job.format = format;
  return job;
}

/// The production job body: the same runner tools/aropuf_shard wires in.
JobRunner study_runner() {
  return [](const JobMsg& job, const auto& progress) {
    ShardStudyConfig cfg;
    cfg.pop.chips = job.chips;
    cfg.pop.seed = job.seed;
    cfg.checkpoints = job.checkpoints;
    return run_shard_job(cfg, job.shard, job.shards, job.run, job.format == "binary", progress);
  };
}

/// The reference: every shard folded without any network in between.
std::string direct_aggregate_results(const ShardStudyConfig& cfg, int shards,
                                     const std::string& format) {
  telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
  for (int k = 0; k < shards; ++k) {
    builder.add(telemetry::decode_shard_input(
        run_shard_job(cfg, k, shards, "loopback", format == "binary"), "<direct>"));
  }
  return builder.finalize().manifest.at("results").dump();
}

TEST(LoopbackTest, FleetMergeIsBitIdenticalToDirectFold) {
  const ShardStudyConfig cfg = tiny_config();
  const int kShards = 3;

  for (const std::string format : {"binary", "json"}) {
    CoordinatorConfig config;
    config.jobs = {0, 1, 2};
    config.job_template = job_template(cfg, kShards, format);

    telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
    CoordinatorCallbacks callbacks;
    callbacks.on_result = [&](int, std::string bytes, const std::string& worker) {
      builder.add(telemetry::decode_shard_input(std::move(bytes), "tcp://" + worker));
    };

    Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
    const std::uint16_t port = coordinator.port();
    ASSERT_GT(port, 0);

    // One worker serves all three jobs back to back over one connection.
    std::thread worker_thread([port] {
      WorkerConfig wc;
      wc.host = "127.0.0.1";
      wc.port = port;
      wc.name = "loop-w1";
      EXPECT_EQ(run_worker(wc, study_runner()), WorkerExit::kBye);
    });

    const FleetSummary summary = coordinator.run();
    worker_thread.join();
    EXPECT_TRUE(summary.ok);
    EXPECT_EQ(summary.jobs_done, kShards);
    EXPECT_EQ(summary.jobs_failed, 0);
    EXPECT_EQ(summary.workers_seen, 1);
    EXPECT_EQ(summary.reassignments, 0);

    const std::string fleet_results = builder.finalize().manifest.at("results").dump();
    EXPECT_EQ(fleet_results, direct_aggregate_results(cfg, kShards, format))
        << "fleet-merged results differ from the direct fold (format " << format << ")";
  }
}

TEST(LoopbackTest, KilledWorkerJobIsReassignedAndStillBitIdentical) {
  const ShardStudyConfig cfg = tiny_config();
  const int kShards = 2;

  CoordinatorConfig config;
  config.jobs = {0, 1};
  config.retries = 1;
  config.job_template = job_template(cfg, kShards, "binary");

  telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
  std::atomic<int> reassign_events{0};
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int, std::string bytes, const std::string& worker) {
    builder.add(telemetry::decode_shard_input(std::move(bytes), "tcp://" + worker));
  };
  callbacks.on_event = [&](const std::string& event, int, const std::string&) {
    if (event == "retry") reassign_events.fetch_add(1);
  };

  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();

  std::thread workers([port] {
    // Worker 1 hard-closes on its first job — the deterministic stand-in for
    // a machine dying mid-shard.  It must exit kAborted without sending
    // RESULT or ERROR.
    WorkerConfig killed;
    killed.host = "127.0.0.1";
    killed.port = port;
    killed.name = "loop-killed";
    killed.abort_first_job = true;
    EXPECT_EQ(run_worker(killed, study_runner()), WorkerExit::kAborted);

    // Worker 2 then serves everything, including the reassigned job.
    WorkerConfig survivor;
    survivor.host = "127.0.0.1";
    survivor.port = port;
    survivor.name = "loop-survivor";
    EXPECT_EQ(run_worker(survivor, study_runner()), WorkerExit::kBye);
  });

  const FleetSummary summary = coordinator.run();
  workers.join();
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.jobs_done, kShards);
  EXPECT_EQ(summary.jobs_failed, 0);
  EXPECT_EQ(summary.workers_seen, 2);
  EXPECT_GE(summary.reassignments, 1);
  EXPECT_GE(reassign_events.load(), 1);

  const std::string fleet_results = builder.finalize().manifest.at("results").dump();
  EXPECT_EQ(fleet_results, direct_aggregate_results(cfg, kShards, "binary"));
}

TEST(LoopbackTest, ObservabilityPlaneMergesTraceAndAccountsJobsAcrossAKill) {
  // The full observability loop against real sockets: trace context on JOB
  // frames, METRICS snapshots (including the killed worker's initial one),
  // clock-offset estimation, and the FleetView fold the tools wire in.
  //
  // Caveat: both "processes" share this test binary's global trace buffer, so
  // span *attribution* between coordinator and worker blurs (each drain grabs
  // whatever is buffered).  Assertions therefore target what survives the
  // blur — one trace_id, synthetic pids present, monotonic merged timestamps,
  // coordinator-side job accounting.  Per-process attribution is covered by
  // scripts/fleet_smoke.sh with real separate binaries.
  (void)telemetry::drain_trace_events();  // flush spans left by earlier tests

  const ShardStudyConfig cfg = tiny_config();
  const int kShards = 2;

  CoordinatorConfig config;
  config.jobs = {0, 1};
  config.retries = 1;
  config.job_template = job_template(cfg, kShards, "binary");
  config.job_template.trace_id = "loopbacktrace001";

  FleetView view(kShards, "loopback", config.job_template.trace_id, 0);
  auto now_ms = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
  std::atomic<int> metrics_frames{0};
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int shard, std::string bytes, const std::string& worker) {
    builder.add(telemetry::decode_shard_input(std::move(bytes), "tcp://" + worker));
    view.note_result(shard, worker, now_ms());
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string& detail) {
    view.note_event(event, shard, detail, now_ms());
  };
  callbacks.on_heartbeat = [&](const telemetry::Heartbeat& beat, const std::string& worker) {
    view.note_heartbeat(beat, worker, now_ms());
  };
  callbacks.on_metrics = [&](const MetricsMsg& msg, const std::string& worker, double offset) {
    metrics_frames.fetch_add(1);
    view.note_metrics(msg, worker, offset, now_ms());
  };

  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();

  std::thread workers([port] {
    WorkerConfig killed;
    killed.host = "127.0.0.1";
    killed.port = port;
    killed.name = "obs-killed";
    killed.abort_first_job = true;
    EXPECT_EQ(run_worker(killed, study_runner()), WorkerExit::kAborted);

    WorkerConfig survivor;
    survivor.host = "127.0.0.1";
    survivor.port = port;
    survivor.name = "obs-survivor";
    EXPECT_EQ(run_worker(survivor, study_runner()), WorkerExit::kBye);
  });

  const FleetSummary summary = coordinator.run();
  workers.join();
  ASSERT_TRUE(summary.ok);
  view.add_local_events(telemetry::drain_trace_events(),
                        telemetry::trace_epoch_unix_ms(), "coordinator loopback");

  // Both workers sent their initial METRICS right after HELLO, and the
  // survivor one more per finished job.
  EXPECT_GE(metrics_frames.load(), 3);
  ASSERT_EQ(view.workers().size(), 2u);
  const WorkerView& killed = view.workers()[0];
  const WorkerView& survivor = view.workers()[1];
  EXPECT_EQ(killed.name, "obs-killed");
  EXPECT_GE(killed.failed_attempts, 1);
  EXPECT_TRUE(killed.offset_known);
  EXPECT_TRUE(survivor.offset_known);
  // Loopback clocks are one clock: the min-filtered estimate stays tiny.
  EXPECT_LT(std::abs(survivor.clock_offset_ms), 50.0);
  // Job accounting sums to the shard plan, reassigned shard included.
  EXPECT_EQ(killed.jobs_done + survivor.jobs_done, kShards);
  EXPECT_GE(view.reassignments(), 1);

  const JsonValue trace = view.merged_trace_json();
  EXPECT_EQ(trace.at("trace_id").as_string(), "loopbacktrace001");
  bool saw_killed_pid = false, saw_survivor_pid = false, saw_job_span = false;
  double prev_ts = -1.0;
  for (const JsonValue& event : trace.at("traceEvents").as_array()) {
    if (event.string_or("ph", "") != "X") continue;
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(ts, prev_ts);
    prev_ts = ts;
    const int pid = static_cast<int>(event.at("pid").as_number());
    if (pid == killed.pid) saw_killed_pid = true;
    if (pid == survivor.pid) saw_survivor_pid = true;
    if (event.string_or("name", "") == "fleet.job" && event.contains("args")) {
      saw_job_span = true;
      EXPECT_EQ(event.at("args").string_or("trace_id", ""), "loopbacktrace001");
    }
  }
  // The killed worker's initial METRICS shipped its fleet.connect span before
  // it died, so even that process appears in the merged timeline.
  EXPECT_TRUE(saw_killed_pid);
  EXPECT_TRUE(saw_survivor_pid);
  EXPECT_TRUE(saw_job_span);

  const JsonValue doc = view.fleet_metrics_json(now_ms());
  EXPECT_EQ(doc.at("shards").at("done").as_number(), static_cast<double>(kShards));
  double sum_done = 0.0;
  for (const JsonValue& w : doc.at("workers").as_array()) {
    sum_done += w.at("jobs_done").as_number();
  }
  EXPECT_DOUBLE_EQ(sum_done, static_cast<double>(kShards));
  EXPECT_EQ(doc.at("shards").at("reassigned").as_number(),
            static_cast<double>(view.reassignments()));
}

TEST(LoopbackTest, ThrowingJobConsumesRetryBudgetThenFails) {
  CoordinatorConfig config;
  config.jobs = {0};
  config.retries = 1;  // 2 attempts total
  config.job_template = job_template(tiny_config(), 1, "binary");

  std::atomic<int> attempts{0};
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [](int, std::string, const std::string&) {
    FAIL() << "no RESULT should arrive from a runner that always throws";
  };

  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();

  std::thread worker_thread([port, &attempts] {
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = port;
    wc.name = "loop-thrower";
    const JobRunner runner = [&attempts](const JobMsg&, const auto&) -> std::string {
      attempts.fetch_add(1);
      throw std::runtime_error("synthetic job failure");
    };
    // The worker survives its jobs' failures; the coordinator dismisses it
    // with BYE once the retry budget is spent.
    EXPECT_EQ(run_worker(wc, runner), WorkerExit::kBye);
  });

  const FleetSummary summary = coordinator.run();
  worker_thread.join();
  EXPECT_FALSE(summary.ok);
  EXPECT_EQ(summary.jobs_done, 0);
  EXPECT_EQ(summary.jobs_failed, 1);
  EXPECT_EQ(attempts.load(), 2);  // retries + 1, the aropuf_shard budget rule
}

TEST(LoopbackTest, RejectedResultRoutesThroughRetryBudget) {
  // A manifest that will not fold is as fatal as a crashed worker: on_result
  // throwing must consume an attempt and redispatch.
  CoordinatorConfig config;
  config.jobs = {0};
  config.retries = 1;
  config.job_template = job_template(tiny_config(), 1, "binary");

  std::atomic<int> results_seen{0};
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int, std::string, const std::string&) {
    if (results_seen.fetch_add(1) == 0) {
      throw std::runtime_error("synthetic fold rejection");
    }
  };

  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();
  std::thread worker_thread([port] {
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = port;
    EXPECT_EQ(run_worker(wc, study_runner()), WorkerExit::kBye);
  });

  const FleetSummary summary = coordinator.run();
  worker_thread.join();
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(results_seen.load(), 2);
  EXPECT_EQ(summary.reassignments, 1);
}

TEST(LoopbackTest, VersionMismatchGetsStructuredErrorThenGoodWorkerFinishes) {
  CoordinatorConfig config;
  config.jobs = {0};
  config.job_template = job_template(tiny_config(), 1, "binary");

  CoordinatorCallbacks callbacks;
  telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
  callbacks.on_result = [&](int, std::string bytes, const std::string& worker) {
    builder.add(telemetry::decode_shard_input(std::move(bytes), "tcp://" + worker));
  };

  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();

  std::thread clients([port] {
    // A client from the future: HELLO with a protocol the coordinator does
    // not speak.  DESIGN.md §11.5 requires ERROR code "version-mismatch"
    // followed by connection close.
    {
      Socket socket = tcp_connect("127.0.0.1", port, 10.0);
      HelloMsg hello;
      hello.protocol = 9999;
      hello.worker = "time-traveler";
      socket.send_all(encode_hello(hello));
      FrameDecoder decoder;
      Frame frame;
      bool got_error = false;
      char buf[4096];
      while (!got_error) {
        const std::size_t n = socket.recv_some(buf, sizeof buf);
        if (n == 0) break;  // closed before we parsed — still a failure below
        decoder.feed(buf, n);
        while (decoder.next(&frame)) {
          ASSERT_EQ(frame.type, FrameType::kError);
          EXPECT_EQ(error_from_json(frame_payload_json(frame)).code, "version-mismatch");
          got_error = true;
        }
      }
      EXPECT_TRUE(got_error);
    }
    // A well-versioned worker then completes the run.
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = port;
    EXPECT_EQ(run_worker(wc, study_runner()), WorkerExit::kBye);
  });

  const FleetSummary summary = coordinator.run();
  clients.join();
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.jobs_done, 1);
  // The mismatched client never completed the handshake.
  EXPECT_EQ(summary.workers_seen, 1);
}

/// The IPv4 address a listener is bound to, read back with getsockname().
std::string bound_address(const Listener& listener) {
  struct sockaddr_in addr{};
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(listener.fd(), reinterpret_cast<struct sockaddr*>(&addr), &len), 0);
  char text[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof text);
  return text;
}

TEST(LoopbackTest, LocalListenerBindsLoopbackAndListenBindsEveryInterface) {
  // A loopback-only listener is unreachable from other hosts (the tests'
  // coordinators bind this way); aropuf_shard --listen opens every interface.
  const Listener local = Listener::listen_on(0, /*loopback_only=*/true);
  EXPECT_EQ(bound_address(local), "127.0.0.1");
  EXPECT_GT(local.port(), 0);
  const Listener open = Listener::listen_on(0, /*loopback_only=*/false);
  EXPECT_EQ(bound_address(open), "0.0.0.0");
}

TEST(LoopbackTest, OnlyTheListedShardsAreDispatched) {
  // A resumed study hands the coordinator the shards it still lacks.
  CoordinatorConfig config;
  config.jobs = {2, 0};
  config.job_template = job_template(tiny_config(), 3, "binary");

  std::vector<int> dispatched;
  std::vector<int> landed;
  CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int shard, std::string, const std::string&) {
    landed.push_back(shard);
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string&) {
    if (event == "dispatch") dispatched.push_back(shard);
  };
  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  const std::uint16_t port = coordinator.port();
  std::thread worker_thread([port] {
    WorkerConfig wc;
    wc.host = "127.0.0.1";
    wc.port = port;
    EXPECT_EQ(run_worker(wc, study_runner()), WorkerExit::kBye);
  });
  const FleetSummary summary = coordinator.run();
  worker_thread.join();
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.jobs_done, 2);
  EXPECT_EQ(dispatched, (std::vector<int>{2, 0}));
  EXPECT_EQ(landed, (std::vector<int>{2, 0}));
}

TEST(LoopbackTest, RunWithNoWorkerAttachedReportsAStall) {
  // No worker ever connects: the heartbeat deadline fires a shard -1
  // "timeout", and an on_event that throws ends run() instead of a hang.
  CoordinatorConfig config;
  config.jobs = {0};
  config.heartbeat_timeout_s = 0.2;
  config.job_template = job_template(tiny_config(), 1, "binary");
  CoordinatorCallbacks callbacks;
  callbacks.on_event = [](const std::string& event, int shard, const std::string&) {
    if (event == "timeout" && shard < 0) throw std::runtime_error("stalled");
  };
  Coordinator coordinator(Listener::listen_on(0, /*loopback_only=*/true), config,
                          std::move(callbacks));
  EXPECT_THROW((void)coordinator.run(), std::runtime_error);
}

TEST(LoopbackTest, MalformedJobListsAreRejected) {
  CoordinatorConfig config;
  config.job_template = job_template(tiny_config(), 3, "binary");
  for (const std::vector<int>& jobs :
       {std::vector<int>{}, std::vector<int>{0, 0}, std::vector<int>{3}, std::vector<int>{-1}}) {
    config.jobs = jobs;
    EXPECT_THROW(Coordinator(Listener::listen_on(0, /*loopback_only=*/true), config, {}),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace aropuf::net
