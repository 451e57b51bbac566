// aropuf_shard: orchestrator for the sharded E2+E3 population study.
//
// The chip population splits into --shards seed-range shards (sim/shard_study).
// One binary runs them three ways:
//
//  * default — run the shards one after another in this process, each on the
//    process-wide thread pool.  A shard that throws ends the run; --resume
//    then re-runs only the shards that are missing.
//  * --listen PORT — bind the ARPF coordinator (net/coordinator, DESIGN.md
//    §11) on every interface for remote --worker processes.  The coordinator
//    dispatches, retries (--retries) and reassigns the jobs of workers that
//    fall silent (--worker-timeout).
//  * --worker HOST:PORT — serve shard jobs for a coordinator.  Every JOB
//    carries the full study parameterization, so a worker needs no other
//    configuration.
//
// Both orchestrating paths land a shard the same way (run_study's `land`):
// persist the manifest container into --out, decode it, and fold it into one
// AggregateBuilder as it arrives.  --resume folds the shards whose manifest on
// disk still validates (run name, shard coordinates, study config) and runs
// only the rest; when nothing is missing no shard runs.  The merged manifest
// plus the ECC/area study section derived from it land in
// --out/merged.manifest.json.  --listen runs also write fleet_trace.json,
// fleet_metrics.json and fleet_metrics.prom into --out, failed runs too.
//
// Exit codes: 0 success; 1 failed shards, fold errors, provenance conflicts
// or write errors; 2 usage error; 3 --check-single mismatch (the merged
// statistics differ from a single-process run — a determinism regression,
// never acceptable).  Worker mode exits with the WorkerExit status.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "net/coordinator.hpp"
#include "net/fleet_view.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "sim/parallel.hpp"
#include "sim/shard_study.hpp"
#include "sim/study_report.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace {

using namespace aropuf;
using Clock = std::chrono::steady_clock;

struct Options {
  // Study parameters (shipped to workers inside each JOB).
  int chips = 40;
  std::uint64_t seed = 2014;
  std::vector<double> checkpoints = {1.0, 2.0, 5.0, 10.0};
  std::string run = "shard_study";
  std::string format = "binary";  ///< shard manifest transport: "binary" or "json"

  // Orchestration.
  int shards = 4;
  int listen_port = -1;  ///< -1 = run the shards in this process
  std::string port_file;
  std::string out_dir = "shard-run";
  bool resume = false;
  int retries = 1;
  double worker_timeout_s = 60.0;
  double timeout_s = 0.0;  ///< whole run; 0 = none
  bool drop_raw = false;
  bool check_single = false;
  bool quiet = false;
  int threads = 0;  ///< pool threads of this process; 0 = library default

  // Worker mode.
  std::string worker_spec;  ///< "HOST:PORT"; non-empty selects worker mode
  std::string worker_name;
  bool abort_first_job = false;  ///< test hook (hidden)
};

/// Parses "Y1,Y2,...": every comma-separated token, the last included, must
/// be a finite number >= 0, and the list strictly increasing.
bool parse_checkpoints(const std::string& csv, std::vector<double>* out) {
  std::vector<double> years;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = csv.find(',', begin);
    double y = 0.0;
    if (!cli::parse_double(csv.substr(begin, comma - begin), &y) || y < 0.0) return false;
    years.push_back(y);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  // Strictly increasing: equal neighbours would name one series twice.
  if (std::adjacent_find(years.begin(), years.end(), std::greater_equal<>()) != years.end()) {
    return false;
  }
  *out = std::move(years);
  return true;
}

/// Parses "HOST:PORT" (worker connect target).  The last ':' splits, so IPv6
/// literals work unbracketed as long as the port is present.
bool parse_hostport(const std::string& spec, std::string* host, std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) return false;
  // `digits` must outlive `end`, which points into it.
  const std::string digits = spec.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p < 1 || p > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

/// Returns 0 on success, 2 on usage error (with a message on stderr).
int parse_args(int argc, char** argv, Options* opt) {
  cli::Parser parser("aropuf_shard", "orchestrator for the sharded E2+E3 population study");
  parser
      .opt_int("--chips", &opt->chips, "N", "total chip population (default 40)", 2)
      .opt_uint64("--seed", &opt->seed, "S", "master RNG seed (default 2014)")
      .opt_custom("--checkpoints", "CSV", "aging years, strictly increasing (default 1,2,5,10)",
                  [opt](const std::string& v) { return parse_checkpoints(v, &opt->checkpoints); })
      .opt_string("--run", &opt->run, "NAME", "run name in manifests (default shard_study)")
      .opt_int("--shards", &opt->shards, "K", "number of shards (default 4)", 1)
      .opt_int("--listen", &opt->listen_port, "PORT",
               "serve the shards to remote workers on every interface at PORT "
               "(0 = kernel-assigned; default: run them in this process)",
               0)
      .opt_string("--port-file", &opt->port_file, "PATH",
                  "write the coordinator's bound port to PATH once listening (--listen)")
      .opt_string("--out", &opt->out_dir, "DIR", "output directory (default shard-run)")
      .flag("--resume", &opt->resume, "fold shards whose manifest already validates; run the rest")
      .opt_int("--retries", &opt->retries, "R",
               "retries per failed shard job (default 1; --listen)", 0)
      .opt_double("--worker-timeout", &opt->worker_timeout_s, "SEC",
                  "reassign a silent busy worker's job after SEC seconds "
                  "(default 60, 0 = never; --listen)",
                  0.0)
      .opt_double("--timeout", &opt->timeout_s, "SEC",
                  "abort a --listen run after SEC seconds (default: none)", 0.0)
      .opt_string("--format", &opt->format, "FMT",
                  "shard manifest transport: binary or json (default binary)")
      .flag("--drop-raw", &opt->drop_raw,
            "drop raw per-chip series once reduced (aggregate omits them)")
      .flag("--check-single", &opt->check_single, "verify merged results == single-process run")
      .flag("--quiet", &opt->quiet, "suppress per-event narration")
      .opt_string("--worker", &opt->worker_spec, "HOST:PORT",
                  "worker mode: serve shard jobs for the coordinator at HOST:PORT")
      .opt_string("--name", &opt->worker_name, "NAME", "worker display name (default host:pid)")
      .opt_int("--threads", &opt->threads, "T",
               "pool threads of this process or worker (default: library default)", 1)
      .with_env_help();
  // Deterministic killed-worker simulation for the e2e tests: hard-close the
  // connection on the first assigned job.  Parsed but kept out of --help.
  parser.flag("--abort-first-job", &opt->abort_first_job, "abort on first job (test hook)")
      .hidden();

  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kHelp:
      std::exit(0);
    case cli::ParseStatus::kError:
      return 2;
    case cli::ParseStatus::kOk:
      break;
  }
  const auto usage = [](const char* message) {
    std::fprintf(stderr, "aropuf_shard: %s\n", message);
    return 2;
  };
  if (opt->format != "binary" && opt->format != "json") {
    return usage("--format must be binary or json");
  }
  if (opt->listen_port > 65535) return usage("--listen port out of range");
  if (!opt->worker_spec.empty() && opt->listen_port >= 0) {
    return usage("--worker cannot be combined with --listen");
  }
  return 0;
}

ShardStudyConfig study_config(const Options& opt) {
  ShardStudyConfig cfg;
  cfg.pop.chips = opt.chips;
  cfg.pop.seed = opt.seed;
  cfg.checkpoints = opt.checkpoints;
  return cfg;
}

std::int64_t now_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool stdout_is_tty() {
#if !defined(_WIN32)
  return ::isatty(STDOUT_FILENO) == 1;
#else
  return false;  // Windows has no coordinator (net/socket), so no HUD
#endif
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) return false;
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

std::string shard_manifest_path(const Options& opt, int shard) {
  return opt.out_dir + "/shard-" + std::to_string(shard) +
         (opt.format == "binary" ? ".manifest.bin" : ".manifest.json");
}

/// 16-hex-char fleet trace id: splitmix64 over seed ⊕ wall clock ⊕ a
/// random_device draw, so concurrent runs from the same seed still get
/// distinct timelines.
std::string make_trace_id(std::uint64_t seed) {
  std::uint64_t x = seed ^ static_cast<std::uint64_t>(now_unix_ms());
  x ^= static_cast<std::uint64_t>(std::random_device{}()) << 32;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// Study-wide progress in shard units: resumed shards are complete before
/// the run starts and are the ETA baseline, so the estimate reflects only
/// the rate of work done in this run.
class StudyProgress {
 public:
  StudyProgress(int shards, int resumed) : shards_(shards), t0_(Clock::now()) {
    eta_.add_baseline(resumed);
  }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// "<f>/<N> shards | <p>% | elapsed <e>s[ | eta <t>s]", where `done_units`
  /// counts finished shards (resumed ones included) plus the heartbeat
  /// fractions of the running ones.
  [[nodiscard]] std::string line(int finished, double done_units) const {
    const double elapsed = elapsed_s();
    const double eta = eta_.eta_seconds(done_units, shards_, elapsed);
    char text[128];
    std::snprintf(text, sizeof text, "%d/%d shards | %.0f%% | elapsed %.1fs", finished, shards_,
                  100.0 * done_units / shards_, elapsed);
    std::string line = text;
    if (eta >= 0.0) {
      std::snprintf(text, sizeof text, " | eta %.1fs", eta);
      line += text;
    }
    return line;
  }

 private:
  int shards_;
  Clock::time_point t0_;
  telemetry::EtaEstimator eta_;
};

/// Live per-worker fleet table, redrawn in place (cursor-up + line-clear).
/// Active only on a TTY without --quiet; when active it replaces the
/// per-event narration entirely (the two would shred each other's terminal
/// region).
class FleetHud {
 public:
  FleetHud(bool enabled, int shards, int resumed)
      : enabled_(enabled), progress_(shards, resumed), resumed_(resumed) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The study progress line as seen through `view` (shards folded this run
  /// plus the heartbeat fraction of every busy worker).
  [[nodiscard]] std::string progress_line(const net::FleetView& view) const {
    double units = resumed_ + view.shards_done();
    for (const net::WorkerView& w : view.workers()) {
      if (w.busy_shard >= 0 && w.stage_total > 0) {
        units += static_cast<double>(w.stage_done) / static_cast<double>(w.stage_total);
      }
    }
    return progress_.line(resumed_ + view.shards_done(), units);
  }

  void note_event(const std::string& event, int shard, const std::string& detail) {
    if (!enabled_) return;
    last_event_ = shard >= 0 ? event + " shard " + std::to_string(shard) + " (" + detail + ")"
                             : event + " (" + detail + ")";
  }

  void render(const net::FleetView& view, bool force) {
    if (!enabled_) return;
    // 10 Hz redraw cap: heartbeats can arrive per work unit.
    const std::int64_t now = now_unix_ms();
    if (!force && now - last_render_ms_ < 100) return;
    last_render_ms_ = now;

    if (erase_lines_ > 0) std::printf("\x1b[%zuF", erase_lines_);
    std::size_t lines = 0;
    auto line = [&lines](const std::string& text) {
      std::printf("\x1b[2K%s\n", text.c_str());
      ++lines;
    };
    char head[320];
    std::snprintf(head, sizeof head, "fleet: %s  %d failed  %d reassigned%s%s",
                  progress_line(view).c_str(), view.shards_failed(), view.reassignments(),
                  last_event_.empty() ? "" : "  |  ", last_event_.c_str());
    line(head);
    for (const net::WorkerView& w : view.workers()) {
      char state[24];
      if (w.busy_shard >= 0) {
        std::snprintf(state, sizeof state, "busy s%d", w.busy_shard);
      } else {
        std::snprintf(state, sizeof state, "%s", w.connected ? "idle   " : "gone   ");
      }
      char units[48] = "";
      if (w.stage_total > 0) {
        std::snprintf(units, sizeof units, " %lld/%lld", static_cast<long long>(w.stage_done),
                      static_cast<long long>(w.stage_total));
      }
      char row[320];
      std::snprintf(row, sizeof row,
                    "  worker[%d] %-24s %s  jobs %d/%d  retry %d  %s%s  clk%+.1fms", w.pid - 2,
                    w.name.c_str(), state, w.jobs_done, w.jobs_assigned, w.failed_attempts,
                    w.last_stage.empty() ? "-" : w.last_stage.c_str(), units,
                    w.clock_offset_ms);
      line(row);
    }
    std::fflush(stdout);
    erase_lines_ = lines;
  }

  /// Leaves the final table on screen and stops managing the region.
  void finish(const net::FleetView& view) {
    if (!enabled_) return;
    render(view, /*force=*/true);
    erase_lines_ = 0;
  }

 private:
  bool enabled_;
  StudyProgress progress_;
  int resumed_;
  std::int64_t last_render_ms_ = 0;
  std::size_t erase_lines_ = 0;
  std::string last_event_;
};

/// Persists one landed shard manifest and folds it.  The container is
/// written first (the bytes a shard leaves on disk for --resume and for
/// inspection) so a failed run leaves evidence; a write failure is advisory,
/// the in-memory fold is authoritative.  Throws when the manifest will not
/// fold — an in-process run fails, a coordinator charges it to the job's
/// retry budget.
using LandShardFn =
    std::function<void(int shard, std::string bytes, const std::string& origin)>;

// --- worker mode -------------------------------------------------------------

int run_worker_mode(const Options& opt) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_hostport(opt.worker_spec, &host, &port)) {
    std::fprintf(stderr, "aropuf_shard: bad --worker spec '%s' (want HOST:PORT)\n",
                 opt.worker_spec.c_str());
    return 2;
  }
  net::WorkerConfig config;
  config.host = host;
  config.port = port;
  config.name = opt.worker_name;
  config.threads = opt.threads;
  config.abort_first_job = opt.abort_first_job;

  // The job body: the in-process shard runner, parameterized entirely from
  // the JOB message.
  const net::JobRunner runner = [](const net::JobMsg& job, const auto& progress) {
    ShardStudyConfig cfg;
    cfg.pop.chips = job.chips;
    cfg.pop.seed = job.seed;
    cfg.checkpoints = job.checkpoints;
    return run_shard_job(cfg, job.shard, job.shards, job.run, job.format == "binary", progress);
  };

  const net::WorkerExit status = net::run_worker(config, runner);
  switch (status) {
    case net::WorkerExit::kBye:
      break;
    case net::WorkerExit::kLost:
      std::fprintf(stderr, "aropuf_shard: connection to coordinator lost\n");
      break;
    case net::WorkerExit::kProtocol:
      std::fprintf(stderr, "aropuf_shard: coordinator violated the protocol\n");
      break;
    case net::WorkerExit::kAborted:
      std::fprintf(stderr, "aropuf_shard: aborted on first job (test hook)\n");
      break;
  }
  return static_cast<int>(status);
}

// --- in-process shards -------------------------------------------------------

/// Runs `todo` one shard after another in this process, each on the whole
/// thread pool.  run_shard_job resets the process-wide telemetry before each
/// shard, so every shard still produces an honest per-shard manifest.
bool run_in_process(const Options& opt, const ShardStudyConfig& cfg, const std::vector<int>& todo,
                    int resumed, const LandShardFn& land) {
  const StudyProgress progress(opt.shards, resumed);
  int folded = 0;
  for (const int shard : todo) {
    try {
      land(shard, run_shard_job(cfg, shard, opt.shards, opt.run, opt.format == "binary"),
           "in-process");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aropuf_shard: shard %d failed: %s\n", shard, e.what());
      return false;
    }
    ++folded;
    if (!opt.quiet) {
      std::printf("shard %d: folded (in-process) | %s\n", shard,
                  progress.line(resumed + folded, resumed + folded).c_str());
      std::fflush(stdout);
    }
  }
  telemetry::reset_run_record();
  telemetry::MetricsRegistry::global().reset();
  return true;
}

// --- coordinator -------------------------------------------------------------

/// Serves `todo` to the remote workers that join the ARPF coordinator at
/// --listen.  Returns true when every job landed.
bool run_coordinator(const Options& opt, const std::vector<int>& todo, int resumed,
                     const LandShardFn& land) {
  // Observability plane: one trace session (buffer-only unless the operator
  // asked for a file via AROPUF_TRACE), one fleet-wide trace id stamped on
  // every JOB, and one FleetView folding everything the wire reports.
  if (!telemetry::trace_enabled()) telemetry::start_trace_buffered();
  telemetry::set_trace_process_label("coordinator " + opt.run);
  telemetry::set_trace_thread_label("coordinator main");
  const std::string trace_id = make_trace_id(opt.seed);
  net::FleetView view(static_cast<int>(todo.size()), opt.run, trace_id, now_unix_ms());
  FleetHud hud(stdout_is_tty() && !opt.quiet, opt.shards, resumed);

  net::CoordinatorConfig config;
  config.jobs = todo;
  config.retries = opt.retries;
  config.heartbeat_timeout_s = opt.worker_timeout_s;
  config.total_timeout_s = opt.timeout_s;
  config.job_template.shards = opt.shards;
  config.job_template.chips = opt.chips;
  config.job_template.seed = opt.seed;
  config.job_template.checkpoints = opt.checkpoints;
  config.job_template.run = opt.run;
  config.job_template.format = opt.format;
  config.job_template.trace_id = trace_id;

  net::Listener listener;
  try {
    listener = net::Listener::listen_on(static_cast<std::uint16_t>(opt.listen_port),
                                        /*loopback_only=*/false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_shard: cannot listen: %s\n", e.what());
    return false;
  }
  const std::uint16_t port = listener.port();

  net::CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int shard, std::string bytes, const std::string& worker) {
    land(shard, std::move(bytes), "tcp://" + worker);
    view.note_result(shard, worker, now_unix_ms());
    if (hud.enabled()) {
      hud.render(view, /*force=*/true);
    } else if (!opt.quiet) {
      std::printf("shard %d: folded (from %s) | %s\n", shard, worker.c_str(),
                  hud.progress_line(view).c_str());
      std::fflush(stdout);
    }
  };
  // Stage transitions only — per-unit beats would flood a fleet log.  Keyed
  // per shard; callbacks fire on the coordinator's (this) thread.
  std::map<int, std::string> last_stage;
  callbacks.on_heartbeat = [&](const telemetry::Heartbeat& beat, const std::string& worker) {
    view.note_heartbeat(beat, worker, now_unix_ms());
    if (hud.enabled()) {
      hud.render(view, /*force=*/false);
      return;
    }
    if (opt.quiet) return;
    const std::string key = worker + "|" + beat.stage;
    if (last_stage[beat.shard] == key) return;
    last_stage[beat.shard] = key;
    std::printf("shard %d: %s (%s)\n", beat.shard, beat.stage.c_str(), worker.c_str());
    std::fflush(stdout);
  };
  callbacks.on_metrics = [&](const net::MetricsMsg& msg, const std::string& worker,
                             double clock_offset_ms) {
    view.note_metrics(msg, worker, clock_offset_ms, now_unix_ms());
    hud.render(view, /*force=*/false);
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string& detail) {
    view.note_event(event, shard, detail, now_unix_ms());
    if (hud.enabled()) {
      hud.note_event(event, shard, detail);
      hud.render(view, /*force=*/true);
    } else if (!opt.quiet) {
      if (shard >= 0) {
        std::printf("fleet: %s shard %d: %s\n", event.c_str(), shard, detail.c_str());
      } else {
        std::printf("fleet: %s: %s\n", event.c_str(), detail.c_str());
      }
      std::fflush(stdout);
    }
  };

  std::optional<net::Coordinator> coordinator;
  coordinator.emplace(std::move(listener), std::move(config), std::move(callbacks));
  std::printf("aropuf_shard: coordinating %zu shard job(s) on 0.0.0.0:%u\n", todo.size(),
              static_cast<unsigned>(port));
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    // The port file is the rendezvous for scripted runs (--listen 0): written
    // atomically (tmp + rename) so a polling launcher never reads a torn
    // value.
    const std::string tmp = opt.port_file + ".tmp";
    if (!write_text_file(tmp, std::to_string(port) + "\n") ||
        std::rename(tmp.c_str(), opt.port_file.c_str()) != 0) {
      std::fprintf(stderr, "aropuf_shard: cannot write port file %s\n", opt.port_file.c_str());
      return false;
    }
  }

  net::FleetSummary summary;
  try {
    summary = coordinator->run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_shard: coordinator failed: %s\n", e.what());
  }
  hud.finish(view);
  coordinator.reset();
  std::printf(
      "aropuf_shard: %d/%zu job(s) done, %d failed, %d worker(s), %d reassignment(s)%s\n",
      summary.jobs_done, todo.size(), summary.jobs_failed, summary.workers_seen,
      summary.reassignments, summary.timed_out ? " [timed out]" : "");

  // Observability artifacts are written for failed runs too — a timeline of
  // a run that went wrong is worth more than one of a run that went right.
  view.add_local_events(telemetry::drain_trace_events(), telemetry::trace_epoch_unix_ms(),
                        "coordinator " + opt.run);
  const std::string trace_path = opt.out_dir + "/fleet_trace.json";
  const std::string metrics_path = opt.out_dir + "/fleet_metrics.json";
  const std::string prom_path = opt.out_dir + "/fleet_metrics.prom";
  if (!write_text_file(trace_path, view.merged_trace_json().dump(/*indent=*/0) + "\n") ||
      !write_text_file(metrics_path,
                       view.fleet_metrics_json(now_unix_ms()).dump(/*indent=*/2) + "\n") ||
      !write_text_file(prom_path, view.prometheus_text())) {
    std::fprintf(stderr, "aropuf_shard: warning: could not write fleet observability artifacts\n");
  } else if (!opt.quiet) {
    std::printf("aropuf_shard: fleet timeline %s, metrics %s + %s (trace_id %s)\n",
                trace_path.c_str(), metrics_path.c_str(), prom_path.c_str(), trace_id.c_str());
    std::fflush(stdout);
  }
  return summary.ok;
}

// --- study -------------------------------------------------------------------

int run_study(const Options& opt) {
  std::error_code mkdir_error;
  std::filesystem::create_directories(opt.out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "aropuf_shard: cannot create output directory %s: %s\n",
                 opt.out_dir.c_str(), mkdir_error.message().c_str());
    return 1;
  }
  const ShardStudyConfig cfg = study_config(opt);
  const telemetry::RawSeriesPolicy policy = opt.drop_raw
                                                ? telemetry::RawSeriesPolicy::kDropAfterCheck
                                                : telemetry::RawSeriesPolicy::kKeep;
  // Streaming fold: each shard folds the moment it lands, so the builder
  // keeps only the out-of-order window, never the whole population.
  telemetry::AggregateBuilder builder(policy);
  const LandShardFn land = [&](int shard, std::string bytes, const std::string& origin) {
    const std::string path = shard_manifest_path(opt, shard);
    if (!write_text_file(path, bytes)) {
      std::fprintf(stderr, "aropuf_shard: warning: could not persist shard %d to %s\n", shard,
                   path.c_str());
    }
    builder.add(telemetry::decode_shard_input(std::move(bytes), origin));
  };

  std::vector<int> todo;
  const JsonValue config_echo = study_config_json(cfg);
  for (int k = 0; k < opt.shards; ++k) {
    const std::string path = shard_manifest_path(opt, k);
    std::string why;
    if (opt.resume && telemetry::shard_manifest_is_valid(path, opt.run, k, opt.shards,
                                                         config_echo, &why)) {
      try {
        builder.add(telemetry::load_shard_input(path));
        std::printf("shard %d: valid manifest found, skipping (resume)\n", k);
        continue;
      } catch (const std::exception& e) {
        why = std::string("existing manifest would not fold: ") + e.what();
      }
    }
    if (opt.resume) std::printf("shard %d: re-running (%s)\n", k, why.c_str());
    todo.push_back(k);
  }
  std::fflush(stdout);

  const int resumed = opt.shards - static_cast<int>(todo.size());
  const bool ok = todo.empty() || (opt.listen_port >= 0 ? run_coordinator(opt, todo, resumed, land)
                                                        : run_in_process(opt, cfg, todo, resumed, land));
  if (!ok) {
    std::fprintf(stderr, "aropuf_shard: run failed; no aggregate manifest written\n");
    return 1;
  }

  // The peak window size is the measurable bounded-memory claim (CI asserts
  // peak < total).
  std::printf(
      "stream: folded %d/%d shards as they landed; raw-series window peak %zu of %zu values "
      "(policy %s)\n",
      builder.shards_added(), opt.shards, builder.peak_buffered_values(),
      builder.reduced_values(), opt.drop_raw ? "drop_after_check" : "keep");
  telemetry::AggregateResult merged;
  try {
    merged = builder.finalize();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_shard: aggregation failed: %s\n", e.what());
    return 1;
  }
  merged.manifest.as_object()["study"] = build_study_section(merged.manifest, cfg);

  const std::string merged_path = opt.out_dir + "/merged.manifest.json";
  if (!telemetry::write_aggregate_manifest(merged_path, merged.manifest)) {
    // Name the path on stderr unconditionally (the telemetry error log can be
    // suppressed) and abort: a truncated aggregate must never reach the
    // conflict scan or --check-single.
    std::fprintf(stderr, "aropuf_shard: failed to write aggregate manifest to %s\n",
                 merged_path.c_str());
    return 1;
  }
  std::printf("aropuf_shard: merged manifest written to %s\n", merged_path.c_str());

  if (!merged.conflicts.empty()) {
    for (const telemetry::AggregateConflict& c : merged.conflicts) {
      std::fprintf(stderr, "aropuf_shard: provenance conflict on '%s' across shards:\n",
                   c.field.c_str());
      for (const auto& [shard, value] : c.values) {
        std::fprintf(stderr, "    shard %d: %s\n", shard, value.c_str());
      }
    }
    return 1;
  }

  if (opt.check_single && !check_merged_against_single(cfg, opt.run, merged.manifest, policy)) {
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_args(argc, argv, &opt); rc != 0) return rc;
  if (opt.threads > 0) ParallelExecutor::set_global_thread_count(opt.threads);
  // The orchestrator and every worker profile themselves (AROPUF_PROF_RESOURCE
  // supports a %p pid placeholder so workers on one host don't clobber one
  // timeline).  Worker "prof.*" metrics also travel home inside METRICS
  // snapshots.
  telemetry::start_process_profile();
  const int rc = !opt.worker_spec.empty() ? run_worker_mode(opt) : run_study(opt);
  const bool prof_ok = telemetry::stop_process_profile();
  return rc != 0 ? rc : (prof_ok ? 0 : 1);
}
