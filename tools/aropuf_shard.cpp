// aropuf_shard: orchestrator for the sharded E2+E3 population study.
//
// The chip population splits into --shards seed-range shards (sim/shard_study).
// The shards run one after another in this process, each on the process-wide
// thread pool.  Each shard's manifest container is persisted into --out,
// decoded, and folded into one AggregateBuilder as it lands.  --resume folds
// the shards whose manifest on disk still validates (run name, shard
// coordinates, study config) and runs only the rest; when nothing is missing
// no shard runs.  A shard that throws ends the run, and --resume then re-runs
// only the shards that are missing.  The merged manifest plus the ECC/area
// study section derived from it land in --out/merged.manifest.json.
//
// Exit codes: 0 success; 1 failed shards, fold errors, provenance conflicts
// or write errors; 2 usage error; 3 --check-single mismatch (the merged
// statistics differ from a single-process run — a determinism regression,
// never acceptable).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "sim/shard_study.hpp"
#include "sim/study_report.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof.hpp"
#include "telemetry/progress.hpp"

namespace {

using namespace aropuf;
using Clock = std::chrono::steady_clock;

struct Options {
  // Study parameters.
  int chips = 40;
  std::uint64_t seed = 2014;
  std::vector<double> checkpoints = {1.0, 2.0, 5.0, 10.0};
  std::string run = "shard_study";
  std::string format = "binary";  ///< shard manifest transport: "binary" or "json"

  // Orchestration.
  int shards = 4;
  std::string out_dir = "shard-run";
  bool resume = false;
  bool drop_raw = false;
  bool check_single = false;
  bool quiet = false;
  int threads = 0;  ///< pool threads of this process; 0 = library default
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
      .opt_string("--out", &opt->out_dir, "DIR", "output directory (default shard-run)")
      .flag("--resume", &opt->resume, "fold shards whose manifest already validates; run the rest")
      .opt_string("--format", &opt->format, "FMT",
                  "shard manifest transport: binary or json (default binary)")
      .flag("--drop-raw", &opt->drop_raw,
            "drop raw per-chip series once reduced (aggregate omits them)")
      .flag("--check-single", &opt->check_single, "verify merged results == single-process run")
      .flag("--quiet", &opt->quiet, "suppress per-shard narration")
      .opt_int("--threads", &opt->threads, "T",
               "pool threads of this process (default: library default)", 1)
      .with_env_help();

  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kHelp:
      std::exit(0);
    case cli::ParseStatus::kError:
      return 2;
    case cli::ParseStatus::kOk:
      break;
  }
  if (opt->format != "binary" && opt->format != "json") {
    std::fprintf(stderr, "aropuf_shard: --format must be binary or json\n");
    return 2;
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

/// Study-wide progress in shard units: resumed shards are complete before
/// the run starts and are the ETA baseline, so the estimate reflects only
/// the rate of work done in this run.
class StudyProgress {
 public:
  StudyProgress(int shards, int resumed) : shards_(shards), t0_(Clock::now()) {
    eta_.add_baseline(resumed);
  }

  /// "<f>/<N> shards | <p>% | elapsed <e>s[ | eta <t>s]", where `finished`
  /// counts finished shards, resumed ones included.
  [[nodiscard]] std::string line(int finished) const {
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0_).count();
    const double eta = eta_.eta_seconds(finished, shards_, elapsed);
    char text[128];
    std::snprintf(text, sizeof text, "%d/%d shards | %.0f%% | elapsed %.1fs", finished, shards_,
                  100.0 * finished / shards_, elapsed);
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

  // Each shard runs on the whole thread pool.  run_shard_job resets the
  // process-wide telemetry before each shard, so each shard produces an
  // honest per-shard manifest.  The container is written before the fold
  // (the bytes a shard leaves on disk for --resume and for inspection), so a
  // failed run leaves evidence; a write failure is advisory, the in-memory
  // fold is authoritative.
  const int resumed = opt.shards - static_cast<int>(todo.size());
  const StudyProgress progress(opt.shards, resumed);
  int folded = resumed;
  for (const int shard : todo) {
    try {
      std::string bytes = run_shard_job(cfg, shard, opt.shards, opt.run, opt.format == "binary");
      const std::string path = shard_manifest_path(opt, shard);
      if (!write_text_file(path, bytes)) {
        std::fprintf(stderr, "aropuf_shard: warning: could not persist shard %d to %s\n", shard,
                     path.c_str());
      }
      builder.add(telemetry::decode_shard_input(std::move(bytes), "in-process"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aropuf_shard: shard %d failed: %s\n", shard, e.what());
      std::fprintf(stderr, "aropuf_shard: run failed; no aggregate manifest written\n");
      return 1;
    }
    ++folded;
    if (!opt.quiet) {
      std::printf("shard %d: folded (in-process) | %s\n", shard, progress.line(folded).c_str());
      std::fflush(stdout);
    }
  }
  if (!todo.empty()) {
    telemetry::reset_run_record();
    telemetry::MetricsRegistry::global().reset();
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
  telemetry::start_process_profile();
  const int rc = run_study(opt);
  const bool prof_ok = telemetry::stop_process_profile();
  return rc != 0 ? rc : (prof_ok ? 0 : 1);
}
