// Shared setup for the experiment benches: the standard Monte Carlo
// population used throughout EXPERIMENTS.md, command-line knobs for the
// parallel engine, and a banner helper.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "sim/csv.hpp"
#include "sim/parallel.hpp"
#include "sim/scenarios.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/prof.hpp"

namespace aropuf::bench {

/// Knobs shared by every experiment binary.
struct Options {
  int threads = 0;  ///< 0 = AROPUF_THREADS / hardware default
  int chips = 40;   ///< population size: --chips, else the bench's default
};

inline Options& options() {
  static Options opts;
  return opts;
}

/// Parses --threads=N / --threads N (worker count for the Monte Carlo
/// engine) and --chips=N / --chips N (population size; `default_chips` when
/// absent).  Unknown arguments are ignored so binaries stay drop-in.
/// Results are deterministic for a given population regardless of --threads.
inline void parse_args(int argc, char** argv, int default_chips = 40) {
  options().chips = default_chips;
  cli::Parser parser(argc > 0 ? argv[0] : "bench",
                     "ARO-PUF experiment bench (see EXPERIMENTS.md)");
  parser
      .opt_int("--threads", &options().threads, "N",
               "Monte Carlo worker threads (default: AROPUF_THREADS or hardware)", 1)
      .opt_int("--chips", &options().chips, "N",
               "population size (default: " + std::to_string(default_chips) + " chips)", 1)
      .allow_unknown()
      .with_env_help();
  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kHelp:
      std::exit(0);
    case cli::ParseStatus::kError:
      std::exit(2);
    case cli::ParseStatus::kOk:
      break;
  }
  if (options().threads > 0) ParallelExecutor::set_global_thread_count(options().threads);
  // Env-driven (AROPUF_PROF / AROPUF_PROF_RESOURCE): whole-run hardware
  // counters + resource sampler; per-stage deltas land in the manifest and
  // the totals in its "profile" section.  No-op when profiling is off.
  telemetry::start_process_profile();
}

/// The reference population every E-bench uses (seed printed so results are
/// traceable; see DESIGN.md §5 for the calibration behind the constants).
/// Its size is the one parse_args settled on, so the banner and the
/// manifest's config.chips report the population the bench ran (the seed and
/// per-chip streams do not depend on it: chips 0..N-1 are the same dies at
/// any size).
inline PopulationConfig standard_population() {
  PopulationConfig pop;
  pop.tech = TechnologyParams::cmos90();
  pop.chips = options().chips;
  pop.seed = 2014;
  return pop;
}

/// End-of-run hook every bench main returns through: closes the CSV (if one
/// was open), writes the run manifest (AROPUF_MANIFEST path if set, else
/// next to the CSV in ARO_CSV_DIR), and flushes any active trace session.
/// Non-zero when any output artifact failed to land — a silent half-written
/// CSV must fail the job, not just print a table.
inline int finish(const char* run_name, std::optional<CsvWriter>* csv = nullptr) {
  bool ok = true;
  if (csv != nullptr && csv->has_value()) ok = (*csv)->close() && ok;
  const PopulationConfig pop = standard_population();
  JsonValue::Object config;
  config["chips"] = JsonValue(pop.chips);
  config["seed"] = JsonValue(pop.seed);
  config["technology"] = JsonValue(pop.tech.name);
  std::string fallback;
  if (const char* dir = cli::env_value("ARO_CSV_DIR")) {
    fallback = std::string(dir) + "/" + run_name + ".manifest.json";
  }
  // Freeze profile totals (and close the resource timeline) before the
  // manifest snapshots them; a failed timeline write fails the run like a
  // failed CSV does.
  ok = telemetry::stop_process_profile() && ok;
  ok = telemetry::finalize_run(run_name, JsonValue(std::move(config)), fallback) && ok;
  return ok ? 0 : 1;
}

inline void banner(const char* experiment, const char* paper_artifact) {
  const PopulationConfig pop = standard_population();
  std::printf("\n################################################################\n");
  std::printf("# %s\n", experiment);
  std::printf("# reproduces: %s\n", paper_artifact);
  std::printf("# technology %s, %d chips, master seed %llu, %d threads\n",
              pop.tech.name.c_str(), pop.chips,
              static_cast<unsigned long long>(pop.seed),
              ParallelExecutor::global().thread_count());
  std::printf("################################################################\n");
}

}  // namespace aropuf::bench
