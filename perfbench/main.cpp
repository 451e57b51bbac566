// aropuf_perfbench — the repository benchmark's binary.
//
//   aropuf_perfbench --workload <aging10y|shard_study|auth_threshold|auth_key>
//                    --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//   aropuf_perfbench --self-check
//
// Prints a provenance line, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// holding every metric the run measured.  perfbench/run.py builds this binary
// and selects the metric set BENCHMARK.json names for the run's mode.  With
// --setup-only the run stops after its set-up marker line and prints no
// result; run.py times set-up over such processes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "telemetry/prof.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aropuf_perfbench: %s\n"
               "usage: aropuf_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--setup-only]\n"
               "       aropuf_perfbench --self-check\n",
               why);
  std::exit(2);
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() != "0";
    } else if (arg == "--out-dir") {
      opts.out_dir = value();
    } else if (arg == "--setup-only") {
      opts.setup_only = true;
    } else if (arg == "--self-check") {
      self_check = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    if (self_check) {
      const bool studies = perfbench::self_check_studies();
      const bool auth = perfbench::self_check_auth();
      std::printf("{\"self_check\": %s}\n", studies && auth ? "true" : "false");
      return studies && auth ? 0 : 1;
    }
    if (!(opts.seconds > 0.0)) usage("--seconds must be positive");

    Outcome out;
    if (opts.workload == "aging10y") {
      out = perfbench::run_aging10y(opts);
    } else if (opts.workload == "shard_study") {
      out = perfbench::run_shard_study(opts);
    } else if (opts.workload == "auth_threshold") {
      out = perfbench::run_auth_threshold(opts);
    } else if (opts.workload == "auth_key") {
      out = perfbench::run_auth_key(opts);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    if (opts.setup_only) return out.correct ? 0 : 1;
    out.set("peak_rss_mb", static_cast<double>(aropuf::telemetry::peak_rss_kib()) / 1024.0,
            "MiB");
    out.set("error_frac",
            out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                              : 1.0,
            "fraction");
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_perfbench: %s\n", e.what());
    return 1;
  }
}
