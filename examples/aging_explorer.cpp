// Aging explorer: a what-if CLI over usage profiles.
//
// How hard can you use an ARO-PUF before gating stops saving you?  Sweep
// evaluations-per-day across six orders of magnitude and watch the 10-year
// flip rate climb from the noise floor back toward the conventional value.
//
//   $ ./aging_explorer [--years Y] [--chips N]   (defaults: 10 years, 15 chips)
//   $ ./aging_explorer --config examples/population.json [--years Y]
//
// With --config, the population (technology overrides, chip count, seed)
// comes from a JSON file; see src/sim/experiment_config.hpp for the schema.
// An unreadable or invalid file exits 1 with "config error".
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/experiment_config.hpp"
#include "sim/scenarios.hpp"
#include "telemetry/manifest.hpp"

int main(int argc, char** argv) {
  using namespace aropuf;
  PopulationConfig pop;
  pop.chips = 15;
  pop.seed = 11;
  double lifetime = 10.0;
  int chips = 0;  // 0 = keep the population default
  std::string config_path;

  cli::Parser parser("aging_explorer",
                     "10-year flip rate vs usage intensity for the gated ARO design");
  parser.opt_double("--years", &lifetime, "Y", "deployment lifetime in years", 0.0)
      .opt_int("--chips", &chips, "N", "population size (>= 2)", 0)
      .opt_string("--config", &config_path, "FILE", "population config JSON")
      .with_env_help();
  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kOk: break;
    case cli::ParseStatus::kHelp: return 0;
    case cli::ParseStatus::kError: return 2;
  }
  if (!config_path.empty()) {
    try {
      pop = load_population_config(config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "config error: %s\n", e.what());
      return 1;
    }
  }
  if (chips > 0) pop.chips = chips;
  if (lifetime <= 0.0 || pop.chips < 2) {
    std::fprintf(stderr, "aging_explorer: need --years > 0 and a population of >= 2 chips\n");
    return 2;
  }

  const double checkpoints[] = {lifetime};
  Table table("ARO-PUF flips after " + Table::num(lifetime, 0) +
              " years vs usage intensity (10 ms oscillation per evaluation)");
  table.set_header({"evaluations/day", "duty factor", "mean flips %", "worst chip %"});

  for (const double evals_per_day : {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 8.64e6}) {
    PufConfig cfg = PufConfig::aro();
    cfg.lifetime_profile = StressProfile::aro_gated(evals_per_day, 10e-3);
    cfg.label = "aro-sweep";
    const auto series = run_aging_series(pop, cfg, checkpoints);
    char duty[32];
    std::snprintf(duty, sizeof duty, "%.1e", cfg.lifetime_profile.oscillation_fraction);
    table.add_row({Table::num(evals_per_day, 0), duty,
                   Table::num(series.mean_flip_percent[0], 2),
                   Table::num(series.max_flip_percent[0], 2)});
  }

  // Reference: the conventional always-on design on the same silicon.
  const auto conv = run_aging_series(pop, PufConfig::conventional(), checkpoints);
  table.add_row({"(conventional, always on)", "1.0e+00",
                 Table::num(conv.mean_flip_percent[0], 2),
                 Table::num(conv.max_flip_percent[0], 2)});
  table.print(std::cout);
  return telemetry::finalize_run("aging_explorer", JsonValue(JsonValue::Object{})) ? 0 : 1;
}
