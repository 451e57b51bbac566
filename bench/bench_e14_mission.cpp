// E14 (extension) — automotive mission profile.
//
// Real devices don't sit at one temperature: this bench ages both designs
// through a 2 h/day 85 C engine-on + 22 h/day 15 C parked cycle (exact
// multi-temperature accumulation via nominal-equivalent stress), for a
// 15-year automotive lifetime.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "sim/csv.hpp"

int main(int argc, char** argv) {
  aropuf::bench::parse_args(argc, argv, /*default_chips=*/25);
  using namespace aropuf;
  bench::banner("E14: automotive mission profile (15 years)",
                "extension — mixed-temperature lifetime");

  const PopulationConfig pop = bench::standard_population();
  const double checkpoints[] = {1.0, 3.0, 5.0, 10.0, 15.0};

  const auto conv = run_mission(pop, PufConfig::conventional(),
                                MissionProfile::automotive(false), checkpoints);
  const auto aro =
      run_mission(pop, PufConfig::aro(), MissionProfile::automotive(true), checkpoints);

  Table table("bits flipped on the automotive mission (%)");
  table.set_header({"years", "conventional mean", "conventional worst", "ARO mean",
                    "ARO worst"});
  auto csv = CsvWriter::for_bench("e14_mission");
  if (csv.has_value()) {
    csv->write_row({"years", "conv_mean", "conv_worst", "aro_mean", "aro_worst"});
  }
  for (std::size_t i = 0; i < conv.years.size(); ++i) {
    table.add_row({Table::num(conv.years[i], 0), Table::num(conv.mean_flip_percent[i], 2),
                   Table::num(conv.max_flip_percent[i], 2), Table::num(aro.mean_flip_percent[i], 2),
                   Table::num(aro.max_flip_percent[i], 2)});
    if (csv.has_value()) {
      csv->write_row({Table::num(conv.years[i], 1), Table::num(conv.mean_flip_percent[i], 4),
                      Table::num(conv.max_flip_percent[i], 4),
                      Table::num(aro.mean_flip_percent[i], 4),
                      Table::num(aro.max_flip_percent[i], 4)});
    }
  }
  table.print(std::cout);

  std::cout << "\nshape check: two hot engine-on hours per day outweigh the 22 cool\n"
               "parked hours (Arrhenius), leaving the always-on conventional design\n"
               "about as damaged as the constant-55C E2 regime — a third of its bits by\n"
               "year 15 — while the gated ARO stays in single digits for the whole\n"
               "automotive lifetime.\n";
  return bench::finish("e14_mission", &csv);
}
