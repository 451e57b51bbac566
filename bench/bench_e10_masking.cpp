// E10 (extension) — stability screening (dark-bit masking) vs aging.
//
// Screening masks the measurement-noise/environmental error floor at
// enrollment; it cannot predict stochastic aging.  This bench quantifies
// both halves: masked vs unmasked BER at year 0 (noise only) and year 10
// (aging dominated), for both designs — and the resulting ECC area.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "ecc/code_search.hpp"

int main(int argc, char** argv) {
  // Screening is 16 reads per chip; a 25-chip default keeps the bench snappy.
  aropuf::bench::parse_args(argc, argv, /*default_chips=*/25);
  using namespace aropuf;
  bench::banner("E10: stability screening (dark-bit masking)",
                "extension — masked vs unmasked BER and ECC impact");

  const PopulationConfig pop = bench::standard_population();

  Table table("screening with 3 reads at 5 corners (nominal, hot, cold, low/high VDD)");
  table.set_header({"design", "years", "stable bits %", "unmasked BER %", "masked BER %"});
  for (const auto& cfg : {PufConfig::conventional(), PufConfig::aro()}) {
    for (const double years : {0.0, 10.0}) {
      const auto r = run_masking_study(pop, cfg, /*full_corners=*/true, /*repeats=*/3, years);
      table.add_row({cfg.label, Table::num(years, 0), Table::num(r.stable_fraction * 100.0, 1),
                     Table::num(r.unmasked_ber * 100.0, 2), Table::num(r.masked_ber * 100.0, 2)});
    }
  }
  table.print(std::cout);

  // ECC impact: rerun the E7-style search at the masked ARO error rate.
  const auto masked = run_masking_study(pop, PufConfig::aro(), true, 3, 10.0);
  const CodeSearchConstraints constraints;
  const auto plain = find_min_area_scheme(pop.tech, masked.unmasked_ber * 1.4, constraints);
  const auto with_mask = find_min_area_scheme(pop.tech, masked.masked_ber * 1.4, constraints);
  if (plain.has_value() && with_mask.has_value()) {
    std::cout << "\nECC area for the ARO design (BER + 40% provisioning margin):\n"
              << "  without masking: " << Table::num(plain->area.total_ge() / 1000.0, 1)
              << " kGE (rep-" << plain->scheme.repetition << ", t=" << plain->scheme.bch_t
              << ")\n"
              << "  with masking:    " << Table::num(with_mask->area.total_ge() / 1000.0, 1)
              << " kGE (rep-" << with_mask->scheme.repetition
              << ", t=" << with_mask->scheme.bch_t << ")\n";
  }

  std::cout << "\nshape check: masking erases the year-0 noise floor and trims the\n"
               "aged BER (marginal pairs are both noisy and aging-fragile), but the\n"
               "bulk of the 10-year conventional damage is unscreenable stochastic\n"
               "aging — gating, not masking, is the aging fix.\n";
  return bench::finish("e10_masking");
}
