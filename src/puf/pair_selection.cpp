#include "puf/pair_selection.hpp"

#include <cmath>

#include "circuit/measurement.hpp"
#include "common/check.hpp"

namespace aropuf {

SelectedPairs select_max_margin_pairs(const RoPuf& chip, int group_size, OperatingPoint op,
                                      Xoshiro256& noise_rng, int repeats) {
  ARO_REQUIRE(group_size >= 2, "groups need at least two ROs");
  ARO_REQUIRE(repeats >= 1, "need at least one measurement per RO");
  const int n = static_cast<int>(chip.oscillators().size());
  ARO_REQUIRE(n % group_size == 0, "RO count must be a multiple of the group size");

  const FrequencyCounter counter(chip.technology(), chip.config().measurement_window);
  SelectedPairs selection;
  selection.group_size = group_size;
  selection.pairs.reserve(static_cast<std::size_t>(n / group_size));

  const std::vector<double> freqs = chip.ro_frequencies(op);
  std::vector<double> mean_count(static_cast<std::size_t>(group_size));
  for (int base = 0; base < n; base += group_size) {
    for (int i = 0; i < group_size; ++i) {
      double total = 0.0;
      for (int r = 0; r < repeats; ++r) {
        total += static_cast<double>(
            counter.measure_frequency(freqs[static_cast<std::size_t>(base + i)], noise_rng));
      }
      mean_count[static_cast<std::size_t>(i)] = total / repeats;
    }
    std::pair<int, int> best{base, base + 1};
    double best_margin = -1.0;
    for (int i = 0; i < group_size; ++i) {
      for (int j = i + 1; j < group_size; ++j) {
        const double margin = std::fabs(mean_count[static_cast<std::size_t>(i)] -
                                        mean_count[static_cast<std::size_t>(j)]);
        if (margin > best_margin) {
          best_margin = margin;
          best = {base + i, base + j};
        }
      }
    }
    selection.pairs.push_back(best);
  }
  return selection;
}

BitVector evaluate_with_pairs(const RoPuf& chip, const SelectedPairs& selection,
                              OperatingPoint op, Xoshiro256& noise_rng) {
  ARO_REQUIRE(!selection.pairs.empty(), "empty pair selection");
  const auto n = static_cast<int>(chip.oscillators().size());
  const FrequencyCounter counter(chip.technology(), chip.config().measurement_window);
  const std::vector<double> freqs = chip.ro_frequencies(op);
  BitVector response(selection.pairs.size());
  for (std::size_t b = 0; b < selection.pairs.size(); ++b) {
    const auto [ia, ib] = selection.pairs[b];
    ARO_REQUIRE(ia >= 0 && ia < n && ib >= 0 && ib < n && ia != ib,
                "pair indices out of range");
    const auto ca = counter.measure_frequency(freqs[static_cast<std::size_t>(ia)], noise_rng);
    const auto cb = counter.measure_frequency(freqs[static_cast<std::size_t>(ib)], noise_rng);
    response.set(b, compare_counts(ca, cb));
  }
  return response;
}

}  // namespace aropuf
