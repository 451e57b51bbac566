#include "puf/pairing.hpp"

#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace aropuf {

std::size_t pairing_bits(PairingStrategy s, int num_ros) {
  ARO_REQUIRE(num_ros >= 2, "pairing needs at least two ROs");
  switch (s) {
    case PairingStrategy::kAdjacentDedicated:
    case PairingStrategy::kDistantDedicated:
    case PairingStrategy::kRandomChallenge:
      return static_cast<std::size_t>(num_ros / 2);
    case PairingStrategy::kChainNeighbor:
      return static_cast<std::size_t>(num_ros - 1);
  }
  return 0;
}

std::vector<std::pair<int, int>> make_pairs(PairingStrategy s, int num_ros,
                                            std::uint64_t seed) {
  ARO_REQUIRE(num_ros >= 2, "pairing needs at least two ROs");
  std::vector<std::pair<int, int>> pairs;
  switch (s) {
    case PairingStrategy::kAdjacentDedicated: {
      ARO_REQUIRE(num_ros % 2 == 0, "dedicated pairing needs an even RO count");
      pairs.reserve(static_cast<std::size_t>(num_ros / 2));
      for (int i = 0; i + 1 < num_ros; i += 2) pairs.emplace_back(i, i + 1);
      break;
    }
    case PairingStrategy::kDistantDedicated: {
      ARO_REQUIRE(num_ros % 2 == 0, "dedicated pairing needs an even RO count");
      const int half = num_ros / 2;
      pairs.reserve(static_cast<std::size_t>(half));
      for (int i = 0; i < half; ++i) pairs.emplace_back(i, i + half);
      break;
    }
    case PairingStrategy::kChainNeighbor: {
      pairs.reserve(static_cast<std::size_t>(num_ros - 1));
      for (int i = 0; i + 1 < num_ros; ++i) pairs.emplace_back(i, i + 1);
      break;
    }
    case PairingStrategy::kRandomChallenge: {
      ARO_REQUIRE(num_ros % 2 == 0, "random matching needs an even RO count");
      std::vector<int> order(static_cast<std::size_t>(num_ros));
      std::iota(order.begin(), order.end(), 0);
      Xoshiro256 rng(seed);
      // Fisher-Yates, then consecutive elements form the matching.
      for (std::size_t i = order.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.bounded(i));
        std::swap(order[i - 1], order[j]);
      }
      pairs.reserve(static_cast<std::size_t>(num_ros / 2));
      for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
        pairs.emplace_back(order[i], order[i + 1]);
      }
      break;
    }
  }
  ARO_ASSERT(pairs.size() == pairing_bits(s, num_ros), "pairing size mismatch");
  return pairs;
}

}  // namespace aropuf
