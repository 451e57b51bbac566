// Pairing strategies: which two ROs produce each response bit.
//
// The strategy is one of the two levers separating the ARO-PUF from the
// conventional design (the other is the stress profile):
//
//  * kAdjacentDedicated — (2i, 2i+1): each bit comes from two physically
//    adjacent ROs, so spatially-smooth systematic variation cancels.  The
//    ARO-PUF layout discipline; inter-chip HD ≈ 50 %.
//  * kDistantDedicated — (i, i + n/2): pairs span half the array, picking up
//    the die-independent layout systematics.  The conventional baseline;
//    inter-chip HD ≈ 45 %.
//  * kChainNeighbor — (i, i+1), overlapping: n−1 bits from n ROs but with
//    strong inter-bit correlation (used in the entropy study).
//  * kRandomChallenge — a challenge-seeded random perfect matching; models
//    challenge-response usage rather than fixed key generation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace aropuf {

enum class PairingStrategy {
  kAdjacentDedicated,
  kDistantDedicated,
  kChainNeighbor,
  kRandomChallenge,
};

/// Number of response bits the strategy yields for `num_ros` oscillators.
[[nodiscard]] std::size_t pairing_bits(PairingStrategy s, int num_ros);

/// Builds the index pairs.  `seed` is used only by kRandomChallenge.
[[nodiscard]] std::vector<std::pair<int, int>> make_pairs(PairingStrategy s, int num_ros,
                                                          std::uint64_t seed = 0);

}  // namespace aropuf
