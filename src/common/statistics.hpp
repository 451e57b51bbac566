// Streaming statistics, histograms, and binomial tail probabilities.
//
// RunningStats implements Welford's online algorithm so population metrics
// (inter-chip HD over ~half a million pairs) accumulate without storing
// samples.  The binomial tail helpers work in log space so the ECC search can
// evaluate key-failure probabilities down to 1e-30 without underflow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace aropuf {

/// Welford online mean/variance/min/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  /// Reconstructs an accumulator from serialized moments (the shard-merge
  /// path: manifests carry n/mean/m2/min/max, the aggregator rebuilds the
  /// accumulator and merges with merge()).  `m2` is the raw sum of squared
  /// deviations, i.e. variance() * (n - 1) — exact round trip, unlike
  /// reconstructing from stddev.
  [[nodiscard]] static RunningStats from_moments(std::size_t n, double mean, double m2,
                                                 double min, double max) noexcept;

  /// Raw second central moment (serialization counterpart of from_moments).
  [[nodiscard]] double m2() const noexcept { return m2_; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-range histogram with uniform bins; out-of-range samples clamp into
/// the first/last bin so totals always match the number of adds.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds `n` samples at `x`.
  void add(double x, std::size_t n = 1) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] double bin_width() const noexcept;
  /// Fraction of all samples falling in `bin` (0 if empty histogram).
  [[nodiscard]] double fraction(std::size_t bin) const;

  /// Renders a fixed-width ASCII bar chart (used by the bench reporters).
  [[nodiscard]] std::vector<std::string> ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exact percentile (linear interpolation) of a sample set; sorts a copy.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// log(n choose k) via log_gamma (special_functions.hpp).
[[nodiscard]] double log_binomial_coefficient(std::uint64_t n, std::uint64_t k);

/// Binomial PMF P[X = k] for X ~ Bin(n, p), computed in log space.
[[nodiscard]] double binomial_pmf(std::uint64_t n, std::uint64_t k, double p);

/// Upper binomial tail P[X > k] for X ~ Bin(n, p) (strictly greater).
/// Accurate for very small tails; used for ECC key-failure probability.
[[nodiscard]] double binomial_tail_greater(std::uint64_t n, std::uint64_t k, double p);

}  // namespace aropuf
