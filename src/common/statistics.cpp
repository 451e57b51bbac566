#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/special_functions.hpp"

namespace aropuf {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

RunningStats RunningStats::from_moments(std::size_t n, double mean, double m2, double min,
                                        double max) noexcept {
  RunningStats s;
  if (n == 0) return s;
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = min;
  s.max_ = max;
  return s;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  ARO_REQUIRE(hi > lo, "histogram range must be non-empty");
  ARO_REQUIRE(bins > 0, "histogram needs at least one bin");
  counts_.assign(bins, 0);
}

void Histogram::add(double x, std::size_t n) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += n;
  total_ += n;
}

std::size_t Histogram::count(std::size_t bin) const {
  ARO_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_width() const noexcept {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t bin) const {
  ARO_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width();
}

double Histogram::fraction(std::size_t bin) const {
  ARO_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::vector<std::string> Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::vector<std::string> lines;
  lines.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar_len =
        static_cast<std::size_t>(std::llround(static_cast<double>(counts_[i]) /
                                              static_cast<double>(peak) *
                                              static_cast<double>(width)));
    std::string line(bar_len, '#');
    lines.push_back(std::move(line));
  }
  return lines;
}

double percentile(std::span<const double> samples, double p) {
  ARO_REQUIRE(!samples.empty(), "percentile of empty sample set");
  ARO_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double log_binomial_coefficient(std::uint64_t n, std::uint64_t k) {
  ARO_REQUIRE(k <= n, "binomial coefficient requires k <= n");
  return log_gamma(static_cast<double>(n) + 1.0) - log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_pmf(std::uint64_t n, std::uint64_t k, double p) {
  ARO_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0, 1]");
  ARO_REQUIRE(k <= n, "binomial pmf requires k <= n");
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_tail_greater(std::uint64_t n, std::uint64_t k, double p) {
  ARO_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0, 1]");
  if (k >= n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Sum from the smaller side for accuracy.  The tail P[X > k] is summed
  // directly when it is the short side; otherwise compute 1 - P[X <= k].
  const double mean = static_cast<double>(n) * p;
  if (static_cast<double>(k) >= mean) {
    // Right tail is small: sum upward with early exit once terms vanish.
    double total = 0.0;
    for (std::uint64_t i = k + 1; i <= n; ++i) {
      const double term = binomial_pmf(n, i, p);
      total += term;
      if (term < total * 1e-18 && term > 0.0) break;
      if (term == 0.0 && total > 0.0) break;
    }
    return std::min(total, 1.0);
  }
  // Left side is the short one: 1 - P[X <= k].
  double cdf = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) cdf += binomial_pmf(n, i, p);
  return std::clamp(1.0 - cdf, 0.0, 1.0);
}

}  // namespace aropuf
