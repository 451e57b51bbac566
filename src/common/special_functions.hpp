// Special functions needed by the NIST-lite randomness battery.
//
// The NIST SP 800-22 statistics report p-values through the complementary
// error function and the regularized upper incomplete gamma function; the
// standard library provides erfc but not igamc, so we implement the classic
// series/continued-fraction pair (Numerical Recipes style).
#pragma once

namespace aropuf {

/// ln|Γ(x)|.  std::lgamma also writes glibc's global `signgam`, a data race
/// when pool workers call it concurrently; on glibc this is lgamma_r (the
/// same algorithm, so the same bits), elsewhere std::lgamma.
[[nodiscard]] double log_gamma(double x) noexcept;

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
[[nodiscard]] double regularized_gamma_q(double a, double x);

/// Standard normal CDF Φ(x).
[[nodiscard]] double normal_cdf(double x);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 — ample for confidence-interval reporting).
[[nodiscard]] double normal_quantile(double p);

}  // namespace aropuf
