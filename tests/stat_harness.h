// Statistical checks shared by the test suites.
//
// The repo's correctness discipline for every simulation engine is the
// same: it must measure the same distribution as the agent array, which
// runs the uniform random scheduler literally, checked as overlapping
// confidence intervals over independent seeds. That check runs in one
// place, tests/equivalence_table_test.cpp: one row per (cell, candidate
// engine), all under one family widening computed from the table's size.
// The helpers here:
//
//   family_widen(k)        - Bonferroni widening for k simultaneous
//                            CI-overlap checks: each pairwise check uses
//                            z_{1 - 0.025/k}/z_{0.975}-widened intervals,
//                            holding the whole family's false-alarm rate
//                            near the single-test 5%
//   expect_overlapping_ci  - the overlap assertion itself (also used
//                            against an analytic value, committed
//                            acceptance data, and an unregistered
//                            protocol in tests/batch_simulation_test.cpp)
//   chi2_critical          - upper ~0.001 chi-square quantile
//                            (Wilson-Hilferty), the significance the repo's
//                            goodness-of-fit tests standardize on
//   expect_matches_pmf     - chi-square GOF of a sample vector against an
//                            arbitrary closed-form pmf, with small-bin
//                            merging (shared by the discrete-sampler and
//                            topology-sampling suites)
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stats.h"

namespace ppsim {
namespace stat_harness {

// Inverse standard normal cdf (Acklam's rational approximation; absolute
// error < 1.2e-8 over (0, 1), far below what a widening factor needs).
inline double inverse_normal_cdf(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw std::invalid_argument("inverse_normal_cdf needs p in (0, 1)");
  constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                          -2.759285104469687e+02, 1.383577518672690e+02,
                          -3.066479806614716e+01, 2.506628277459239e+00};
  constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                          -1.556989798598866e+02, 6.680131188771972e+01,
                          -1.328068155288572e+01};
  constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                          -2.400758277161838e+00, -2.549732539343734e+00,
                          4.374664141464968e+00,  2.938163982698783e+00};
  constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                          2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) return -inverse_normal_cdf(1.0 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// Widening factor for a family of `comparisons` simultaneous CI-overlap
// checks (1.0 for a single check; ~1.31 for 5, ~1.70 for 60).
inline double family_widen(std::size_t comparisons) {
  if (comparisons <= 1) return 1.0;
  return inverse_normal_cdf(1.0 - 0.025 / static_cast<double>(comparisons)) /
         1.959963984540054;
}

// The cross-engine acceptance check: the two summaries' (widened) 95%
// confidence intervals on the mean must overlap.
inline void expect_overlapping_ci(const Summary& a, const Summary& b,
                                  const std::string& what,
                                  double widen = 1.0) {
  const double lo_a = a.mean - widen * a.ci95;
  const double hi_a = a.mean + widen * a.ci95;
  const double lo_b = b.mean - widen * b.ci95;
  const double hi_b = b.mean + widen * b.ci95;
  EXPECT_LE(lo_a, hi_b) << what << ": CIs disjoint: [" << lo_a << ", "
                        << hi_a << "] vs [" << lo_b << ", " << hi_b << "]";
  EXPECT_LE(lo_b, hi_a) << what << ": CIs disjoint: [" << lo_a << ", "
                        << hi_a << "] vs [" << lo_b << ", " << hi_b << "]";
}

// Upper ~0.001 quantile of chi-square with df degrees of freedom
// (Wilson-Hilferty approximation; accurate to a few percent for df >= 3,
// which only makes the tests slightly conservative or slightly lax — fixed
// seeds keep them deterministic either way).
inline double chi2_critical(double df) {
  const double z = 3.09;  // standard normal upper 0.001 quantile
  const double t = 1.0 - 2.0 / (9.0 * df) + z * std::sqrt(2.0 / (9.0 * df));
  return df * t * t * t;
}

// Chi-square against an arbitrary pmf over [0, support]: bins with expected
// count < 8 are merged into their neighbor toward the mode, so the
// asymptotic chi-square approximation holds.
inline void expect_matches_pmf(
    const std::vector<std::uint64_t>& samples, std::uint64_t support_max,
    const std::function<double(std::uint64_t)>& pmf, const char* label) {
  const double n = static_cast<double>(samples.size());
  std::vector<double> observed(support_max + 2, 0.0);
  for (std::uint64_t s : samples) {
    ASSERT_LE(s, support_max) << label << ": sample beyond support";
    observed[s] += 1.0;
  }
  std::vector<double> expected(support_max + 2, 0.0);
  double mass = 0.0;
  for (std::uint64_t k = 0; k <= support_max; ++k) {
    expected[k] = n * pmf(k);
    mass += pmf(k);
  }
  ASSERT_NEAR(mass, 1.0, 1e-9) << label << ": pmf does not sum to 1";

  // Merge small-expectation bins left to right, then fold the remainder
  // into the last kept bin.
  std::vector<double> obs_bins, exp_bins;
  double o = 0.0, e = 0.0;
  for (std::uint64_t k = 0; k <= support_max; ++k) {
    o += observed[k];
    e += expected[k];
    if (e >= 8.0) {
      obs_bins.push_back(o);
      exp_bins.push_back(e);
      o = e = 0.0;
    }
  }
  if (e > 0.0 && !exp_bins.empty()) {
    obs_bins.back() += o;
    exp_bins.back() += e;
  }
  ASSERT_GE(exp_bins.size(), 3u) << label << ": too few bins";
  double chi2 = 0.0;
  for (std::size_t i = 0; i < exp_bins.size(); ++i) {
    const double d = obs_bins[i] - exp_bins[i];
    chi2 += d * d / exp_bins[i];
  }
  const double df = static_cast<double>(exp_bins.size()) - 1.0;
  EXPECT_LE(chi2, chi2_critical(df))
      << label << ": chi2 = " << chi2 << " over " << exp_bins.size()
      << " bins (critical " << chi2_critical(df) << ")";
}

}  // namespace stat_harness
}  // namespace ppsim
