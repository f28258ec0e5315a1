// Statistical exactness tests for core/discrete_samplers.h.
//
// Every sampler is compared against its closed-form pmf with a chi-square
// goodness-of-fit test at significance ~1e-3 (Wilson-Hilferty critical
// value), on fixed seeds so the suite is deterministic. The binomial cases
// straddle the inversion/BTPE dispatch boundary n * min(p, 1-p) = 10 from
// both sides, and the hypergeometric cases cover all three branches —
// sequential inversion (sample < 10), mode-centered two-sided inversion
// (sd <= 32), HRUA (sd > 32) — straddling *both* dispatch boundaries from
// both sides, plus the large-sample reflection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/discrete_samplers.h"
#include "core/rng.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

using stat_harness::chi2_critical;
using stat_harness::expect_matches_pmf;

double log_choose(double n, double k) {
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double nd = static_cast<double>(n);
  const double kd = static_cast<double>(k);
  return std::exp(log_choose(nd, kd) + kd * std::log(p) +
                  (nd - kd) * std::log1p(-p));
}

double hypergeometric_pmf(std::uint64_t good, std::uint64_t bad,
                          std::uint64_t sample, std::uint64_t k) {
  if (k > good || k > sample || sample - k > bad) return 0.0;
  const double g = static_cast<double>(good);
  const double b = static_cast<double>(bad);
  const double s = static_cast<double>(sample);
  const double kd = static_cast<double>(k);
  return std::exp(log_choose(g, kd) + log_choose(b, s - kd) -
                  log_choose(g + b, s));
}

// --- log_gamma --------------------------------------------------------------

TEST(LogGamma, MatchesStdLgamma) {
  for (double x : {0.5, 1.0, 1.5, 2.0, 3.25, 7.0, 7.5, 10.0, 123.4, 1e4,
                   3.5e7}) {
    const double expect = std::lgamma(x);
    const double got = log_gamma(x);
    EXPECT_NEAR(got, expect, 1e-10 * std::max(1.0, std::fabs(expect)))
        << "x = " << x;
  }
}

// --- binomial ---------------------------------------------------------------

TEST(Binomial, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(sample_binomial(rng, 0, 0.3), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(sample_binomial(rng, 10, -0.1), std::invalid_argument);
  EXPECT_THROW(sample_binomial(rng, 10, 1.1), std::invalid_argument);
  EXPECT_EQ(sample_binomial(rng, 1, 0.5) <= 1, true);
}

struct BinomialCase {
  std::uint64_t n;
  double p;
  const char* label;
};

// Print a case as its label (see PoissonCase): the raw bytes include the
// label's address, which would make the registered test names unstable.
void PrintTo(const BinomialCase& c, std::ostream* os) { *os << c.label; }

class BinomialPmf : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialPmf, ChiSquareAgainstExactPmf) {
  const auto& c = GetParam();
  Rng rng(0xb1a5 + c.n);
  const std::uint32_t trials = 200'000;
  std::vector<std::uint64_t> xs(trials);
  for (auto& x : xs) x = sample_binomial(rng, c.n, c.p);
  expect_matches_pmf(
      xs, c.n, [&](std::uint64_t k) { return binomial_pmf(c.n, c.p, k); },
      c.label);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, BinomialPmf,
    ::testing::Values(
        // Inversion branch, small mean.
        BinomialCase{25, 0.3, "inversion n=25 p=0.3"},
        // Boundary: n * p = 9.96 stays on inversion...
        BinomialCase{119, 0.0837, "inversion boundary np=9.96"},
        // ...and n * p = 10.2 crosses into BTPE.
        BinomialCase{120, 0.085, "btpe boundary np=10.2"},
        // Deep BTPE.
        BinomialCase{1000, 0.37, "btpe n=1000 p=0.37"},
        // p > 1/2: the reflected inversion branch (n q = 6.8).
        BinomialCase{40, 0.83, "inversion reflected n=40 p=0.83"},
        // p > 1/2 reflected BTPE.
        BinomialCase{500, 0.9, "btpe reflected n=500 p=0.9"},
        // Symmetric center.
        BinomialCase{64, 0.5, "btpe n=64 p=0.5"}));

TEST(Binomial, LargeNMeanAndVariance) {
  Rng rng(7);
  const std::uint64_t n = 1'000'000;
  const double p = 0.3;
  const std::uint32_t trials = 20'000;
  double sum = 0.0, sum2 = 0.0;
  for (std::uint32_t i = 0; i < trials; ++i) {
    const double x = static_cast<double>(sample_binomial(rng, n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  const double expect_mean = static_cast<double>(n) * p;
  const double expect_var = expect_mean * (1.0 - p);
  const double se_mean = std::sqrt(expect_var / trials);
  EXPECT_NEAR(mean, expect_mean, 5.0 * se_mean);
  EXPECT_NEAR(var, expect_var, 0.05 * expect_var);
}

// --- hypergeometric ---------------------------------------------------------

TEST(Hypergeometric, EdgeCases) {
  Rng rng(2);
  EXPECT_EQ(sample_hypergeometric(rng, 5, 5, 0), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 0, 9, 4), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 9, 0, 4), 4u);
  EXPECT_EQ(sample_hypergeometric(rng, 6, 4, 10), 6u);
  EXPECT_THROW(sample_hypergeometric(rng, 3, 3, 7), std::invalid_argument);
}

struct HyperCase {
  std::uint64_t good, bad, sample;
  const char* label;
};

void PrintTo(const HyperCase& c, std::ostream* os) { *os << c.label; }

class HypergeometricPmf : public ::testing::TestWithParam<HyperCase> {};

TEST_P(HypergeometricPmf, ChiSquareAgainstExactPmf) {
  const auto& c = GetParam();
  Rng rng(0x9e0 + c.good * 31 + c.sample);
  const std::uint32_t trials = 200'000;
  std::vector<std::uint64_t> xs(trials);
  for (auto& x : xs) x = sample_hypergeometric(rng, c.good, c.bad, c.sample);
  const std::uint64_t hi = c.good < c.sample ? c.good : c.sample;
  expect_matches_pmf(
      xs, hi,
      [&](std::uint64_t k) {
        return hypergeometric_pmf(c.good, c.bad, c.sample, k);
      },
      c.label);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, HypergeometricPmf,
    ::testing::Values(
        // Sequential-inversion branch (sample < 10).
        HyperCase{7, 9, 5, "hyp good=7 bad=9 sample=5"},
        HyperCase{40, 3, 6, "hyp minority bad"},
        // First dispatch boundary from both sides: sample = 9 stays on
        // sequential inversion, sample = 10 crosses into two-sided.
        HyperCase{30, 40, 9, "hyp boundary sample=9"},
        HyperCase{30, 40, 10, "two-sided boundary sample=10"},
        // Two-sided branch (10 <= sample, sd <= 32).
        HyperCase{120, 200, 90, "two-sided 120/200/90"},
        HyperCase{60, 30, 40, "two-sided good majority"},
        HyperCase{2000, 2000, 400, "two-sided symmetric 2000/2000/400"},
        // Reflection: sample > popsize/2 (recursed sample lands two-sided).
        HyperCase{50, 40, 70, "reflected 50/40/70"},
        // Large population, batch-sized draw (the engine's regime;
        // sd ~ 5.3 => two-sided).
        HyperCase{5000, 95000, 600, "two-sided 5000/95000/600"},
        // Second dispatch boundary from both sides: sd ~ 31.7 stays on
        // two-sided, sd ~ 32.4 crosses into HRUA.
        HyperCase{100000, 100000, 4100, "two-sided sd just under cutoff"},
        HyperCase{100000, 100000, 4300, "hrua sd just over cutoff"},
        // Deep HRUA (sd ~ 38; larger populations overflow the reference
        // pmf's log_gamma accuracy, not the sampler's).
        HyperCase{150000, 150000, 6000, "hrua deep 150k/150k/6k"}));

// --- poisson ----------------------------------------------------------------

double poisson_pmf(double mean, std::uint64_t k) {
  if (mean == 0.0) return k == 0 ? 1.0 : 0.0;
  const double kd = static_cast<double>(k);
  return std::exp(kd * std::log(mean) - mean - log_gamma(kd + 1.0));
}

TEST(Poisson, EdgeCases) {
  Rng rng(3);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
  EXPECT_THROW(sample_poisson(rng, -0.5), std::invalid_argument);
  EXPECT_THROW(sample_poisson(rng, std::nan("")), std::invalid_argument);
  EXPECT_THROW(sample_poisson(rng, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

struct PoissonCase {
  double mean;
  const char* label;
};

// Print a case as its label. Without this gtest prints the raw bytes,
// which include the label's address; that address moves with every load
// of the binary, so the registered test names would not be stable.
void PrintTo(const PoissonCase& c, std::ostream* os) { *os << c.label; }

class PoissonPmf : public ::testing::TestWithParam<PoissonCase> {};

TEST_P(PoissonPmf, ChiSquareAgainstExactPmf) {
  const auto& c = GetParam();
  Rng rng(0x9015 + static_cast<std::uint64_t>(c.mean * 64.0));
  const std::uint32_t trials = 200'000;
  std::vector<std::uint64_t> xs(trials);
  for (auto& x : xs) x = sample_poisson(rng, c.mean);
  // Truncate the (infinite) support far enough out that the missing tail
  // is < 1e-9 of the mass and a 200k-trial sample cannot plausibly land
  // beyond it.
  const std::uint64_t hi = static_cast<std::uint64_t>(
      c.mean + 14.0 * std::sqrt(c.mean) + 30.0);
  expect_matches_pmf(
      xs, hi, [&](std::uint64_t k) { return poisson_pmf(c.mean, k); },
      c.label);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, PoissonPmf,
    ::testing::Values(
        // Inversion branch: tiny and moderate means (the tau engine's
        // per-category regime for rare interaction categories).
        PoissonCase{0.4, "inversion mean=0.4"},
        PoissonCase{3.2, "inversion mean=3.2"},
        // Dispatch boundary from both sides: mean 9.9 stays on inversion,
        // 10.1 crosses into PTRS.
        PoissonCase{9.9, "inversion boundary mean=9.9"},
        PoissonCase{10.1, "ptrs boundary mean=10.1"},
        // Deep PTRS.
        PoissonCase{40.0, "ptrs mean=40"},
        PoissonCase{320.0, "ptrs mean=320"}));

TEST(Poisson, LargeMeanAndVariance) {
  Rng rng(8);
  const double mean = 50'000.0;
  const std::uint32_t trials = 20'000;
  double sum = 0.0, sum2 = 0.0;
  for (std::uint32_t i = 0; i < trials; ++i) {
    const double x = static_cast<double>(sample_poisson(rng, mean));
    sum += x;
    sum2 += x * x;
  }
  const double got_mean = sum / trials;
  const double got_var = sum2 / trials - got_mean * got_mean;
  const double se_mean = std::sqrt(mean / trials);
  EXPECT_NEAR(got_mean, mean, 5.0 * se_mean);
  EXPECT_NEAR(got_var, mean, 0.05 * mean);
}

}  // namespace
}  // namespace ppsim
