// Exact discrete samplers for the count-based backends, implemented
// here with no external dependencies:
//
//   sample_binomial          - inversion for small n*p, BTPE
//                              (Kachitvichyanukul & Schmeiser 1988) for
//                              large: an exact acceptance/rejection scheme
//                              whose triangle/parallelogram/exponential-tail
//                              envelope keeps the expected number of
//                              uniforms O(1) for any parameters
//   sample_hypergeometric    - sequential inversion (Fishman's HYP) for
//                              small samples, mode-centered two-sided
//                              inversion for mid-size draws with a small
//                              standard deviation, HRUA (Stadlober's
//                              ratio-of-uniforms with squeeze) for large
//
// sample_binomial and sample_hypergeometric have no engine caller; they are
// kept only for perfbench's kernel timings (kernel.binomial_ns,
// kernel.hypergeometric_ns) and go when that benchmark drops those columns.
//
// Every sampler consumes randomness only from the caller's Rng, so results
// are reproducible from (params, seed) like everything else in the repo.
// Exactness is validated against closed-form pmfs by chi-square tests in
// tests/discrete_samplers_test.cpp (both binomial branches, the n*p ~ 10
// boundary, both hypergeometric branches).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/rng.h"

namespace ppsim {

// log Gamma(x) for x > 0 via the Stirling asymptotic series (argument
// shifted above 7 first). Max relative error ~1e-14 over the range used
// here; self-contained and thread-safe, unlike std::lgamma which may write
// the global signgam.
inline double log_gamma(double x) {
  constexpr double kCoeffs[10] = {
      8.333333333333333e-02,  -2.777777777777778e-03, 7.936507936507937e-04,
      -5.952380952380952e-04, 8.417508417508418e-04,  -1.917526917526918e-03,
      6.410256410256410e-03,  -2.955065359477124e-02, 1.796443723688307e-01,
      -1.392432216905901e+00};
  constexpr double kTwoPi = 6.283185307179586477;
  if (x == 1.0 || x == 2.0) return 0.0;
  double x0 = x;
  int shift = 0;
  if (x <= 7.0) {
    shift = static_cast<int>(7.0 - x) + 1;
    x0 = x + shift;
  }
  const double inv2 = 1.0 / (x0 * x0);
  double series = kCoeffs[9];
  for (int k = 8; k >= 0; --k) series = series * inv2 + kCoeffs[k];
  double gl = series / x0 + 0.5 * std::log(kTwoPi) +
              (x0 - 0.5) * std::log(x0) - x0;
  for (int k = 0; k < shift; ++k) {
    x0 -= 1.0;
    gl -= std::log(x0);
  }
  return gl;
}

namespace detail {

// Binomial by inversion of the cdf via the pmf recurrence; exact, O(n*p)
// expected. Requires p <= 0.5 (the caller flips) and n*p small enough that
// q^n does not underflow (guaranteed by the dispatch threshold).
inline std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  const double r0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  for (;;) {
    double r = r0;
    double u = rng.unit();
    std::uint64_t x = 0;
    bool overflow = false;
    while (u > r) {
      u -= r;
      ++x;
      if (x > n) {  // floating-point leak past the support: redraw
        overflow = true;
        break;
      }
      r *= (a / static_cast<double>(x) - s);
    }
    if (!overflow) return x;
  }
}

// BTPE (Binomial Triangle Parallelogram Exponential) of Kachitvichyanukul &
// Schmeiser 1988: exact acceptance/rejection against a four-region envelope
// around the scaled pmf, with squeeze tests so most candidates avoid the
// O(|y - m|) pmf-ratio product. Requires p <= 0.5 and n*p >= 10.
inline std::uint64_t binomial_btpe(Rng& rng, std::uint64_t n, double p) {
  const double r = p;
  const double q = 1.0 - r;
  const double nd = static_cast<double>(n);
  const double fm = nd * r + r;
  const double m = std::floor(fm);
  const double nrq = nd * r * q;
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = m + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + m);
  double a = (fm - xl) / (fm - xl * r);
  const double laml = a * (1.0 + a / 2.0);
  a = (xr - fm) / (xr * q);
  const double lamr = a * (1.0 + a / 2.0);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / laml;
  const double p4 = p3 + c / lamr;

  for (;;) {
    const double u = rng.unit() * p4;
    const double v = 1.0 - rng.unit();  // in (0, 1]: safe under log()
    double y;
    if (u <= p1) {
      // Triangular central region: accept immediately.
      y = std::floor(xm - p1 * v + u);
      return static_cast<std::uint64_t>(y);
    }
    double vv = v;
    if (u <= p2) {
      // Parallelogram: squeeze against the triangle.
      const double x = xl + (u - p1) / c;
      vv = vv * c + 1.0 - std::fabs(m - x + 0.5) / p1;
      if (vv > 1.0) continue;
      y = std::floor(x);
    } else if (u <= p3) {
      // Left exponential tail.
      y = std::floor(xl + std::log(vv) / laml);
      if (y < 0.0) continue;
      vv = vv * (u - p2) * laml;
    } else {
      // Right exponential tail.
      y = std::floor(xr - std::log(vv) / lamr);
      if (y > nd) continue;
      vv = vv * (u - p3) * lamr;
    }

    const double k = std::fabs(y - m);
    if (k <= 20.0 || k >= nrq / 2.0 - 1.0) {
      // Evaluate f(y)/f(m) by the pmf recurrence (O(k) but k is small or
      // the candidate is already nearly decided).
      const double s = r / q;
      const double aa = s * (nd + 1.0);
      double f = 1.0;
      if (m < y) {
        for (double i = m + 1.0; i <= y; i += 1.0) f *= (aa / i - s);
      } else if (m > y) {
        for (double i = y + 1.0; i <= m; i += 1.0) f /= (aa / i - s);
      }
      if (vv <= f) return static_cast<std::uint64_t>(y);
      continue;
    }
    // Squeeze on log f(y)/f(m) before paying for the Stirling evaluation.
    const double rho =
        (k / nrq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
    const double t = -k * k / (2.0 * nrq);
    const double log_v = std::log(vv);
    if (log_v < t - rho) return static_cast<std::uint64_t>(y);
    if (log_v > t + rho) continue;
    // Final exact comparison via Stirling-corrected factorials.
    const double x1 = y + 1.0;
    const double f1 = m + 1.0;
    const double z = nd + 1.0 - m;
    const double w = nd - y + 1.0;
    const double x2 = x1 * x1;
    const double f2 = f1 * f1;
    const double z2 = z * z;
    const double w2 = w * w;
    auto stirling = [](double f, double fsq) {
      return (13860.0 -
              (462.0 - (132.0 - (99.0 - 140.0 / fsq) / fsq) / fsq) / fsq) /
             f / 166320.0;
    };
    const double bound =
        xm * std::log(f1 / x1) + (nd - m + 0.5) * std::log(z / w) +
        (y - m) * std::log(w * r / (x1 * q)) + stirling(f1, f2) +
        stirling(z, z2) + stirling(x1, x2) + stirling(w, w2);
    if (log_v <= bound) return static_cast<std::uint64_t>(y);
  }
}

}  // namespace detail

// Number of successes in n Bernoulli(p) trials. Exact for all parameters;
// dispatches to inversion when n * min(p, 1-p) < 10 and to BTPE otherwise
// (the boundary both tests cross-validate).
inline std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p) {
  if (!(p >= 0.0) || p > 1.0)
    throw std::invalid_argument("binomial p outside [0, 1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  const double pmin = p <= 0.5 ? p : 1.0 - p;
  std::uint64_t x;
  if (static_cast<double>(n) * pmin < 10.0) {
    x = detail::binomial_inversion(rng, n, pmin);
  } else {
    x = detail::binomial_btpe(rng, n, pmin);
  }
  return p <= 0.5 ? x : n - x;
}

namespace detail {

// Fishman's HYP: sequential inversion, O(sample) uniforms. Exact; used for
// small samples where its cost beats HRUA's setup.
inline std::uint64_t hypergeometric_hyp(Rng& rng, std::uint64_t good,
                                        std::uint64_t bad,
                                        std::uint64_t sample) {
  const double d1 = static_cast<double>(bad + good - sample);
  const double d2 = static_cast<double>(good < bad ? good : bad);
  double y = d2;
  std::uint64_t k = sample;
  while (y > 0.0) {
    const double u = rng.unit();
    y -= std::floor(u + y / (d1 + static_cast<double>(k)));
    --k;
    if (k == 0) break;
  }
  std::uint64_t z = static_cast<std::uint64_t>(d2 - y);
  if (good > bad) z = sample - z;
  return z;
}

// The two-sided inversion works on min(good, bad) successes like HYP/HRUA;
// this undoes that swap on the way out.
inline std::uint64_t reflect_two_sided(std::uint64_t good, std::uint64_t bad,
                                       std::uint64_t sample, double z) {
  const auto k = static_cast<std::uint64_t>(z);
  return good > bad ? sample - k : k;
}

// Mode-centered two-sided inversion: evaluate the pmf once at the mode
// (through log_gamma) and invert one uniform by walking outward from the
// mode, alternating up/down, with the exact pmf ratio recurrences
//   pmf(k+1)/pmf(k) = (g - k)(s - k) / ((k + 1)(b - s + k + 1))
//   pmf(k-1)/pmf(k) = k (b - s + k) / ((g - k + 1)(s - k + 1))
// (g = min(good, bad), b = max(good, bad), s = sample). The cumulated mass
// is maximal near the start of the walk, so the expected number of
// iterations is O(sd) — each a handful of multiplications, with no further
// log_gamma calls. Beats HRUA (whose every candidate costs four log_gamma
// evaluations) exactly when sd is small but sample >= 10 keeps HYP's
// O(sample) sequential inversion from winning: the mid-size regime of
// segment-split draws. Requires sample <= popsize / 2 (the caller
// reflects); exact up to the ~1e-13 accumulated pmf mass a redraw guards.
inline std::uint64_t hypergeometric_two_sided(Rng& rng, std::uint64_t good,
                                              std::uint64_t bad,
                                              std::uint64_t sample) {
  const std::uint64_t popsize = good + bad;
  const double ming = static_cast<double>(good < bad ? good : bad);
  const double maxg = static_cast<double>(good < bad ? bad : good);
  const double s = static_cast<double>(sample);
  const double lo = s > maxg ? s - maxg : 0.0;
  const double hi = ming < s ? ming : s;
  double mode = std::floor((s + 1.0) * (ming + 1.0) /
                           (static_cast<double>(popsize) + 2.0));
  if (mode < lo) mode = lo;
  if (mode > hi) mode = hi;
  // Absolute pmf at the mode: C(ming, m) C(maxg, s - m) / C(pop, s).
  const double log_p_mode =
      log_gamma(ming + 1.0) - log_gamma(mode + 1.0) -
      log_gamma(ming - mode + 1.0) + log_gamma(maxg + 1.0) -
      log_gamma(s - mode + 1.0) - log_gamma(maxg - s + mode + 1.0) -
      log_gamma(static_cast<double>(popsize) + 1.0) + log_gamma(s + 1.0) +
      log_gamma(static_cast<double>(popsize) - s + 1.0);
  const double p_mode = std::exp(log_p_mode);
  for (;;) {
    double u = rng.unit();
    if (u < p_mode) return reflect_two_sided(good, bad, sample, mode);
    u -= p_mode;
    double k_up = mode, p_up = p_mode;
    double k_dn = mode, p_dn = p_mode;
    for (;;) {
      bool moved = false;
      if (k_up < hi) {
        p_up *= (ming - k_up) * (s - k_up) /
                ((k_up + 1.0) * (maxg - s + k_up + 1.0));
        k_up += 1.0;
        if (u < p_up) return reflect_two_sided(good, bad, sample, k_up);
        u -= p_up;
        moved = true;
      }
      if (k_dn > lo) {
        p_dn *= k_dn * (maxg - s + k_dn) /
                ((ming - k_dn + 1.0) * (s - k_dn + 1.0));
        k_dn -= 1.0;
        if (u < p_dn) return reflect_two_sided(good, bad, sample, k_dn);
        u -= p_dn;
        moved = true;
      }
      if (!moved) break;  // floating-point leak past the support: redraw
    }
  }
}

// HRUA: Stadlober's ratio-of-uniforms hypergeometric with squeeze steps.
// Exact accept/reject against the pmf evaluated through log_gamma; the
// candidate window is truncated 16 standard deviations out (acceptance
// probability of the removed tail < 1e-50). Requires
// sample <= popsize / 2 (the caller reflects).
inline std::uint64_t hypergeometric_hrua(Rng& rng, std::uint64_t good,
                                         std::uint64_t bad,
                                         std::uint64_t sample) {
  constexpr double kD1 = 1.7155277699214135;  // 2 sqrt(2 / e)
  constexpr double kD2 = 0.8989161620588988;  // 3 - 2 sqrt(3 / e)
  const std::uint64_t popsize = good + bad;
  const std::uint64_t mingoodbad = good < bad ? good : bad;
  const std::uint64_t maxgoodbad = good < bad ? bad : good;
  const std::uint64_t m = sample;  // caller guarantees sample <= popsize/2
  const double d4 =
      static_cast<double>(mingoodbad) / static_cast<double>(popsize);
  const double d5 = 1.0 - d4;
  const double d6 = static_cast<double>(m) * d4 + 0.5;
  const double d7 =
      std::sqrt(static_cast<double>(popsize - m) * static_cast<double>(m) *
                    d4 * d5 / static_cast<double>(popsize - 1) +
                0.5);
  const double d8 = kD1 * d7 + kD2;
  const auto d9 = std::floor(static_cast<double>(m + 1) *
                             static_cast<double>(mingoodbad + 1) /
                             static_cast<double>(popsize + 2));
  const double d10 = log_gamma(d9 + 1.0) +
                     log_gamma(static_cast<double>(mingoodbad) - d9 + 1.0) +
                     log_gamma(static_cast<double>(m) - d9 + 1.0) +
                     log_gamma(static_cast<double>(maxgoodbad - m) + d9 + 1.0);
  const double hard_cap =
      static_cast<double>(m < mingoodbad ? m : mingoodbad) + 1.0;
  double d11 = std::floor(d6 + 16.0 * d7);
  if (d11 > hard_cap) d11 = hard_cap;

  double zf;
  for (;;) {
    const double x = 1.0 - rng.unit();  // in (0, 1]: safe under / and log
    const double y = rng.unit();
    const double w = d6 + d8 * (y - 0.5) / x;
    if (w < 0.0 || w >= d11) continue;
    zf = std::floor(w);
    const double t =
        d10 - (log_gamma(zf + 1.0) +
               log_gamma(static_cast<double>(mingoodbad) - zf + 1.0) +
               log_gamma(static_cast<double>(m) - zf + 1.0) +
               log_gamma(static_cast<double>(maxgoodbad - m) + zf + 1.0));
    if (x * (4.0 - x) - 3.0 <= t) break;  // fast acceptance
    if (x * (x - t) >= 1.0) continue;     // fast rejection
    if (2.0 * std::log(x) <= t) break;    // exact acceptance
  }
  std::uint64_t z = static_cast<std::uint64_t>(zf);
  if (good > bad) z = m - z;
  return z;
}

}  // namespace detail

// Standard-deviation cutoff between the two-sided inversion walk and HRUA:
// the walk's expected iteration count is a small multiple of sd, so below
// this it wins on every draw (HRUA's setup alone is 4 log_gamma calls);
// above it the walk's O(sd) tail loses to HRUA's O(1) expected candidates.
// Crossover measured at sd ~ 40-60 on the dev host; 32 keeps a margin.
constexpr double kHypergeometricTwoSidedMaxSd = 32.0;

// Number of "good" items in a uniform sample (without replacement) of
// `sample` items from a population of `good` + `bad`. Exact.
inline std::uint64_t sample_hypergeometric(Rng& rng, std::uint64_t good,
                                           std::uint64_t bad,
                                           std::uint64_t sample) {
  const std::uint64_t popsize = good + bad;
  if (sample > popsize)
    throw std::invalid_argument("hypergeometric sample > population");
  if (sample == 0 || good == 0) return 0;
  if (bad == 0) return sample;
  if (sample == popsize) return good;
  // Reflect large samples: if X ~ Hyp(good, bad, s) then
  // good - X ~ Hyp(good, bad, popsize - s).
  if (2 * sample > popsize)
    return good - sample_hypergeometric(rng, good, bad, popsize - sample);
  if (sample < 10) return detail::hypergeometric_hyp(rng, good, bad, sample);
  // Mid-size regime: the two-sided walk costs O(sd) cheap iterations after
  // one 9-log_gamma setup, vs HRUA's 4 log_gamma per candidate. Route by the
  // distribution's standard deviation, not the sample size.
  const double d4 = static_cast<double>(good < bad ? good : bad) /
                    static_cast<double>(popsize);
  const double sd =
      std::sqrt(static_cast<double>(sample) * d4 * (1.0 - d4) *
                static_cast<double>(popsize - sample) /
                static_cast<double>(popsize - 1));
  if (sd <= kHypergeometricTwoSidedMaxSd)
    return detail::hypergeometric_two_sided(rng, good, bad, sample);
  return detail::hypergeometric_hrua(rng, good, bad, sample);
}

}  // namespace ppsim
