// The approximate tier's honesty harness (ISSUE 7 layer 4).
//
// The tau-leaping count engine (core/tau_leap_simulation.h) trades
// exactness for speed; this file quantifies the trade instead of asserting
// bit-level agreement:
//
//   * CI-overlap cells: the tau engine against the agent array at
//     n in {8, 64, 512} x 30 seeds, for OptimalSilentSSR (dormant-mix ->
//     silent) and the reset process (trigger-one -> drained), are rows of
//     tests/equivalence_table_test.cpp. At these n the default leap
//     controller keeps expected events per leap under kBulkMinEvents, so
//     the engine runs its exact jump chain and the overlap holds by
//     construction; the rows pin that regime and catch any controller
//     re-tune that breaks it.
//   * Divergence curve: at bulk-engaged n (k_target = eps*n well past
//     kBulkMinEvents) the frozen-rate approximation has real, eps-bounded
//     error. We track the mean delay timer of dormant agents through the
//     dormant-mix drain and assert the tau-vs-exact gap stays a small
//     fraction of the exact movement at the default eps, and only degrades
//     gradually at a deliberately coarse eps.
//   * Stamping: every approximate result must carry approximate = true and
//     its resolved tau_eps; the exact tiers must not. bench_compare keys
//     on those fields (analysis/bench_records.h), so the stamps are the
//     contract that keeps approximate records out of strict drift gates.
//
// Plus determinism, silence certification, trace accounting, and the
// error paths that keep the approximate tier strictly opt-in.
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "core/batch_simulation.h"
#include "core/rng.h"
#include "core/tau_leap_simulation.h"
#include "init/optimal_silent_init.h"
#include "init/reset_init.h"
#include "protocols/optimal_silent.h"

#include "gtest/gtest.h"

namespace ppsim {
namespace {

// ---------------------------------------------------------------------------
// Divergence curve at bulk-engaged n: frozen-rate error is real but
// eps-bounded.

// Mean delay timer over dormant agents (Resetting with resetcount == 0) —
// the observable the dormant-mix drain moves monotonically from Dmax
// toward 0, so |tau - exact| / |movement| is a scale-free error measure.
double mean_dormant_delay(const OptimalSilentSSR& proto,
                          const std::vector<std::uint64_t>& counts) {
  double num = 0.0, den = 0.0;
  for (std::uint32_t code = 0; code < counts.size(); ++code) {
    if (counts[code] == 0) continue;
    const auto s = proto.decode(code);
    if (s.role == OsRole::Resetting && s.resetcount == 0) {
      num += static_cast<double>(counts[code]) * s.delaytimer;
      den += static_cast<double>(counts[code]);
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

// Largest relative divergence of the tau trajectory from the exact one
// across parallel-time checkpoints, averaged over seeds. Checkpoints are
// taken at the tau engine's actual interaction counts (leaps overshoot a
// round target), and the exact engine is then run to the same counts, so
// both trajectories are compared at identical scheduler depth.
double divergence_vs_exact(double eps, std::uint32_t n,
                           const std::vector<double>& ptimes,
                           std::uint64_t base_seed, std::uint32_t seeds,
                           std::uint64_t* bulk_leaps_seen = nullptr) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  const auto counts0 = optimal_silent_dormant_counts(proto.params());
  const double start = mean_dormant_delay(proto, counts0);
  double worst = 0.0;
  for (std::uint32_t s = 0; s < seeds; ++s) {
    TauLeapSimulation<OptimalSilentSSR> tau(proto, counts0,
                                            derive_seed(base_seed, 2 * s),
                                            eps);
    BatchSimulation<OptimalSilentSSR> exact(
        proto, counts0, derive_seed(base_seed, 2 * s + 1),
        BatchStrategy::kMultinomial);
    for (double pt : ptimes) {
      const auto target =
          static_cast<std::uint64_t>(pt * static_cast<double>(n));
      while (tau.interactions() < target)
        if (tau.step() == 0) break;
      exact.run(tau.interactions() - exact.interactions());
      const double a = mean_dormant_delay(proto, tau.counts());
      const double b = mean_dormant_delay(proto, exact.state_counts());
      const double movement = std::fabs(start - b);
      if (movement > 1.0)
        worst = std::max(worst, std::fabs(a - b) / movement);
    }
    if (bulk_leaps_seen != nullptr) *bulk_leaps_seen += tau.leaps();
  }
  return worst;
}

TEST(ApproxDivergence, DormantDrainStaysEpsBounded) {
  // n chosen so the leap controller's target (eps * n effective events)
  // is far past kBulkMinEvents: the engine must run its bulk stages, the
  // regime where the frozen-rate approximation actually bites.
  const std::uint32_t n = 200000;
  const std::vector<double> ptimes = {1.0, 2.0, 4.0};
  std::uint64_t leaps = 0;
  const double at_default =
      divergence_vs_exact(kDefaultTauEps, n, ptimes, 0xD1A3, 3, &leaps);
  // Bulk actually engaged: the whole drain fits in few macro-leaps. An
  // exact-chain run at this depth would need >> 1000 leaps.
  EXPECT_LT(leaps, 1000u);
  EXPECT_GT(leaps, 0u);
  // Default eps: divergence within 5% of the exact movement.
  EXPECT_LT(at_default, 0.05) << "tau (eps=" << kDefaultTauEps
                              << ") diverged from exact";

  // Deliberately coarse eps: still bounded, but the band is honest about
  // being wider — the knob trades error for fewer leaps monotonically.
  const double at_coarse = divergence_vs_exact(0.4, n, ptimes, 0xD1A3, 3);
  EXPECT_LT(at_coarse, 0.25) << "tau (eps=0.4) left its recorded band";
}

// ---------------------------------------------------------------------------
// Tau engine: determinism, silence certification, trace accounting.

TEST(TauLeapEngine, DeterministicPerSeedAndEps) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(64));
  const auto counts0 = optimal_silent_dormant_counts(proto.params());
  auto run = [&](std::uint64_t seed, double eps) {
    TauLeapSimulation<OptimalSilentSSR> sim(proto, counts0, seed, eps);
    EXPECT_NO_THROW(sim.audit());
    for (int i = 0; i < 200; ++i) {
      if (sim.step() == 0) break;
      EXPECT_NO_THROW(sim.audit()) << "leap " << i;
    }
    return sim.counts();
  };
  EXPECT_EQ(run(7, kDefaultTauEps), run(7, kDefaultTauEps));
  EXPECT_NE(run(7, kDefaultTauEps), run(8, kDefaultTauEps));
}

TEST(TauLeapEngine, CertifiesSilenceExactly) {
  // silent() is exact (structured active weight identically zero), so a
  // run driven to step() == 0 must be at the protocol's unique silent
  // configuration: all Settled, every rank {1..n} present exactly once.
  const std::uint32_t n = 8;
  const OptimalSilentSSR proto(OptimalSilentParams::standard(n));
  TauLeapSimulation<OptimalSilentSSR> sim(
      proto, optimal_silent_dormant_counts(proto.params()), 11);
  while (sim.step() != 0) {
  }
  EXPECT_TRUE(sim.silent());
  std::uint32_t settled = 0;
  for (std::uint32_t code = 0; code < sim.counts().size(); ++code) {
    if (sim.counts()[code] == 0) continue;
    const auto s = proto.decode(code);
    EXPECT_EQ(s.role, OsRole::Settled);
    settled += static_cast<std::uint32_t>(sim.counts()[code]);
  }
  EXPECT_EQ(settled, n);
}

TEST(TauLeapEngine, TraceChargesTheTauArm) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(32));
  TauLeapSimulation<OptimalSilentSSR> sim(
      proto, optimal_silent_dormant_counts(proto.params()), 3);
  std::uint64_t consumed = 0;
  for (int i = 0; i < 50; ++i) consumed += sim.step();
  const auto arm = static_cast<std::size_t>(StrategyArm::kTauLeap);
  EXPECT_EQ(sim.strategy_trace().steps[arm], sim.leaps());
  EXPECT_EQ(sim.strategy_trace().interactions[arm], consumed);
  EXPECT_EQ(sim.interactions(), consumed);
}

TEST(TauLeapEngine, RejectsBadEps) {
  const OptimalSilentSSR proto(OptimalSilentParams::standard(8));
  const auto counts = optimal_silent_dormant_counts(proto.params());
  EXPECT_THROW(TauLeapSimulation<OptimalSilentSSR>(proto, counts, 1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(TauLeapSimulation<OptimalSilentSSR>(proto, counts, 1, -0.1),
               std::invalid_argument);
  EXPECT_THROW(
      TauLeapSimulation<OptimalSilentSSR>(
          proto, counts, 1, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scenario API: the approximate tier is strictly opt-in.

TEST(ApproxOptIn, AutoNeverSelectsTau) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "dormant-mix";
  spec.until = "silent";
  spec.n = 64;
  spec.engine = "auto";
  spec.strategy = "auto";
  spec.trials = 2;
  spec.seed = 5;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_FALSE(r.approximate);
  EXPECT_NE(r.strategy, "tau");
  const auto arm = static_cast<std::size_t>(StrategyArm::kTauLeap);
  EXPECT_EQ(r.trace.steps[arm], 0u)
      << "auto strategy ran approximate leaps without opting in";
}

TEST(ApproxOptIn, TauNeedsTheCountEngine) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "dormant-mix";
  spec.n = 32;
  spec.engine = "array";
  spec.strategy = "tau";
  spec.trials = 1;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

TEST(ApproxOptIn, NegativeTauEpsIsRejected) {
  ScenarioSpec spec;
  spec.protocol = "optimal-silent";
  spec.init = "dormant-mix";
  spec.n = 32;
  spec.engine = "batch";
  spec.strategy = "tau";
  spec.tau_eps = -0.5;
  spec.trials = 1;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

}  // namespace
}  // namespace ppsim
