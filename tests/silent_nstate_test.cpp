// Tests for Silent-n-state-SSR (Protocol 1, Theorem 2.4) and the barrier
// lemmas 2.2/2.3, plus its exact-distribution fast path: the count
// engine's diagonal geometric skip.
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/barrier.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/batch_simulation.h"
#include "core/simulation.h"
#include "init/silent_nstate_init.h"
#include "protocols/leader.h"
#include "protocols/silent_nstate.h"

namespace ppsim {
namespace {

using State = SilentNStateSSR::State;

TEST(SilentNState, TransitionOnlyFiresOnEqualRanks) {
  SilentNStateSSR proto(5);
  Rng rng(1);
  State a{2}, b{2};
  proto.interact(a, b, rng);
  EXPECT_EQ(a.rank, 2u);
  EXPECT_EQ(b.rank, 3u);  // responder moved up
  State c{1}, d{4};
  proto.interact(c, d, rng);
  EXPECT_EQ(c.rank, 1u);
  EXPECT_EQ(d.rank, 4u);
}

TEST(SilentNState, RankWrapsModuloN) {
  SilentNStateSSR proto(4);
  Rng rng(1);
  State a{3}, b{3};
  proto.interact(a, b, rng);
  EXPECT_EQ(b.rank, 0u);
}

TEST(SilentNState, NullPairsAreExactlyDistinctRanks) {
  SilentNStateSSR proto(4);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = 0; j < 4; ++j)
      EXPECT_EQ(proto.is_null_pair(State{i}, State{j}), i != j);
}

TEST(SilentNState, RankOfShiftsToOneBased) {
  SilentNStateSSR proto(4);
  EXPECT_EQ(proto.rank_of(State{0}), 1u);
  EXPECT_EQ(proto.rank_of(State{3}), 4u);
}

TEST(SilentNState, RejectsTinyPopulations) {
  EXPECT_THROW(SilentNStateSSR(1), std::invalid_argument);
}

TEST(SilentNState, WorstConfigShape) {
  const auto cfg = silent_nstate_worst_config(6);
  auto counts = rank_counts(cfg, 6);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[5], 0u);
  for (std::uint32_t r = 1; r < 5; ++r) EXPECT_EQ(counts[r], 1u);
}

TEST(SilentNState, StabilizesFromWorstConfig) {
  constexpr std::uint32_t kN = 16;
  RunOptions opts;
  opts.max_interactions = 1ull << 24;
  opts.verify_silent = true;
  const RunResult r = run_until_ranked(
      SilentNStateSSR(kN), silent_nstate_worst_config(kN), 42, opts);
  ASSERT_TRUE(r.stabilized);
  EXPECT_GT(r.stabilization_ptime, 0.0);
}

TEST(SilentNState, StabilizesFromAllSameRank) {
  constexpr std::uint32_t kN = 16;
  RunOptions opts;
  opts.max_interactions = 1ull << 24;
  opts.verify_silent = true;
  for (std::uint32_t r0 : {0u, 7u, 15u}) {
    const RunResult r = run_until_ranked(
        SilentNStateSSR(kN), silent_nstate_all_same(kN, r0), 43, opts);
    ASSERT_TRUE(r.stabilized) << "start rank " << r0;
  }
}

TEST(SilentNState, StabilizesFromRandomConfigs) {
  constexpr std::uint32_t kN = 16;
  RunOptions opts;
  opts.max_interactions = 1ull << 24;
  opts.verify_silent = true;
  for (int trial = 0; trial < 10; ++trial) {
    const RunResult r = run_until_ranked(
        SilentNStateSSR(kN),
        silent_nstate_random_config(kN, derive_seed(10, trial)),
        derive_seed(20, trial), opts);
    ASSERT_TRUE(r.stabilized) << "trial " << trial;
  }
}

TEST(SilentNState, AlreadyRankedIsImmediatelyStable) {
  constexpr std::uint32_t kN = 8;
  std::vector<State> cfg(kN);
  for (std::uint32_t i = 0; i < kN; ++i) cfg[i].rank = i;
  RunOptions opts;
  opts.max_interactions = 1000;
  const RunResult r =
      run_until_ranked(SilentNStateSSR(kN), cfg, 1, opts);
  ASSERT_TRUE(r.stabilized);
  EXPECT_DOUBLE_EQ(r.stabilization_ptime, 0.0);
}

TEST(SilentNState, SolvesLeaderElectionViaRankOne) {
  constexpr std::uint32_t kN = 12;
  RunOptions opts;
  opts.max_interactions = 1ull << 24;
  SilentNStateSSR proto(kN);
  Simulation<SilentNStateSSR> sim(proto, silent_nstate_worst_config(kN), 9);
  // Run to silence: every rank distinct.
  while (true) {
    sim.step();
    if (is_correctly_ranked(sim.protocol(), sim.states())) break;
  }
  EXPECT_EQ(count_leaders(sim.protocol(), sim.states()), 1u);
  EXPECT_TRUE(unique_leader(sim.protocol(), sim.states()).has_value());
}

// --- Barrier lemmas. ---

TEST(Barrier, WitnessSatisfiesInvariantExhaustivelyTinyN) {
  // Lemma 2.2 for every configuration of n = 5 agents (5^5 = 3125 configs).
  constexpr std::uint32_t kN = 5;
  std::vector<State> cfg(kN);
  for (std::uint32_t code = 0; code < 3125; ++code) {
    std::uint32_t c = code;
    for (auto& s : cfg) {
      s.rank = c % kN;
      c /= kN;
    }
    const auto counts = rank_counts(cfg, kN);
    const std::uint32_t k = barrier_rank(counts);
    ASSERT_TRUE(barrier_invariant_holds(counts, k))
        << "config code " << code << " k=" << k;
  }
}

TEST(Barrier, InvariantPreservedAlongExecutions) {
  // Lemma 2.3: fix k from the initial configuration; the invariant holds in
  // every reachable configuration.
  constexpr std::uint32_t kN = 12;
  for (int trial = 0; trial < 5; ++trial) {
    SilentNStateSSR proto(kN);
    Simulation<SilentNStateSSR> sim(
        proto, silent_nstate_random_config(kN, derive_seed(30, trial)),
        derive_seed(40, trial));
    const std::uint32_t k = barrier_rank(rank_counts(sim.states(), kN));
    ASSERT_TRUE(barrier_invariant_holds(rank_counts(sim.states(), kN), k));
    for (int step = 0; step < 20000; ++step) {
      sim.step();
      ASSERT_TRUE(barrier_invariant_holds(rank_counts(sim.states(), kN), k))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(Barrier, BarrierRankNeverHoldsTwoAgents) {
  constexpr std::uint32_t kN = 10;
  SilentNStateSSR proto(kN);
  Simulation<SilentNStateSSR> sim(proto,
                                  silent_nstate_random_config(kN, 77), 78);
  const std::uint32_t k = barrier_rank(rank_counts(sim.states(), kN));
  for (int step = 0; step < 20000; ++step) {
    sim.step();
    ASSERT_LE(rank_counts(sim.states(), kN)[k], 1u);
  }
}

// --- Theorem 2.4 and the fast path. ---
//
// The SilentNStateFast suite runs Silent-n-state-SSR on its fast path:
// BatchSimulation pinned to the geometric skip, whose diagonal kernel
// jumps from one effective (equal-rank) interaction to the next.

struct FastRun {
  std::uint64_t interactions = 0;
  double parallel_time = 0.0;
  std::uint64_t effective_events = 0;  // rank-collision interactions
};

FastRun run_fast(BatchSimulation<SilentNStateSSR> sim) {
  run_until(sim, [](const auto& s) { return s.silent(); }, ~0ull);
  return {sim.interactions(), sim.parallel_time(), sim.stats().effective};
}

FastRun run_fast_worst(std::uint32_t n, std::uint64_t seed) {
  return run_fast(BatchSimulation<SilentNStateSSR>(
      SilentNStateSSR(n), silent_nstate_worst_config(n), seed,
      BatchStrategy::kGeometricSkip));
}

FastRun run_fast_counts(std::uint32_t n, std::vector<std::uint64_t> counts,
                        std::uint64_t seed) {
  return run_fast(BatchSimulation<SilentNStateSSR>(
      SilentNStateSSR(n), std::move(counts), seed,
      BatchStrategy::kGeometricSkip));
}

TEST(SilentNStateFast, MatchesDirectSimulatorInMean) {
  constexpr std::uint32_t kN = 24;
  constexpr int kTrials = 200;
  RunOptions opts;
  opts.max_interactions = 1ull << 30;
  const auto direct = run_trials(kTrials, 55, [&](std::uint64_t seed) {
    const RunResult r = run_until_ranked(
        SilentNStateSSR(kN), silent_nstate_worst_config(kN), seed, opts);
    return static_cast<double>(r.interactions);
  });
  const auto fast = run_trials(kTrials, 56, [&](std::uint64_t seed) {
    return static_cast<double>(run_fast_worst(kN, seed).interactions);
  });
  const Summary sd = summarize(direct);
  const Summary sf = summarize(fast);
  EXPECT_NEAR(sd.mean, sf.mean, 3 * (sd.ci95 + sf.ci95));
}

TEST(SilentNStateFast, WorstCaseMeanMatchesClosedForm) {
  // Theorem 2.4: E[interactions] = (n-1) * C(n,2) from the worst config.
  constexpr std::uint32_t kN = 32;
  const auto xs = run_trials(400, 60, [&](std::uint64_t seed) {
    return static_cast<double>(run_fast_worst(kN, seed).interactions);
  });
  const Summary s = summarize(xs);
  const double expected = silent_nstate_worst_expected_interactions(kN);
  EXPECT_NEAR(s.mean, expected, 4 * s.ci95 + 0.05 * expected);
}

TEST(SilentNStateFast, WorstCaseHasExactlyNMinusOneEvents) {
  // From the worst configuration each effective event moves the unique
  // colliding pair up one rank; exactly n-1 events reach the permutation.
  constexpr std::uint32_t kN = 20;
  EXPECT_EQ(run_fast_worst(kN, 3).effective_events, kN - 1);
}

TEST(SilentNStateFast, QuadraticScalingAcrossDoublings) {
  // Theorem 2.4: Theta(n^2) parallel time — the log-log slope over a few
  // doublings should be ~3 in interactions, i.e. ~2 in parallel time.
  std::vector<double> ns, times;
  for (std::uint32_t n : {64u, 128u, 256u, 512u}) {
    const auto xs = run_trials(30, 70 + n, [&](std::uint64_t seed) {
      return run_fast_worst(n, seed).parallel_time;
    });
    ns.push_back(n);
    times.push_back(summarize(xs).mean);
  }
  const LinearFit f = fit_power_law(ns, times);
  EXPECT_NEAR(f.slope, 2.0, 0.25);
}

TEST(SilentNStateFast, RejectsBadCounts) {
  EXPECT_THROW(run_fast_counts(4, {1, 1, 1}, 1), std::invalid_argument);
  EXPECT_THROW(run_fast_counts(4, {4, 1, 0, 0}, 1), std::invalid_argument);
}

TEST(SilentNStateFast, PermutationStartNeedsNoEvents) {
  const FastRun r = run_fast_counts(6, {1, 1, 1, 1, 1, 1}, 1);
  EXPECT_EQ(r.interactions, 0u);
  EXPECT_EQ(r.effective_events, 0u);
}

}  // namespace
}  // namespace ppsim
