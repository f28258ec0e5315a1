// Tests for the count-based batched simulation backend
// (core/batch_simulation.h): the WeightedSampler substrate, exactness of
// the state-pair scheduler projection, and the general (unstructured) path
// against the agent-array backend.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "analysis/convergence.h"
#include "core/batch_simulation.h"
#include "core/rng.h"
#include "core/simulation.h"
#include "core/stats.h"
#include "protocols/leader.h"
#include "protocols/silent_nstate.h"
#include "stat_harness.h"

namespace ppsim {
namespace {

// --- WeightedSampler -------------------------------------------------------

TEST(WeightedSampler, TotalTracksUpdates) {
  WeightedSampler w(8);
  EXPECT_EQ(w.total(), 0u);
  w.add(0, 3);
  w.add(7, 5);
  EXPECT_EQ(w.total(), 8u);
  w.add(7, -5);
  EXPECT_EQ(w.total(), 3u);
}

TEST(WeightedSampler, FindMapsPrefixRangesToIndices) {
  WeightedSampler w(5);
  w.add(1, 2);  // prefix targets {0, 1}
  w.add(3, 3);  // prefix targets {2, 3, 4}
  EXPECT_EQ(w.find(0), 1u);
  EXPECT_EQ(w.find(1), 1u);
  EXPECT_EQ(w.find(2), 3u);
  EXPECT_EQ(w.find(4), 3u);
}

TEST(WeightedSampler, SamplesProportionallyToWeight) {
  WeightedSampler w(4);
  w.add(0, 1);
  w.add(2, 3);
  Rng rng(7);
  std::vector<std::uint64_t> hits(4, 0);
  const std::uint64_t draws = 40000;
  for (std::uint64_t i = 0; i < draws; ++i) ++hits[w.find(rng.below(4))];
  EXPECT_EQ(hits[1], 0u);
  EXPECT_EQ(hits[3], 0u);
  // hits[2]/draws ~ 3/4 with stddev ~ sqrt(draws * 3/16) / draws ~ 0.002.
  EXPECT_NEAR(static_cast<double>(hits[2]) / draws, 0.75, 0.02);
}

// --- Construction and invariants -------------------------------------------

TEST(BatchSimulation, CountsMatchInitialConfiguration) {
  const std::uint32_t n = 16;
  const auto cfg = silent_nstate_worst_config(n);
  BatchSimulation<SilentNStateSSR> sim(SilentNStateSSR(n), cfg, 1);
  std::vector<std::uint64_t> expected(n, 0);
  for (const auto& s : cfg) ++expected[s.rank];
  EXPECT_EQ(sim.counts(), expected);
}

TEST(BatchSimulation, RejectsBadCountVectors) {
  SilentNStateSSR proto(4);
  EXPECT_THROW(BatchSimulation<SilentNStateSSR>(
                   proto, std::vector<std::uint64_t>{1, 1, 1}, 1),
               std::invalid_argument);
  EXPECT_THROW(BatchSimulation<SilentNStateSSR>(
                   proto, std::vector<std::uint64_t>{4, 1, 0, 0}, 1),
               std::invalid_argument);
}

TEST(BatchSimulation, PopulationIsConservedAcrossSteps) {
  const std::uint32_t n = 32;
  BatchSimulation<SilentNStateSSR> sim(
      SilentNStateSSR(n), silent_nstate_worst_config(n), 99);
  for (int k = 0; k < 200; ++k) {
    if (sim.step() == 0) break;
    const auto& c = sim.counts();
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), std::uint64_t{0}), n);
  }
}

TEST(BatchSimulation, DeterministicForEqualSeeds) {
  const std::uint32_t n = 24;
  BatchSimulation<SilentNStateSSR> a(SilentNStateSSR(n),
                                     silent_nstate_worst_config(n), 5);
  BatchSimulation<SilentNStateSSR> b(SilentNStateSSR(n),
                                     silent_nstate_worst_config(n), 5);
  run_until(a, [](const auto& s) { return s.silent(); }, 1u << 30);
  run_until(b, [](const auto& s) { return s.silent(); }, 1u << 30);
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(BatchSimulation, SilentConfigurationNeverChanges) {
  const std::uint32_t n = 8;
  std::vector<SilentNStateSSR::State> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i].rank = i;
  BatchSimulation<SilentNStateSSR> sim(SilentNStateSSR(n), perm, 3);
  EXPECT_TRUE(sim.silent());
  EXPECT_EQ(sim.step(), 0u);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(BatchSimulation, StabilizesToAPermutation) {
  const std::uint32_t n = 64;
  BatchSimulation<SilentNStateSSR> sim(
      SilentNStateSSR(n), silent_nstate_worst_config(n), 11);
  ASSERT_TRUE(
      run_until(sim, [](const auto& s) { return s.silent(); }, 1ull << 40));
  EXPECT_TRUE(is_correctly_ranked(sim.protocol(), sim.counts()));
  EXPECT_TRUE(has_unique_leader(sim.protocol(), sim.counts()));
  EXPECT_EQ(count_leaders(sim.protocol(), sim.counts()), 1u);
}

// --- Count-based leader views ----------------------------------------------

TEST(LeaderCounts, CountBasedViewsMatchAgentArrayViews) {
  const std::uint32_t n = 12;
  SilentNStateSSR proto(n);
  const auto cfg = silent_nstate_worst_config(n);
  std::vector<std::uint64_t> counts(n, 0);
  for (const auto& s : cfg) ++counts[s.rank];
  EXPECT_EQ(count_leaders(proto, counts),
            static_cast<std::uint64_t>(count_leaders(proto, cfg)));
  EXPECT_EQ(is_correctly_ranked(proto, counts),
            is_correctly_ranked(proto, cfg));
  // Worst config has two rank-0 agents => two leaders, not ranked.
  EXPECT_EQ(count_leaders(proto, counts), 2u);
  EXPECT_FALSE(is_correctly_ranked(proto, counts));
  EXPECT_FALSE(has_unique_leader(proto, counts));
}

// The Silent-n-state fast path (the geometric skip) started from a rank
// count vector and from an agent configuration with those counts.

std::vector<std::uint64_t> wide_worst_counts(std::uint32_t n) {
  const auto narrow = silent_nstate_worst_counts(n);
  return std::vector<std::uint64_t>(narrow.begin(), narrow.end());
}

TEST(SilentNStateFastInterop, RunCountsMatchesRunOnSameSeed) {
  const std::uint32_t n = 48;
  BatchSimulation<SilentNStateSSR> a(SilentNStateSSR(n),
                                     silent_nstate_worst_config(n), 77);
  BatchSimulation<SilentNStateSSR> b(SilentNStateSSR(n), wide_worst_counts(n),
                                     77);
  auto silent = [](const auto& s) { return s.silent(); };
  EXPECT_TRUE(run_until(a, silent, ~0ull));
  EXPECT_TRUE(run_until(b, silent, ~0ull));
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.stats().effective, b.stats().effective);
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(SilentNStateFastInterop, CountsOfBridgesAgentConfigurations) {
  const std::uint32_t n = 10;
  const auto cfg = silent_nstate_worst_config(n);
  const BatchSimulation<SilentNStateSSR> sim(SilentNStateSSR(n), cfg, 1);
  EXPECT_EQ(sim.counts(), wide_worst_counts(n));
  EXPECT_THROW(BatchSimulation<SilentNStateSSR>(SilentNStateSSR(n + 1), cfg, 1),
               std::invalid_argument);
}

// --- General (non-diagonal) path -------------------------------------------
//
// A 2-state one-way epidemic: (1, 0) -> (1, 1) for either role; infected
// pairs and susceptible pairs are null. Progress lives OFF the diagonal, so
// BatchSimulation must take the general path with identical-draw batching.
struct EpidemicProtocol {
  struct State {
    std::uint8_t infected = 0;
  };
  static constexpr bool kActiveRequiresEqualStates = false;

  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  void interact(State& a, State& b, Rng&) const {
    if (a.infected != b.infected) a.infected = b.infected = 1;
  }
  std::uint32_t num_states() const { return 2; }
  std::uint32_t encode(const State& s) const { return s.infected; }
  State decode(std::uint32_t code) const {
    return State{static_cast<std::uint8_t>(code)};
  }
  bool is_null_pair(const State& a, const State& b) const {
    return a.infected == b.infected;
  }
};

double epidemic_array_time(std::uint32_t n, std::uint64_t seed) {
  std::vector<EpidemicProtocol::State> init(n);
  init[0].infected = 1;
  Simulation<EpidemicProtocol> sim(EpidemicProtocol{n}, init, seed);
  const bool done = run_until(sim,
      [n](const auto& s) {
        for (const auto& st : s.states())
          if (!st.infected) return false;
        return true;
      },
      1ull << 40);
  EXPECT_TRUE(done);
  return sim.parallel_time();
}

double epidemic_batch_time(std::uint32_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> counts = {n - 1, 1};
  BatchSimulation<EpidemicProtocol> sim(EpidemicProtocol{n}, counts, seed);
  const bool done = run_until(sim,
      [n](const auto& s) { return s.counts()[1] == n; }, 1ull << 40);
  EXPECT_TRUE(done);
  return sim.parallel_time();
}

TEST(BatchSimulationGeneral, EpidemicAgreesWithArrayBackend) {
  const std::uint32_t n = 256;
  const std::uint32_t seeds = 40;
  std::vector<double> array_times, batch_times;
  for (std::uint32_t i = 0; i < seeds; ++i) {
    array_times.push_back(epidemic_array_time(n, derive_seed(7000, i)));
    batch_times.push_back(epidemic_batch_time(n, derive_seed(8000, i)));
  }
  // Epidemic completion time concentrates near 2 ln n (Section 2 folklore);
  // both backends must see the same distribution. (The registered
  // protocols' cross-engine checks are tests/equivalence_table_test.cpp;
  // this protocol is unregistered and exercises the unstructured path.)
  stat_harness::expect_overlapping_ci(summarize(array_times),
                                      summarize(batch_times), "epidemic");
}

TEST(BatchSimulationGeneral, BatchesNullRunsOnConcentratedCounts) {
  // All-susceptible except one infected at n = 4096: most draws are null
  // pairs among susceptibles, so the batch counter must dominate, and
  // every interaction must be accounted exactly once.
  const std::uint32_t n = 4096;
  std::vector<std::uint64_t> counts = {n - 1, 1};
  BatchSimulation<EpidemicProtocol> sim(EpidemicProtocol{n}, counts, 17);
  sim.run(200000);
  EXPECT_GT(sim.stats().batched, sim.stats().effective);
  EXPECT_EQ(sim.stats().batched + sim.stats().effective, sim.interactions());
}

TEST(BatchSimulationGeneral, DetectsStuckAllSameStateConfiguration) {
  // Fully infected: the only drawable pair is null, so step() must signal
  // silence (return 0) and run() must terminate instead of ticking through
  // the whole budget one interaction at a time.
  const std::uint32_t n = 1024;
  std::vector<std::uint64_t> counts = {0, n};
  BatchSimulation<EpidemicProtocol> sim(EpidemicProtocol{n}, counts, 5);
  EXPECT_EQ(sim.step(), 0u);
  sim.run(1ull << 50);  // must return immediately, not iterate 2^50 times
  EXPECT_EQ(sim.interactions(), 0u);
  EXPECT_FALSE(run_until(sim, [](const auto&) { return false; }, 1ull << 50));
}

}  // namespace
}  // namespace ppsim
