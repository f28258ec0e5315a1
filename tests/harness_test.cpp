// Tests for the measurement harness itself (analysis/convergence.h), the
// copy-on-write roster fast paths, and the history-tree dead-edge pruning
// window — the three engineering layers the benchmarks lean on.
#include <gtest/gtest.h>

#include "analysis/convergence.h"
#include "common/roster.h"
#include "core/simulation.h"
#include "init/silent_nstate_init.h"
#include "init/sublinear_init.h"
#include "protocols/collision_tree.h"
#include "protocols/silent_nstate.h"
#include "protocols/sublinear.h"

namespace ppsim {
namespace {

TEST(Convergence, RequiresHorizon) {
  SilentNStateSSR proto(4);
  RunOptions opts;  // max_interactions unset
  EXPECT_THROW(run_until_ranked(proto, silent_nstate_random_config(4, 1), 2,
                                opts),
               std::invalid_argument);
}

TEST(Convergence, ReportsFailureWhenHorizonTooSmall) {
  constexpr std::uint32_t kN = 32;
  SilentNStateSSR proto(kN);
  RunOptions opts;
  opts.max_interactions = 10;  // hopeless
  const RunResult r = run_until_ranked(
      proto, silent_nstate_worst_config(kN), 3, opts);
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(r.interactions, 10u);
  EXPECT_LT(r.stabilization_ptime, 0);
}

TEST(Convergence, FirstCorrectCanPrecedeStabilization) {
  // A protocol that reaches a permutation, breaks it, and re-reaches it:
  // first_correct < stabilization and correctness_breaks > 0.
  struct FlickerProtocol {
    struct State {
      std::uint32_t rank = 0;
      bool flickers = false;
      std::uint32_t phase = 0;
    };
    std::uint32_t n = 3;
    std::uint32_t population_size() const { return n; }
    void interact(State& a, State&, Rng&) const {
      // The flickering agent briefly duplicates rank 2, then settles at 1.
      if (a.flickers && a.phase < 3) {
        ++a.phase;
        a.rank = a.phase == 1 ? 2 : 1;
      }
    }
    std::uint32_t rank_of(const State& s) const { return s.rank; }
  };
  FlickerProtocol proto;
  std::vector<FlickerProtocol::State> init(3);
  init[0].rank = 1;
  init[0].flickers = true;
  init[1].rank = 2;
  init[2].rank = 3;
  RunOptions opts;
  opts.max_interactions = 100000;
  opts.tail_ptime = 5.0;
  const RunResult r = run_until_ranked(proto, init, 9, opts);
  ASSERT_TRUE(r.stabilized);
  EXPECT_GE(r.correctness_breaks, 1u);
  EXPECT_LT(r.first_correct_ptime, r.stabilization_ptime);
}

TEST(Convergence, TailWindowDelaysVerdictOnly) {
  constexpr std::uint32_t kN = 8;
  SilentNStateSSR proto(kN);
  std::vector<SilentNStateSSR::State> cfg(kN);
  for (std::uint32_t i = 0; i < kN; ++i) cfg[i].rank = i;
  RunOptions with_tail;
  with_tail.max_interactions = 100000;
  with_tail.tail_ptime = 20.0;
  const RunResult r = run_until_ranked(proto, cfg, 1, with_tail);
  ASSERT_TRUE(r.stabilized);
  EXPECT_DOUBLE_EQ(r.stabilization_ptime, 0.0);  // correct from the start
  EXPECT_GE(r.interactions, 20u * kN);           // but verified over the tail
}

TEST(RosterCow, MergeAdoptsSupersetStorage) {
  Roster a;
  for (std::uint64_t v : {1ull, 2ull, 3ull}) a.insert(Name::from_bits(v, 5));
  Roster b;
  b.insert(Name::from_bits(2, 5));
  const Roster a0 = a, b0 = b;
  ASSERT_TRUE(Roster::unite(a, b, 5));
  EXPECT_TRUE(a.shares_storage_with(a0));  // a already contains b
  EXPECT_TRUE(b.shares_storage_with(a0));  // so b adopts a's storage
  // And the mirror case: a adopts b's storage when b contains a.
  Roster c = b0;
  ASSERT_TRUE(Roster::unite(c, a, 5));
  EXPECT_TRUE(c.shares_storage_with(a0));
}

TEST(RosterCow, EqualContentsConvergeToOneStorage) {
  Roster a, b;
  for (std::uint64_t v : {4ull, 9ull}) {
    a.insert(Name::from_bits(v, 5));
    b.insert(Name::from_bits(v, 5));
  }
  EXPECT_FALSE(a.shares_storage_with(b));
  const Roster a0 = a;
  ASSERT_TRUE(Roster::unite(a, b, 2));
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_TRUE(a.shares_storage_with(a0));  // equal contents: a's storage
}

TEST(RosterCow, SharedStorageUnionIsExact) {
  Roster a;
  for (std::uint64_t v = 0; v < 20; ++v) a.insert(Name::from_bits(v, 6));
  Roster b = a;
  const Roster a0 = a;
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_FALSE(Roster::unite(a, b, 19));  // |a U b| = 20
  ASSERT_TRUE(Roster::unite(a, b, 20));
  EXPECT_EQ(a.size(), 20u);
  EXPECT_TRUE(a.shares_storage_with(a0));
  EXPECT_TRUE(b.shares_storage_with(a0));
}

TEST(RosterCow, InsertDoesNotAliasOtherCopies) {
  Roster a;
  a.insert(Name::from_bits(1, 5));
  Roster b = a;
  b.insert(Name::from_bits(2, 5));
  EXPECT_EQ(a.size(), 1u);  // copy-on-write: a unchanged
  EXPECT_EQ(b.size(), 2u);
}

// In a full protocol run, rosters converge to shared storage population-wide
// (the O(1) steady-state fast path).
TEST(RosterCow, PopulationConvergesToSharedStorage) {
  const auto p = SublinearParams::constant_h(16, 1);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 3);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 5);
  sim.run(50000);
  std::uint32_t shared = 0;
  for (const auto& s : sim.states())
    if (s.roster.shares_storage_with(sim.states()[0].roster)) ++shared;
  EXPECT_EQ(shared, 16u);
}

TEST(Pruning, LongDeadRootEdgesAreDropped) {
  CollisionDetectorParams params;
  params.depth_h = 2;
  params.smax = 1 << 16;
  params.th = 4;
  params.prune_window = 10;
  CollisionDetector det(params);
  CollisionDetectorStats det_stats;
  HistoryTree a, b, c;
  a.reset(Name::from_bits(1, 8));
  b.reset(Name::from_bits(2, 8));
  c.reset(Name::from_bits(3, 8));
  Rng rng(1);
  ASSERT_FALSE(det.detect_and_update(a, b, rng, det_stats));
  EXPECT_EQ(a.root()->children.size(), 1u);
  // Age a far beyond th + prune_window, then meet c: the b edge (expired
  // for > prune_window) must be pruned at the graft.
  for (int i = 0; i < 40; ++i) a.tick();
  ASSERT_FALSE(det.detect_and_update(a, c, rng, det_stats));
  ASSERT_EQ(a.root()->children.size(), 1u);
  EXPECT_EQ(a.root()->children[0].child->name, Name::from_bits(3, 8));
}

TEST(Pruning, RecentlyDeadEdgesSurviveAsVerificationMaterial) {
  CollisionDetectorParams params;
  params.depth_h = 2;
  params.smax = 1 << 16;
  params.th = 4;
  params.prune_window = 100;
  CollisionDetector det(params);
  CollisionDetectorStats det_stats;
  HistoryTree a, b, c;
  a.reset(Name::from_bits(1, 8));
  b.reset(Name::from_bits(2, 8));
  c.reset(Name::from_bits(3, 8));
  Rng rng(1);
  ASSERT_FALSE(det.detect_and_update(a, b, rng, det_stats));
  for (int i = 0; i < 20; ++i) a.tick();  // dead (>th) but inside window
  ASSERT_FALSE(det.detect_and_update(a, c, rng, det_stats));
  EXPECT_EQ(a.root()->children.size(), 2u);
}

TEST(Pruning, ZeroWindowKeepsEverything) {
  CollisionDetectorParams params;
  params.depth_h = 2;
  params.smax = 1 << 16;
  params.th = 2;
  params.prune_window = 0;
  CollisionDetector det(params);
  CollisionDetectorStats det_stats;
  HistoryTree a, b, c;
  a.reset(Name::from_bits(1, 8));
  b.reset(Name::from_bits(2, 8));
  c.reset(Name::from_bits(3, 8));
  Rng rng(1);
  ASSERT_FALSE(det.detect_and_update(a, b, rng, det_stats));
  for (int i = 0; i < 1000; ++i) a.tick();
  ASSERT_FALSE(det.detect_and_update(a, c, rng, det_stats));
  EXPECT_EQ(a.root()->children.size(), 2u);
}

// The pruning window must not break stability: a stabilized population with
// aggressive churn keeps its ranking (no false positives from pruning).
TEST(Pruning, StabilityPreservedUnderPruning) {
  const auto p = SublinearParams::constant_h(12, 2);  // prune_window on
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 11);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 13);
  sim.run(500000);
  EXPECT_EQ(sim.counters().collision_triggers, 0u);
  EXPECT_EQ(sim.counters().resets_executed, 0u);
}

}  // namespace
}  // namespace ppsim
