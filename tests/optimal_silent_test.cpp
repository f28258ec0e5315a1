// Tests for Optimal-Silent-SSR (Protocols 3-4, Section 4): single-interaction
// semantics of each pseudocode line, the binary-tree ranking of Lemma 4.1 /
// Figure 1, the dormant-phase leader election of Lemma 4.2, and full
// stabilization from hostile starts (Theorem 4.3).
#include <gtest/gtest.h>

#include <set>

#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/simulation.h"
#include "init/optimal_silent_init.h"
#include "protocols/leader.h"
#include "protocols/optimal_silent.h"

namespace ppsim {
namespace {

using State = OptimalSilentSSR::State;

OptimalSilentParams params_for(std::uint32_t n) {
  return OptimalSilentParams::standard(n);
}

State settled(std::uint32_t rank, std::uint8_t children = 0) {
  State s;
  s.role = OsRole::Settled;
  s.rank = rank;
  s.children = children;
  return s;
}

State unsettled(std::uint32_t errorcount) {
  State s;
  s.role = OsRole::Unsettled;
  s.errorcount = errorcount;
  return s;
}

TEST(OptimalSilent, RankCollisionTriggersReset) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = settled(3), b = settled(3);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, OsRole::Resetting);
  EXPECT_EQ(b.role, OsRole::Resetting);
  EXPECT_EQ(a.resetcount, proto.params().rmax);
  EXPECT_EQ(b.resetcount, proto.params().rmax);
  EXPECT_TRUE(a.leader);  // line 7: both become L
  EXPECT_TRUE(b.leader);
  EXPECT_EQ(cnt.collision_triggers, 1u);
}

TEST(OptimalSilent, DistinctRanksDoNotTrigger) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = settled(3), b = settled(4);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, OsRole::Settled);
  EXPECT_EQ(b.role, OsRole::Settled);
}

TEST(OptimalSilent, SettledRecruitsUnsettledWithTreeRanks) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = settled(1, 0), b = unsettled(100);
  proto.interact(a, b, rng, cnt);
  // First child of rank 1 gets rank 2 = 2*1 + 0.
  EXPECT_EQ(b.role, OsRole::Settled);
  EXPECT_EQ(b.rank, 2u);
  EXPECT_EQ(b.children, 0u);
  EXPECT_EQ(a.children, 1u);

  State c = unsettled(100);
  proto.interact(a, c, rng, cnt);
  EXPECT_EQ(c.rank, 3u);  // second child: 2*1 + 1
  EXPECT_EQ(a.children, 2u);

  State d = unsettled(100);
  proto.interact(a, d, rng, cnt);
  EXPECT_EQ(d.role, OsRole::Unsettled);  // full: no third child
}

TEST(OptimalSilent, RecruitWorksInBothDirections) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = unsettled(100), b = settled(2, 0);
  proto.interact(a, b, rng, cnt);  // unsettled initiator, settled responder
  EXPECT_EQ(a.role, OsRole::Settled);
  EXPECT_EQ(a.rank, 4u);
}

TEST(OptimalSilent, LeafRanksDoNotRecruit) {
  // n = 8: rank 5 has children 10, 11 > 8 -> none.
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = settled(5, 0), b = unsettled(100);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(b.role, OsRole::Unsettled);
  EXPECT_EQ(a.children, 0u);
}

TEST(OptimalSilent, BoundaryRankAssignsExactlyN) {
  // Erratum check (Figure 1): with n = 12, rank 6's first child is 12.
  OptimalSilentSSR proto(params_for(12));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = settled(6, 0), b = unsettled(100);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(b.role, OsRole::Settled);
  EXPECT_EQ(b.rank, 12u);
  // Second child would be 13 > 12: not assigned.
  State c = unsettled(100);
  proto.interact(a, c, rng, cnt);
  EXPECT_EQ(c.role, OsRole::Unsettled);
}

TEST(OptimalSilent, UnsettledPatienceCountsDownAndTriggers) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a = unsettled(2);
  State b = unsettled(proto.params().emax);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, OsRole::Unsettled);
  EXPECT_EQ(a.errorcount, 1u);
  proto.interact(a, b, rng, cnt);
  // a's count hit 0: both trigger.
  EXPECT_EQ(a.role, OsRole::Resetting);
  EXPECT_EQ(b.role, OsRole::Resetting);
  EXPECT_EQ(cnt.timeout_triggers, 1u);
}

TEST(OptimalSilent, ResetMapsLeaderAndFollowerCorrectly) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  State l;
  l.role = OsRole::Resetting;
  l.leader = true;
  proto.reset_agent(l, cnt);
  EXPECT_EQ(l.role, OsRole::Settled);
  EXPECT_EQ(l.rank, 1u);
  EXPECT_EQ(l.children, 0u);

  State f;
  f.role = OsRole::Resetting;
  f.leader = false;
  proto.reset_agent(f, cnt);
  EXPECT_EQ(f.role, OsRole::Unsettled);
  EXPECT_EQ(f.errorcount, proto.params().emax);
}

TEST(OptimalSilent, SlowLeaderElectionRunsAmongResetting) {
  OptimalSilentSSR proto(params_for(8));
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  State a, b;
  for (State* s : {&a, &b}) {
    s->role = OsRole::Resetting;
    s->leader = true;
    s->resetcount = 5;
  }
  proto.interact(a, b, rng, cnt);
  EXPECT_TRUE(a.leader);   // initiator survives
  EXPECT_FALSE(b.leader);  // responder demoted (L,L -> L,F)
}

TEST(OptimalSilent, RecruitedAgentEntersAsLeader) {
  OptimalSilentSSR proto(params_for(8));
  State s = settled(4);
  proto.recruit(s);
  EXPECT_EQ(s.role, OsRole::Resetting);
  EXPECT_TRUE(s.leader);
  EXPECT_EQ(s.resetcount, 0u);
  EXPECT_EQ(s.delaytimer, proto.params().dmax);
}

TEST(OptimalSilent, NullPairsAreSettledDistinctRanks) {
  OptimalSilentSSR proto(params_for(8));
  EXPECT_TRUE(proto.is_null_pair(settled(1), settled(2)));
  EXPECT_FALSE(proto.is_null_pair(settled(1), settled(1)));
  EXPECT_FALSE(proto.is_null_pair(settled(1), unsettled(5)));
}

TEST(OptimalSilent, RankOfReportsOnlySettled) {
  OptimalSilentSSR proto(params_for(8));
  EXPECT_EQ(proto.rank_of(settled(5)), 5u);
  EXPECT_EQ(proto.rank_of(unsettled(3)), 0u);
  State r;
  r.role = OsRole::Resetting;
  r.rank = 7;  // stale bits must not leak through
  EXPECT_EQ(proto.rank_of(r), 0u);
}

// Lemma 4.1 / Figure 1: from a single settled leader, the binary-tree
// assignment ranks everyone, with each rank appearing exactly once.
TEST(OptimalSilent, BinaryTreeRankingFromSingleLeader) {
  for (std::uint32_t n : {2u, 3u, 7u, 12u, 33u, 64u}) {
    OptimalSilentSSR proto(params_for(n));
    std::vector<State> init(n);
    init[0] = settled(1);
    for (std::uint32_t i = 1; i < n; ++i)
      init[i] = unsettled(proto.params().emax);
    RunOptions opts;
    opts.max_interactions = 1ull << 26;
    opts.verify_silent = true;
    const RunResult r =
        run_until_ranked(proto, std::move(init), 100 + n, opts);
    ASSERT_TRUE(r.stabilized) << "n=" << n;
  }
}

// Figure 1's exact snapshot: 8 settled agents with ranks {1..5,8,9,10}
// arranged so ranks 6,7,11,12 remain; 4 unsettled agents fill them.
TEST(OptimalSilent, Figure1ScenarioCompletes) {
  constexpr std::uint32_t kN = 12;
  OptimalSilentSSR proto(params_for(kN));
  std::vector<State> init(kN);
  init[0] = settled(1, 2);  // children 2, 3 assigned
  init[1] = settled(2, 2);  // children 4, 5 assigned
  init[2] = settled(3, 0);  // children 6, 7 pending
  init[3] = settled(4, 2);  // children 8, 9 assigned
  init[4] = settled(5, 1);  // child 10 assigned, 11 pending
  init[5] = settled(8, 0);  // leaves
  init[6] = settled(9, 0);
  init[7] = settled(10, 0);
  for (std::uint32_t i = 8; i < kN; ++i)
    init[i] = unsettled(proto.params().emax);
  RunOptions opts;
  opts.max_interactions = 1ull << 24;
  opts.verify_silent = true;
  const RunResult r = run_until_ranked(proto, std::move(init), 12, opts);
  ASSERT_TRUE(r.stabilized);
  EXPECT_EQ(r.correctness_breaks, 0u);
}

// The unique silent configuration really is silent: no counters move.
TEST(OptimalSilent, CorrectConfigurationIsSilent) {
  constexpr std::uint32_t kN = 16;
  OptimalSilentSSR proto(params_for(kN));
  auto init = optimal_silent_config(proto.params(),
                                    OsAdversary::kCorrectRanking, 1);
  Simulation<OptimalSilentSSR> sim(proto, std::move(init), 5);
  sim.run(200000);
  EXPECT_EQ(sim.counters().collision_triggers, 0u);
  EXPECT_EQ(sim.counters().timeout_triggers, 0u);
  EXPECT_TRUE(is_correctly_ranked(sim.protocol(), sim.states()));
}

// Lemma 4.2: awakening configurations have a unique leader with constant
// probability — with our Dmax = 8n the success rate should be high.
TEST(OptimalSilent, AwakeningUsuallyHasUniqueLeader) {
  constexpr std::uint32_t kN = 64;
  int unique = 0;
  constexpr int kTrials = 25;
  for (int trial = 0; trial < kTrials; ++trial) {
    OptimalSilentSSR proto(params_for(kN));
    auto init = optimal_silent_config(proto.params(),
                                      OsAdversary::kAllPropagating,
                                      derive_seed(200, trial));
    Simulation<OptimalSilentSSR> sim(proto, std::move(init),
                                     derive_seed(300, trial));
    // Run until the first Reset executes; then count leaders = Settled
    // agents with rank 1 plus Resetting agents still marked L.
    while (sim.counters().resets_executed == 0 &&
           sim.interactions() < (1ull << 26))
      sim.step();
    ASSERT_GT(sim.counters().resets_executed, 0u);
    std::uint32_t leaders = 0;
    for (const auto& s : sim.states()) {
      if (s.role == OsRole::Resetting && s.leader) ++leaders;
      if (s.role == OsRole::Settled && s.rank == 1) ++leaders;
    }
    if (leaders == 1) ++unique;
  }
  EXPECT_GE(unique, kTrials * 3 / 5);
}

// Theorem 4.3: stabilization from every adversarial family.
class OptimalSilentAdversaryTest
    : public ::testing::TestWithParam<std::tuple<OsAdversary, std::uint32_t>> {
};

TEST_P(OptimalSilentAdversaryTest, Stabilizes) {
  const auto [kind, n] = GetParam();
  for (int trial = 0; trial < 3; ++trial) {
    OptimalSilentSSR proto(params_for(n));
    auto init =
        optimal_silent_config(proto.params(), kind, derive_seed(n, trial));
    RunOptions opts;
    opts.max_interactions =
        static_cast<std::uint64_t>(n) * n * 400 + (1ull << 22);
    opts.verify_silent = true;
    const RunResult r = run_until_ranked(proto, std::move(init),
                                         derive_seed(n + 1, trial), opts);
    ASSERT_TRUE(r.stabilized)
        << to_string(kind) << " n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAdversaries, OptimalSilentAdversaryTest,
    ::testing::Combine(
        ::testing::Values(OsAdversary::kUniformRandom, OsAdversary::kAllLeaders,
                          OsAdversary::kAllUnsettledZero,
                          OsAdversary::kDuplicateRank,
                          OsAdversary::kAllPropagating,
                          OsAdversary::kAllDormant,
                          OsAdversary::kCorrectRanking),
        ::testing::Values(2u, 3u, 8u, 32u, 64u)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_n" + std::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// State accounting: the role-partitioned state space is O(n) (Theorem 4.3).
TEST(OptimalSilent, StateSpaceIsLinear) {
  for (std::uint32_t n : {16u, 64u, 256u}) {
    const auto p = params_for(n);
    // Settled: n ranks x 3 children values; Unsettled: Emax+1;
    // Resetting: 2 leader values x (Rmax propagating + Dmax+1 dormant).
    // With the standard constants: 3n + 16n + 2*8n + O(log n) = 35n + o(n).
    const std::uint64_t states = 3ull * n + (p.emax + 1) +
                                 2ull * (p.rmax + p.dmax + 1);
    EXPECT_LT(states, 36ull * n + 300);
  }
}

// State codes are 32-bit: the ~35n code space fits up to n ~ 1.227e8 and
// is rejected past it instead of wrapping num_states(). Neither the
// parameters nor the constructor allocate, so both sizes are cheap.
TEST(OptimalSilent, CodeSpaceMustFitThirtyTwoBits) {
  const OptimalSilentSSR fits(params_for(120'000'000));
  EXPECT_GT(fits.num_states(), 4'000'000'000u);
  EXPECT_THROW(params_for(130'000'000), std::invalid_argument);
  OptimalSilentParams p;
  p.n = 130'000'000;
  p.emax = 16 * p.n;
  p.dmax = 8 * p.n;
  p.rmax = 154;
  EXPECT_THROW(OptimalSilentSSR{p}, std::invalid_argument);
}

}  // namespace
}  // namespace ppsim
