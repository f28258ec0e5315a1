// Edge cases and differential checks across modules: minimum population
// sizes, boundary ranks, saturated counters, and cross-implementation
// agreement between independent code paths.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/barrier.h"
#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/batch_simulation.h"
#include "core/simulation.h"
#include "init/optimal_silent_init.h"
#include "init/silent_nstate_init.h"
#include "init/sublinear_init.h"
#include "processes/bounded_epidemic.h"
#include "processes/epidemic.h"
#include "protocols/leader.h"
#include "protocols/optimal_silent.h"
#include "protocols/silent_nstate.h"
#include "protocols/sublinear.h"

namespace ppsim {
namespace {

// ---------------- n = 2: the smallest legal population. ----------------

TEST(EdgeN2, SilentNStateStabilizes) {
  SilentNStateSSR proto(2);
  RunOptions opts;
  opts.max_interactions = 100000;
  opts.verify_silent = true;
  for (std::uint32_t r : {0u, 1u}) {
    const RunResult res =
        run_until_ranked(proto, silent_nstate_all_same(2, r), 5 + r, opts);
    ASSERT_TRUE(res.stabilized);
  }
}

TEST(EdgeN2, OptimalSilentAllAdversaries) {
  const auto params = OptimalSilentParams::standard(2);
  for (auto kind : {OsAdversary::kUniformRandom, OsAdversary::kAllLeaders,
                    OsAdversary::kAllUnsettledZero, OsAdversary::kAllDormant}) {
    for (int trial = 0; trial < 3; ++trial) {
      OptimalSilentSSR proto(params);
      RunOptions opts;
      opts.max_interactions = 1ull << 24;
      opts.verify_silent = true;
      const RunResult r = run_until_ranked(
          proto, optimal_silent_config(params, kind, derive_seed(1, trial)),
          derive_seed(2, trial), opts);
      ASSERT_TRUE(r.stabilized) << to_string(kind) << " trial " << trial;
    }
  }
}

TEST(EdgeN2, BinaryTreeHasExactlyOneChild) {
  // n = 2: rank 1's children would be 2 and 3; only 2 exists.
  const auto params = OptimalSilentParams::standard(2);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  OptimalSilentSSR::State leader;
  leader.role = OsRole::Settled;
  leader.rank = 1;
  OptimalSilentSSR::State follower;
  follower.role = OsRole::Unsettled;
  follower.errorcount = params.emax;
  proto.interact(leader, follower, rng, cnt);
  EXPECT_EQ(follower.rank, 2u);
  OptimalSilentSSR::State extra;
  extra.role = OsRole::Unsettled;
  extra.errorcount = params.emax;
  proto.interact(leader, extra, rng, cnt);
  EXPECT_EQ(extra.role, OsRole::Unsettled);  // rank 3 > n: not assigned
}

// ---------------- Boundary ranks in the rank tree. ----------------

TEST(EdgeTree, PowerOfTwoBoundary) {
  // n = 8: rank 4's children are 8 and (9 > 8 rejected).
  const auto params = OptimalSilentParams::standard(8);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  OptimalSilentSSR::State four;
  four.role = OsRole::Settled;
  four.rank = 4;
  OptimalSilentSSR::State u1, u2;
  u1.role = u2.role = OsRole::Unsettled;
  u1.errorcount = u2.errorcount = params.emax;
  proto.interact(four, u1, rng, cnt);
  EXPECT_EQ(u1.rank, 8u);
  proto.interact(four, u2, rng, cnt);
  EXPECT_EQ(u2.role, OsRole::Unsettled);
  EXPECT_EQ(four.children, 1u);
}

TEST(EdgeTree, ChildrenFieldSaturatesAtTwo) {
  const auto params = OptimalSilentParams::standard(32);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  OptimalSilentSSR::State r1;
  r1.role = OsRole::Settled;
  r1.rank = 1;
  for (int k = 0; k < 5; ++k) {
    OptimalSilentSSR::State u;
    u.role = OsRole::Unsettled;
    u.errorcount = params.emax;
    proto.interact(r1, u, rng, cnt);
  }
  EXPECT_EQ(r1.children, 2u);  // never exceeds 2
}

// ---------------- Counter saturation. ----------------

TEST(EdgeCounters, ErrorcountStopsAtZero) {
  const auto params = OptimalSilentParams::standard(4);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  OptimalSilentSSR::State a, b;
  a.role = OsRole::Unsettled;
  a.errorcount = 0;  // adversarial: already exhausted
  b.role = OsRole::Unsettled;
  b.errorcount = 0;
  proto.interact(a, b, rng, cnt);
  // Both trigger immediately (no underflow).
  EXPECT_EQ(a.role, OsRole::Resetting);
  EXPECT_EQ(b.role, OsRole::Resetting);
}

TEST(EdgeCounters, DelayTimerZeroAwakensImmediately) {
  const auto params = OptimalSilentParams::standard(4);
  OptimalSilentSSR proto(params);
  OptimalSilentSSR::Counters cnt;
  Rng rng(1);
  OptimalSilentSSR::State a, b;
  for (auto* s : {&a, &b}) {
    s->role = OsRole::Resetting;
    s->leader = false;
    s->resetcount = 0;
    s->delaytimer = 0;  // adversarial
  }
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, OsRole::Unsettled);
  EXPECT_EQ(b.role, OsRole::Unsettled);
}

// ---------------- Differential: fast vs direct on arbitrary counts. ------
//
// "Fast" is Silent-n-state-SSR's fast path: the count engine's diagonal
// geometric skip, run to silence.

TEST(Differential, FastSimulatorMatchesDirectOnRandomCounts) {
  constexpr std::uint32_t kN = 16;
  Rng gen(99);
  for (int cfg = 0; cfg < 5; ++cfg) {
    // A random rank-count vector summing to n.
    std::vector<std::uint32_t> counts(kN, 0);
    for (std::uint32_t i = 0; i < kN; ++i)
      ++counts[gen.below(kN)];
    // Direct: realize the counts as agents.
    std::vector<SilentNStateSSR::State> cfg_states;
    for (std::uint32_t r = 0; r < kN; ++r)
      for (std::uint32_t k = 0; k < counts[r]; ++k)
        cfg_states.push_back({r});
    constexpr int kTrials = 150;
    RunOptions opts;
    opts.max_interactions = 1ull << 28;
    std::vector<double> direct, fast;
    for (int t = 0; t < kTrials; ++t) {
      const RunResult r = run_until_ranked(SilentNStateSSR(kN), cfg_states,
                                           derive_seed(cfg, t), opts);
      direct.push_back(static_cast<double>(r.interactions));
      BatchSimulation<SilentNStateSSR> sim(
          SilentNStateSSR(kN), cfg_states, derive_seed(cfg + 100, t),
          BatchStrategy::kGeometricSkip);
      run_until(sim, [](const auto& s) { return s.silent(); }, ~0ull);
      fast.push_back(static_cast<double>(sim.interactions()));
    }
    const Summary sd = summarize(direct);
    const Summary sf = summarize(fast);
    EXPECT_NEAR(sd.mean, sf.mean, 3.5 * (sd.ci95 + sf.ci95))
        << "config " << cfg;
  }
}

// The barrier rank is itself preserved by the accelerated simulator's
// events: replay fast events on counts and check invariant (1).
TEST(Differential, BarrierHoldsUnderAcceleratedEvents) {
  constexpr std::uint32_t kN = 12;
  auto counts = silent_nstate_worst_counts(kN);
  const std::uint32_t k = barrier_rank(counts);
  ASSERT_TRUE(barrier_invariant_holds(counts, k));
  // One fast run mutates counts internally; re-run step-by-step here.
  Rng rng(3);
  std::vector<std::uint32_t> m = counts;
  for (int event = 0; event < 200; ++event) {
    // Pick any colliding rank (deterministically: the first).
    std::uint32_t r = kN;
    for (std::uint32_t i = 0; i < kN; ++i)
      if (m[i] >= 2) {
        r = i;
        break;
      }
    if (r == kN) break;  // silent
    --m[r];
    ++m[(r + 1) % kN];
    ASSERT_TRUE(barrier_invariant_holds(m, k)) << "event " << event;
  }
}

// ---------------- Epidemic process corner cases. ----------------

TEST(EdgeProcesses, EpidemicWithTwoAgents) {
  const auto r = run_epidemic(2, 7);
  EXPECT_EQ(r.interactions, 1u);  // the only pair must meet once
}

TEST(EdgeProcesses, BoundedEpidemicRejectsBadLevels) {
  EXPECT_THROW(run_bounded_epidemic(8, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW(run_bounded_epidemic(8, 3, 4, 1), std::invalid_argument);
  EXPECT_THROW(run_bounded_epidemic(1, 3, 1, 1), std::invalid_argument);
}

TEST(EdgeProcesses, BoundedEpidemicTwoAgents) {
  const auto r = run_bounded_epidemic(2, 1, 1, 3);
  EXPECT_EQ(r.interactions, 1u);
  EXPECT_DOUBLE_EQ(r.tau_by_level[1], 0.5);
}

// ---------------- Sublinear corner cases. ----------------

TEST(EdgeSublinear, RosterAtExactlyNMinusOneDoesNotRank) {
  const auto p = SublinearParams::constant_h(4, 1);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  auto names = [&] {
    Rng g(5);
    return distinct_names(4, p.name_len, g);
  }();
  auto a = proto.make_collecting(names[0]);
  auto b = proto.make_collecting(names[1]);
  auto c = proto.make_collecting(names[2]);
  proto.interact(a, b, rng, cnt);
  proto.interact(a, c, rng, cnt);
  EXPECT_EQ(a.roster.size(), 3u);  // n-1
  EXPECT_EQ(a.rank, 0u);           // no rank until all n names are present
}

TEST(EdgeSublinear, GhostAtExactBoundaryDoesNotTrigger) {
  // union == n must NOT trigger (only > n does).
  const auto p = SublinearParams::constant_h(3, 1);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  Rng g(7);
  auto names = distinct_names(3, p.name_len, g);
  auto a = proto.make_collecting(names[0]);
  auto b = proto.make_collecting(names[1]);
  a.roster.insert(names[2]);  // third real name already known
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, SlRole::Collecting);
  EXPECT_EQ(a.roster.size(), 3u);
  EXPECT_NE(a.rank, 0u);  // full roster: ranked
}

TEST(EdgeSublinear, EmptyNamesCompareAndDetect) {
  // Two agents with epsilon names (mid-regeneration debris): the direct
  // check treats equal empty names as a collision, which is sound.
  const auto p = SublinearParams::constant_h(4, 1);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  auto a = proto.make_collecting(Name());
  auto b = proto.make_collecting(Name());
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, SlRole::Resetting);
}

TEST(EdgeSublinear, RecruitedAgentKeepsItsName) {
  // Protocol 2's recruitment does not touch the name field; only a
  // propagating resetcount clears it (Protocol 5 lines 11-12).
  const auto p = SublinearParams::constant_h(4, 1);
  SublinearTimeSSR proto(p);
  auto s = proto.make_collecting(Name::from_bits(5, p.name_len));
  const Name before = s.name;
  proto.recruit(s);
  EXPECT_EQ(s.role, SlRole::Resetting);
  EXPECT_EQ(s.name, before);
}

// ---------------- Leader view corner cases. ----------------

TEST(EdgeLeader, NoLeaderBeforeRanking) {
  const auto p = SublinearParams::constant_h(4, 1);
  SublinearTimeSSR proto(p);
  Rng g(9);
  auto names = distinct_names(4, p.name_len, g);
  std::vector<SublinearTimeSSR::State> states;
  for (const auto& nm : names) states.push_back(proto.make_collecting(nm));
  EXPECT_EQ(count_leaders(proto, states), 0u);
  EXPECT_FALSE(unique_leader(proto, states).has_value());
}

TEST(EdgeLeader, TwoRankOnesMeansNoUniqueLeader) {
  SilentNStateSSR proto(4);
  std::vector<SilentNStateSSR::State> states = {{0}, {0}, {2}, {3}};
  EXPECT_EQ(count_leaders(proto, states), 2u);
  EXPECT_FALSE(unique_leader(proto, states).has_value());
  EXPECT_FALSE(is_correctly_ranked(proto, states));
}

}  // namespace
}  // namespace ppsim
