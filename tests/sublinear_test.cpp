// Tests for Sublinear-Time-SSR (Protocols 5-6, Section 5): parameter
// construction, roster/ghost/rank mechanics, the reset-and-rename cycle,
// collision handling end to end, safety after stabilization, and the
// synthetic-coin variant of Section 6.
#include <gtest/gtest.h>

#include <set>

#include "analysis/convergence.h"
#include "analysis/experiments.h"
#include "core/simulation.h"
#include "init/sublinear_init.h"
#include "protocols/leader.h"
#include "protocols/sublinear.h"

namespace ppsim {
namespace {

using State = SublinearTimeSSR::State;

SublinearParams small_params(std::uint32_t n, std::uint32_t h = 2) {
  return SublinearParams::constant_h(n, h);
}

RunOptions run_opts(const SublinearParams& p, std::uint64_t horizon_mult = 1) {
  RunOptions opts;
  // Horizon: generous multiple of n * (detection wait + reset length).
  const std::uint64_t per_epoch =
      static_cast<std::uint64_t>(p.n) * (4ull * p.th + 4ull * p.dmax + 200);
  opts.max_interactions = horizon_mult * 60ull * per_epoch + (1ull << 22);
  opts.tail_ptime = 3.0 * p.th + 10;
  return opts;
}

TEST(SublinearParams, LogTimeConfiguration) {
  const auto p = SublinearParams::log_time(256);
  EXPECT_EQ(p.depth_h, 3u * 8u);
  EXPECT_EQ(p.name_len, 24u);
  EXPECT_EQ(p.smax, 256ull * 256ull);
  EXPECT_GT(p.dmax, p.rmax);
}

TEST(SublinearParams, ConstantHConfiguration) {
  const auto p = SublinearParams::constant_h(4096, 1);
  EXPECT_EQ(p.depth_h, 1u);
  // TH = Theta(H * n^{1/(H+1)}) = Theta(sqrt(n)) = 64 * 8 + slack.
  EXPECT_NEAR(static_cast<double>(p.th), 8.0 * 64.0, 80.0);
  EXPECT_THROW(SublinearParams::constant_h(16, 0), std::invalid_argument);
}

TEST(SublinearParams, RejectsTinyPopulations) {
  EXPECT_THROW(SublinearParams::log_time(1), std::invalid_argument);
}

TEST(Sublinear, MakeCollectingEstablishesInvariant) {
  SublinearTimeSSR proto(small_params(8));
  const Name nm = Name::from_bits(0b101, 9);
  const State s = proto.make_collecting(nm);
  EXPECT_EQ(s.role, SlRole::Collecting);
  EXPECT_TRUE(s.roster.contains(nm));  // name ∈ roster (state validity)
  EXPECT_TRUE(s.tree.initialized());
  EXPECT_EQ(s.tree.own_name(), nm);
}

TEST(Sublinear, RosterUnionSpreadsOnInteraction) {
  const auto p = small_params(8);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b = proto.make_collecting(Name::from_bits(2, p.name_len));
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.roster.size(), 2u);
  EXPECT_EQ(b.roster.size(), 2u);
  EXPECT_EQ(a.roster, b.roster);
}

TEST(Sublinear, RanksAssignedOnlyWithFullRoster) {
  const auto p = small_params(3);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b = proto.make_collecting(Name::from_bits(2, p.name_len));
  State c = proto.make_collecting(Name::from_bits(4, p.name_len));
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.rank, 0u);  // |roster| = 2 < 3
  proto.interact(a, c, rng, cnt);
  // a and c now have all 3 names: ranks by lexicographic position.
  EXPECT_EQ(a.rank, 1u);
  EXPECT_EQ(c.rank, 3u);
  EXPECT_EQ(b.rank, 0u);  // b hasn't seen c yet
  proto.interact(b, c, rng, cnt);
  EXPECT_EQ(b.rank, 2u);
}

TEST(Sublinear, GhostRosterTriggersReset) {
  const auto p = small_params(2);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b = proto.make_collecting(Name::from_bits(2, p.name_len));
  // Plant a ghost: a's roster already holds two names; union will be 3 > n.
  a.roster.insert(Name::from_bits(5, p.name_len));
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(b.role, SlRole::Resetting);
  EXPECT_EQ(a.resetcount, p.rmax);
  EXPECT_EQ(cnt.ghost_triggers, 1u);
}

TEST(Sublinear, EqualNamesTriggerViaDirectCheck) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  const Name shared = Name::from_bits(3, p.name_len);
  State a = proto.make_collecting(shared);
  State b = proto.make_collecting(shared);
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(cnt.collision_triggers, 1u);
}

TEST(Sublinear, PropagatingAgentsClearNames) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b;
  b.role = SlRole::Resetting;
  b.resetcount = p.rmax;
  b.name = Name::from_bits(2, p.name_len);
  proto.interact(a, b, rng, cnt);
  // b propagates (rc > 0): name cleared; a recruited and, at rc = rmax-1 > 0,
  // cleared too.
  EXPECT_TRUE(b.name.empty());
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(a.resetcount, p.rmax - 1);
  EXPECT_TRUE(a.name.empty());
}

TEST(Sublinear, DormantAgentsGrowNamesBitByBit) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(1);
  State a, b;
  for (State* s : {&a, &b}) {
    s->role = SlRole::Resetting;
    s->resetcount = 0;
    s->delaytimer = p.dmax;
  }
  const auto before_a = a.name.length();
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(a.name.length(), before_a + 1);
  EXPECT_EQ(b.name.length(), 1u);
}

TEST(Sublinear, ResetRestartsRosterAndTree) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  State s;
  s.role = SlRole::Resetting;
  s.name = Name::from_bits(6, p.name_len);
  proto.reset_agent(s, cnt);
  EXPECT_EQ(s.role, SlRole::Collecting);
  EXPECT_EQ(s.roster.size(), 1u);
  EXPECT_TRUE(s.roster.contains(s.name));
  EXPECT_TRUE(s.tree.initialized());
  EXPECT_TRUE(s.tree.root()->children.empty());
}

TEST(Sublinear, RankOfIgnoresResettingAgents) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  State s;
  s.role = SlRole::Resetting;
  s.rank = 3;
  EXPECT_EQ(proto.rank_of(s), 0u);
  s.role = SlRole::Collecting;
  EXPECT_EQ(proto.rank_of(s), 3u);
}

TEST(Sublinear, NeverSilent) {
  const auto p = small_params(4);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b = proto.make_collecting(Name::from_bits(2, p.name_len));
  EXPECT_FALSE(proto.is_null_pair(a, b));
  // Even a correctly-ranked pair keeps exchanging trees.
  Rng rng(1);
  const auto root_before = a.tree.root();
  proto.interact(a, b, rng, cnt);
  EXPECT_NE(a.tree.root(), root_before);
}

// End-to-end: stabilization from a planted duplicate pair (the Lemma 5.6
// pipeline: detect -> reset -> rename -> roll call -> rank).
TEST(Sublinear, RecoversFromDuplicateNames) {
  for (std::uint32_t h : {1u, 2u}) {
    const auto p = small_params(16, h);
    SublinearTimeSSR proto(p);
    auto init = sublinear_config(p, SlAdversary::kDuplicateNames, 7 + h);
    const RunResult r =
        run_until_ranked(proto, std::move(init), 11 + h, run_opts(p));
    ASSERT_TRUE(r.stabilized) << "H=" << h;
  }
}

// The correct-ranked configuration is already stable: no resets, no breaks.
TEST(Sublinear, CorrectRankedStartStaysStable) {
  const auto p = small_params(16);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 3);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 5);
  sim.run(400000);
  EXPECT_EQ(sim.counters().collision_triggers, 0u);
  EXPECT_EQ(sim.counters().ghost_triggers, 0u);
  EXPECT_EQ(sim.counters().resets_executed, 0u);
  EXPECT_TRUE(is_correctly_ranked(sim.protocol(), sim.states()));
}

// Safety (Lemma 5.4): after the protocol stabilizes once, the trees keep
// churning but never fire a false collision over a long horizon.
TEST(Sublinear, NoFalseCollisionsAfterStabilization) {
  const auto p = small_params(12);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kMidReset, 17);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 19);
  // Run until ranked.
  std::uint64_t guard = 0;
  while (!is_correctly_ranked(sim.protocol(), sim.states())) {
    sim.step();
    ASSERT_LT(++guard, 80ull * 1000 * 1000) << "never ranked";
  }
  const auto resets_at_rank = sim.counters().resets_executed;
  sim.run(2ull * 1000 * 1000);
  EXPECT_EQ(sim.counters().resets_executed, resets_at_rank);
  EXPECT_TRUE(is_correctly_ranked(sim.protocol(), sim.states()));
}

// The n = 2 corner: the paper's indirect detection has no third party; the
// direct-check rule (see "direct check" in protocols/collision_tree.h) must
// still let the population recover from identical names.
TEST(Sublinear, TwoAgentPopulationRecoversFromSameName) {
  const auto p = small_params(2, 1);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kAllSameName, 23);
  const RunResult r = run_until_ranked(proto, std::move(init), 29,
                                       run_opts(p, /*horizon_mult=*/4));
  ASSERT_TRUE(r.stabilized);
}

// --- Minimal-population edge cases (n in {2, 3}, H = 1) ---------------------

TEST(Sublinear, NameLengthFloorCoversTinyPopulations) {
  // full_length = max(3, 3 ceil(log2 n)): the floor keeps n = 2 names
  // 3 bits long (collision probability 1/8 per regeneration, not 1/2),
  // and the dormant window must leave room to regenerate every bit.
  for (std::uint32_t n : {2u, 3u}) {
    const auto p = SublinearParams::constant_h(n, 1);
    EXPECT_EQ(p.name_len, n == 2 ? 3u : 6u);
    EXPECT_GT(p.dmax, p.rmax + p.name_len);
  }
}

TEST(Sublinear, GhostRosterTriggersResetAtTwoAgentsH1) {
  // The roster-overflow rule at the smallest population: a stale third
  // name makes the union exceed n = 2, which must read as a ghost even
  // though no collision detection is possible through a third party.
  const auto p = SublinearParams::constant_h(2, 1);
  SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters cnt;
  Rng rng(67);
  State a = proto.make_collecting(Name::from_bits(1, p.name_len));
  State b = proto.make_collecting(Name::from_bits(2, p.name_len));
  a.roster.insert(Name::from_bits(5, p.name_len));  // stale ghost name
  proto.interact(a, b, rng, cnt);
  EXPECT_EQ(cnt.ghost_triggers, 1u);
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(b.role, SlRole::Resetting);
  EXPECT_EQ(b.resetcount, p.rmax);
}

TEST(Sublinear, ThreeAgentPopulationRecoversAtH1) {
  // n = 3, H = 1: one duplicate pair plus a lone third agent — the
  // smallest population where indirect (third-party) detection can fire
  // at all. The full pipeline must still stabilize to ranks {1, 2, 3}.
  const auto p = SublinearParams::constant_h(3, 1);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kDuplicateNames, 71);
  const RunResult r = run_until_ranked(proto, std::move(init), 73,
                                       run_opts(p, /*horizon_mult=*/4));
  ASSERT_TRUE(r.stabilized);
}

// Section 6: with the synthetic coin, dormant name generation still works
// and the protocol still stabilizes (slower by a small constant factor).
TEST(Sublinear, SyntheticCoinVariantStabilizes) {
  auto p = small_params(12);
  p.use_synthetic_coin = true;
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kDuplicateNames, 31);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 37);
  std::uint64_t budget = run_opts(p, /*horizon_mult=*/4).max_interactions;
  while (!is_correctly_ranked(sim.protocol(), sim.states()) && budget-- > 0)
    sim.step();
  ASSERT_TRUE(is_correctly_ranked(sim.protocol(), sim.states()));
  // The duplicate pair forced a reset, whose dormant phase regenerated
  // names from harvested coin bits.
  EXPECT_GT(sim.counters().coin_bits, 0u);
  EXPECT_GT(sim.counters().resets_executed, 0u);
}

TEST(Sublinear, SyntheticCoinNamesAreUnbiased) {
  auto p = small_params(8);
  p.use_synthetic_coin = true;
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kMidReset, 41);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 43);
  sim.run(400000);
  // Collect bit statistics over all current names.
  std::uint64_t ones = 0, bits = 0;
  for (const auto& s : sim.states()) {
    for (std::uint32_t i = 0; i < s.name.length(); ++i) {
      ++bits;
      if (s.name.bit(i)) ++ones;
    }
  }
  if (bits >= 32) {
    const double frac = static_cast<double>(ones) / bits;
    EXPECT_GT(frac, 0.15);
    EXPECT_LT(frac, 0.85);
  }
}

// Leader-election view: once ranked, exactly one agent has rank 1.
TEST(Sublinear, RankedConfigurationHasUniqueLeader) {
  const auto p = small_params(8);
  SublinearTimeSSR proto(p);
  auto init = sublinear_config(p, SlAdversary::kCorrectRanked, 47);
  Simulation<SublinearTimeSSR> sim(proto, std::move(init), 53);
  sim.run(10000);
  EXPECT_EQ(count_leaders(sim.protocol(), sim.states()), 1u);
}

}  // namespace
}  // namespace ppsim
