// Tests for the count-form Sublinear-Time-SSR abstraction
// (protocols/sublinear_count.h) and its truncated-tree projection
// (collision_tree.h):
//
//  * construction guards: inexpressible configurations (synthetic coin,
//    depth >= 2) throw instead of silently mismodeling;
//  * canonical coding: exhaustive decode -> encode round trip, contiguous
//    Resetting block, invalid states rejected;
//  * roster buckets: merges never stall below the top bucket (the roll
//    call cannot deadlock in the quotient), the cap is absorbing;
//  * transition semantics: the witness automaton mirrors the concrete
//    root-edge ages (the projection computed by root_edge_age), direct
//    and indirect detection fire exactly where the quotient says;
//  * cross-form exactness in the regimes claimed lossless (the reset
//    machinery) is checked by tests/equivalence_table_test.cpp;
//  * quantified divergence where lossy: count-form detection latency is
//    the same order as the array's (direction-2 loss costs a small
//    constant factor), and every record is stamped abstracted = true.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "init/sublinear_count_init.h"
#include "protocols/collision_tree.h"
#include "protocols/sublinear.h"
#include "protocols/sublinear_count.h"

namespace ppsim {
namespace {

using CState = SublinearCountSSR::State;

SublinearCountSSR make_h1(std::uint32_t n, std::uint32_t depth = 1) {
  return SublinearCountSSR(SublinearParams::constant_h(n, 1), depth);
}

// --- Construction guards ----------------------------------------------------

TEST(SublinearCount, RejectsInexpressibleConfigurations) {
  EXPECT_THROW(make_h1(1), std::invalid_argument);
  EXPECT_THROW(SublinearCountSSR(SublinearParams::constant_h(16, 1), 2),
               std::invalid_argument);
  auto coin = SublinearParams::constant_h(16, 1);
  coin.use_synthetic_coin = true;
  EXPECT_THROW(SublinearCountSSR(coin, 1), std::invalid_argument);
}

TEST(SublinearCount, StateSpaceIsPolynomial) {
  // The whole point of the quotient: hlog at n = 10^6 fits in a few
  // hundred thousand codes (the bench_sublinear acceptance cell), where
  // the concrete protocol's state space is quasi-exponential.
  const SublinearCountSSR big(SublinearParams::log_time(1'000'000), 1);
  EXPECT_LT(big.num_states(), 1'000'000u);
  EXPECT_GT(big.num_states(), 1'000u);
  // h1's TH = Theta(sqrt n) inflates the witness-age axis: still
  // polynomial, just a larger polynomial.
  const SublinearCountSSR h1 = make_h1(1024);
  EXPECT_LT(h1.num_states(), 2'000'000u);
}

// --- Canonical coding -------------------------------------------------------

TEST(SublinearCount, ExhaustiveCodeRoundTrip) {
  for (std::uint32_t n : {2u, 3u, 16u}) {
    const SublinearCountSSR proto = make_h1(n);
    for (std::uint32_t q = 0; q < proto.num_states(); ++q) {
      const CState s = proto.decode(q);
      EXPECT_EQ(proto.encode(s), q) << "n=" << n << " code " << q;
    }
    EXPECT_THROW(proto.decode(proto.num_states()), std::invalid_argument);
  }
}

TEST(SublinearCount, ResettingBlockIsContiguousAndComplete) {
  const SublinearCountSSR proto = make_h1(16);
  const std::uint32_t lo = proto.first_resetting_code();
  const std::uint32_t hi = lo + proto.resetting_code_count();
  EXPECT_EQ(hi, proto.num_states());
  for (std::uint32_t q = 0; q < proto.num_states(); ++q) {
    const bool resetting = proto.decode(q).role == SlRole::Resetting;
    EXPECT_EQ(resetting, q >= lo && q < hi) << "code " << q;
  }
}

TEST(SublinearCount, EncodeRejectsInvalidStates) {
  const SublinearCountSSR proto = make_h1(16);
  CState s;
  s.bucket = proto.num_buckets();
  EXPECT_THROW(proto.encode(s), std::invalid_argument);
  s = CState{};
  s.wit_age = proto.params().th;  // a witness can never reach age TH
  EXPECT_THROW(proto.encode(s), std::invalid_argument);
  s = CState{};
  s.role = SlRole::Resetting;
  s.resetcount = proto.params().rmax + 1;
  EXPECT_THROW(proto.encode(s), std::invalid_argument);
}

// --- Roster buckets ---------------------------------------------------------

TEST(SublinearCount, BucketMergesNeverStallBelowTheTop) {
  // Roll-call liveness in the quotient: a same-bucket merge below the top
  // strictly advances, and merging with the cap is absorbing. Without the
  // strict advance the bucketed roll call could deadlock short of rank
  // assignment.
  for (std::uint32_t n : {2u, 3u, 4u, 8u, 9u, 10u, 17u, 100u, 256u, 1000u}) {
    const SublinearCountSSR proto = make_h1(n);
    const std::uint64_t cap = n;
    auto mean_union = [cap](std::uint64_t ra, std::uint64_t rb) {
      return std::min(cap, ra + rb - ra * rb / cap);
    };
    for (std::uint32_t k = 0; k < proto.top_bucket(); ++k) {
      const std::uint64_t r = proto.bucket_rep(k);
      EXPECT_GT(proto.bucket_of(mean_union(r, r)), k) << "n=" << n;
      EXPECT_EQ(proto.bucket_of(mean_union(r, cap)), proto.top_bucket());
    }
    EXPECT_EQ(proto.bucket_rep(proto.top_bucket()), cap);
    EXPECT_EQ(proto.bucket_of(1), 0u);
  }
}

// --- Transition semantics ---------------------------------------------------

TEST(SublinearCount, DirectCheckFiresOnDuplicatePair) {
  const SublinearCountSSR proto = make_h1(16);
  SublinearCountSSR::Counters c;
  Rng rng(1);
  CState a, b;
  a.nc = proto.dup_class(0);
  b.nc = proto.dup_class(1);
  proto.interact(a, b, rng, c);
  EXPECT_EQ(c.collision_triggers, 1u);
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(a.resetcount, proto.params().rmax);
  // Colliders keep their duplicate class until the wave clears it.
  EXPECT_TRUE(proto.is_dup_class(a.nc));
}

TEST(SublinearCount, WitnessAutomatonMirrorsConcreteRootEdgeAges) {
  // The abstraction map in action: run the same meeting pattern through
  // the concrete trees and the count-form witness, checking the witness
  // age equals the concrete root-edge age at every step.
  const auto p = SublinearParams::constant_h(8, 1);
  const SublinearTimeSSR concrete(p);
  const SublinearCountSSR quotient(p, 1);
  SublinearTimeSSR::Counters cc;
  SublinearCountSSR::Counters qc;
  Rng rng(7);

  const Name dup_name = Name::from_bits(5, p.name_len);
  auto d0 = concrete.make_collecting(dup_name);
  auto w = concrete.make_collecting(Name::from_bits(9, p.name_len));
  auto other = concrete.make_collecting(Name::from_bits(17, p.name_len));
  CState qw, qd0, qother;
  qw.nc = quotient.full_class();
  qother.nc = quotient.full_class();
  qd0.nc = quotient.dup_class(0);

  // Fresh trees: no live root edges, no witness.
  EXPECT_EQ(live_root_degree(w.tree), 0u);
  EXPECT_EQ(root_edge_age(w.tree, dup_name, p.th), -1);
  EXPECT_EQ(qw.wit_age, 0u);

  // w meets the duplicate: the x-edge is grafted, age 1 after the tick.
  concrete.interact(w, d0, rng, cc);
  quotient.interact(qw, qd0, rng, qc);
  EXPECT_EQ(root_edge_age(w.tree, dup_name, p.th), 1);
  EXPECT_EQ(live_root_degree(w.tree), 1u);
  EXPECT_EQ(qw.wit_age, 1u);
  EXPECT_EQ(qw.wit_j, 0u);

  // w meets a third party: the edge (and the witness) age by one owner
  // operation; the new partner's edge starts at age 1.
  concrete.interact(w, other, rng, cc);
  quotient.interact(qw, qother, rng, qc);
  EXPECT_EQ(root_edge_age(w.tree, dup_name, p.th), 2);
  EXPECT_EQ(root_edge_age(w.tree, other.name, p.th), 1);
  EXPECT_EQ(live_root_degree(w.tree), 2u);
  EXPECT_EQ(qw.wit_age, 2u);

  EXPECT_EQ(cc.collision_triggers, 0u);
  EXPECT_EQ(qc.collision_triggers, 0u);
}

TEST(SublinearCount, LiveWitnessDetectsTheOtherDuplicate) {
  const SublinearCountSSR proto = make_h1(16);
  SublinearCountSSR::Counters c;
  Rng rng(1);
  CState w, d0, d1;
  w.nc = proto.full_class();
  d0.nc = proto.dup_class(0);
  d1.nc = proto.dup_class(1);
  proto.interact(w, d0, rng, c);  // witness about dup_0
  ASSERT_EQ(c.collision_triggers, 0u);
  // Meeting dup_0 again just refreshes the witness: syncs would match.
  proto.interact(w, d0, rng, c);
  EXPECT_EQ(c.collision_triggers, 0u);
  EXPECT_EQ(w.wit_age, 1u);
  // Meeting the OTHER duplicate: syncs cannot match, collision.
  proto.interact(w, d1, rng, c);
  EXPECT_EQ(c.collision_triggers, 1u);
  EXPECT_EQ(w.role, SlRole::Resetting);  // line 3 resets both parties
  EXPECT_EQ(d1.role, SlRole::Resetting);
}

TEST(SublinearCount, WitnessDiesAtTheEdgeTimer) {
  const SublinearParams p = SublinearParams::constant_h(8, 1);
  const SublinearCountSSR proto(p, 1);
  SublinearCountSSR::Counters c;
  Rng rng(1);
  CState w, d0, other;
  w.nc = proto.full_class();
  d0.nc = proto.dup_class(0);
  other.nc = proto.full_class();
  proto.interact(w, d0, rng, c);
  ASSERT_EQ(w.wit_age, 1u);
  for (std::uint32_t i = 1; i + 1 < p.th; ++i) {
    proto.interact(w, other, rng, c);
    ASSERT_EQ(w.wit_age, i + 1) << "op " << i;
  }
  proto.interact(w, other, rng, c);  // age would reach TH: the edge expires
  EXPECT_EQ(w.wit_age, 0u);
  EXPECT_EQ(c.collision_triggers, 0u);
}

TEST(SublinearCount, DepthZeroKeepsOnlyTheDirectCheck) {
  const SublinearCountSSR proto = make_h1(16, /*depth=*/0);
  SublinearCountSSR::Counters c;
  Rng rng(1);
  CState w, d0, d1;
  w.nc = proto.full_class();
  d0.nc = proto.dup_class(0);
  d1.nc = proto.dup_class(1);
  proto.interact(w, d0, rng, c);
  EXPECT_EQ(w.wit_age, 0u);  // no witness automaton at depth 0
  proto.interact(w, d1, rng, c);
  EXPECT_EQ(c.collision_triggers, 0u);  // third parties detect nothing
  proto.interact(d0, d1, rng, c);
  EXPECT_EQ(c.collision_triggers, 1u);  // the duplicates themselves do
}

TEST(SublinearCount, ResetCycleMatchesTheConcreteLaw) {
  const SublinearCountSSR proto = make_h1(16);
  const SublinearParams& p = proto.params();
  SublinearCountSSR::Counters c;
  Rng rng(1);
  // Propagating agents clear and recruit; the recruit at rc = rmax-1 > 0
  // clears too (lines 10-12).
  CState a, b;
  a.nc = proto.full_class();
  b.role = SlRole::Resetting;
  b.resetcount = p.rmax;
  b.nc = proto.dup_class(1);
  proto.interact(a, b, rng, c);
  EXPECT_EQ(b.nc, 0u);
  EXPECT_EQ(a.role, SlRole::Resetting);
  EXPECT_EQ(a.resetcount, p.rmax - 1);
  EXPECT_EQ(a.nc, 0u);
  // Dormant agents regenerate one name-class step per interaction,
  // landing on unique-full (lines 13-14).
  CState x, y;
  for (CState* s : {&x, &y}) {
    s->role = SlRole::Resetting;
    s->resetcount = 0;
    s->delaytimer = p.dmax;
    s->nc = 0;
  }
  proto.interact(x, y, rng, c);
  EXPECT_EQ(x.nc, 1u);
  EXPECT_EQ(y.nc, 1u);
  EXPECT_GE(c.coin_bits, 2u);
  // Reset(a): back to a singleton-roster Collecting state, name kept.
  CState r;
  r.role = SlRole::Resetting;
  r.nc = proto.full_class();
  r.wit_age = 3;
  proto.reset_agent(r, c);
  EXPECT_EQ(r.role, SlRole::Collecting);
  EXPECT_EQ(r.bucket, 0u);
  EXPECT_EQ(r.wit_age, 0u);
  EXPECT_EQ(r.nc, proto.full_class());
}

TEST(SublinearCount, PassivePairsAreFixedPoints) {
  const SublinearCountSSR proto = make_h1(16);
  SublinearCountSSR::Counters c;
  Rng rng(1);
  CState a;
  a.nc = proto.full_class();
  a.bucket = proto.top_bucket();
  ASSERT_TRUE(proto.is_passive(a));
  CState b = a;
  ASSERT_TRUE(proto.is_null_pair(a, b));
  const std::uint32_t code = proto.encode(a);
  proto.interact(a, b, rng, c);
  EXPECT_EQ(proto.encode(a), code);
  EXPECT_EQ(proto.encode(b), code);
  EXPECT_EQ(c.collision_triggers + c.rank_updates + c.resets_executed, 0u);
  // Duplicates are never passive: detection must stay reachable.
  CState d;
  d.nc = proto.dup_class(0);
  d.bucket = proto.top_bucket();
  EXPECT_FALSE(proto.is_passive(d));
}

// --- Truncated-tree projection (collision_tree.h helpers) -------------------

TEST(TruncatedProjection, ShapeCodesIdentifyIsomorphicLiveTruncations) {
  const auto p = SublinearParams::constant_h(8, 1);
  const SublinearTimeSSR proto(p);
  SublinearTimeSSR::Counters c;
  Rng rng(3);
  const Name na = Name::from_bits(1, p.name_len);
  const Name nb = Name::from_bits(2, p.name_len);
  auto a1 = proto.make_collecting(na);
  auto b1 = proto.make_collecting(nb);
  auto a2 = proto.make_collecting(na);
  auto b2 = proto.make_collecting(nb);
  // Same meeting pattern => isomorphic truncations => equal codes.
  proto.interact(a1, b1, rng, c);
  proto.interact(a2, b2, rng, c);
  EXPECT_EQ(truncated_shape_code(a1.tree, 1),
            truncated_shape_code(a2.tree, 1));
  // Depth 0 erases the children: equal to a fresh tree of the same name.
  const auto fresh = proto.make_collecting(na);
  EXPECT_EQ(truncated_shape_code(a1.tree, 0),
            truncated_shape_code(fresh.tree, 0));
  // Depth 1 sees the new root edge: different from fresh.
  EXPECT_NE(truncated_shape_code(a1.tree, 1),
            truncated_shape_code(fresh.tree, 1));
  // Different root names => different codes.
  EXPECT_NE(truncated_shape_code(a1.tree, 1),
            truncated_shape_code(b1.tree, 1));
}

// --- Scenario plumbing: stamps, strategies, params --------------------------

TEST(SublinearCountScenario, EveryRecordIsStampedAbstracted) {
  ScenarioSpec spec;
  spec.protocol = "sublinear-h1-count";
  spec.init = "duplicate-names";
  spec.until = "detected";
  spec.n = 64;
  spec.trials = 4;
  spec.seed = 101;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.abstracted);
  EXPECT_EQ(r.backend, "batch");
  EXPECT_EQ(r.failed, 0u);

  spec.protocol = "sublinear-h1";  // the concrete protocol is not abstracted
  spec.engine = "array";
  const ScenarioResult concrete = run_scenario(spec);
  EXPECT_FALSE(concrete.abstracted);
}

TEST(SublinearCountScenario, TruncDepthParamAndGuards) {
  ScenarioSpec spec;
  spec.protocol = "sublinear-h1-count";
  spec.init = "duplicate-names";
  spec.until = "detected";
  spec.n = 32;
  spec.trials = 2;
  spec.seed = 303;
  spec.params = {{"trunc.depth", "0"}};
  const ScenarioResult r = run_scenario(spec);  // direct check still detects
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.abstracted);

  spec.params = {{"trunc.depth", "2"}};
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  spec.params = {{"synthetic_coin", "1"}};
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
}

// --- Quantified divergence ---------------------------------------------------
//
// Cross-form exactness where the quotient is lossless (the reset machinery:
// mid-reset and post-wave drains) is a row per family and n of
// tests/equivalence_table_test.cpp.

struct FamilyPair {
  const char* array_name;
  const char* count_name;
};
const FamilyPair kFamilies[] = {
    {"sublinear-h1", "sublinear-h1-count"},
    {"sublinear-hlog", "sublinear-hlog-count"},
};

ScenarioResult run_cell(const std::string& protocol, const std::string& init,
                        const std::string& until, std::uint32_t n,
                        std::uint64_t seed, std::uint32_t trials) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.init = init;
  spec.until = until;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  return run_scenario(spec);
}

// Detection latency is LOSSY (direction-2 of Detect-Name-Collision is
// dropped, which can only delay detection): quantify the divergence as a
// bounded constant factor instead of claiming equivalence. The count mean
// must stay the same order as the array's — sanity that the witness
// automaton carries the load — while the abstracted stamp (checked above)
// keeps these records out of strict baseline diffs.
TEST(SublinearCountDivergence, DetectionLatencySameOrderNeverFaster) {
  for (const FamilyPair& f : kFamilies) {
    const ScenarioResult array_r =
        run_cell(f.array_name, "duplicate-names", "detected", 64, 64001, 30);
    const ScenarioResult count_r =
        run_cell(f.count_name, "duplicate-names", "detected", 64, 64002, 30);
    const std::string what = std::string(f.count_name) + " detection n=64";
    ASSERT_EQ(array_r.failed, 0u) << what;
    ASSERT_EQ(count_r.failed, 0u) << what;
    EXPECT_GT(count_r.summary.mean, 0.0) << what;
    // Dropping a detection direction cannot speed detection up beyond
    // noise, and the remaining direction keeps it within a small factor.
    EXPECT_GT(count_r.summary.mean + count_r.summary.ci95,
              0.5 * array_r.summary.mean)
        << what;
    EXPECT_LT(count_r.summary.mean, 8.0 * array_r.summary.mean) << what;
  }
}

}  // namespace
}  // namespace ppsim
