// Unit tests for the core substrate: RNG, scheduler, rank tracker,
// statistics, and table printing.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "analysis/convergence.h"
#include "core/rank_tracker.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/stats.h"
#include "core/table.h"

namespace ppsim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) {
      const auto v = rng.below(bound);
      EXPECT_LT(v, bound);
    }
  }
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(11);
  constexpr int kBound = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBound)];
  // Chi-square with 9 dof; 99.9% critical value ~ 27.9.
  double chi2 = 0;
  const double expected = static_cast<double>(kDraws) / kBound;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(5, 8));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 5u);
  EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, CoinIsFair) {
  Rng rng(19);
  int heads = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.coin()) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.5, 0.01);
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(1, 3), derive_seed(1, 3));
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, DeriveSeedStreamsAreIndependent) {
  // Every distinct stream of the same base must give a distinct seed, and
  // the derived streams must not be shifted copies of each other: generators
  // seeded from adjacent streams share (almost) no outputs in a long prefix.
  const std::uint64_t base = 0xfeedfacecafebeefULL;
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 256; ++s)
    seeds.insert(derive_seed(base, s));
  EXPECT_EQ(seeds.size(), 256u);

  Rng a(derive_seed(base, 0)), b(derive_seed(base, 1));
  std::set<std::uint64_t> outputs_a;
  for (int i = 0; i < 1000; ++i) outputs_a.insert(a());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i)
    if (outputs_a.count(b())) ++collisions;
  EXPECT_LT(collisions, 3);
}

TEST(Scheduler, RejectsTinyPopulations) {
  EXPECT_THROW(UniformScheduler(0), std::invalid_argument);
  EXPECT_THROW(UniformScheduler(1), std::invalid_argument);
  EXPECT_NO_THROW(UniformScheduler(2));
}

TEST(Scheduler, NeverPairsAgentWithItself) {
  Rng rng(23);
  UniformScheduler sched(5);
  for (int i = 0; i < 10000; ++i) {
    const AgentPair p = sched.next(rng);
    EXPECT_NE(p.initiator, p.responder);
    EXPECT_LT(p.initiator, 5u);
    EXPECT_LT(p.responder, 5u);
  }
}

TEST(Scheduler, OrderedPairsAreUniform) {
  Rng rng(29);
  constexpr std::uint32_t kN = 4;
  UniformScheduler sched(kN);
  std::map<std::pair<int, int>, int> counts;
  constexpr int kDraws = 120000;
  for (int i = 0; i < kDraws; ++i) {
    const AgentPair p = sched.next(rng);
    ++counts[{p.initiator, p.responder}];
  }
  EXPECT_EQ(counts.size(), kN * (kN - 1));
  const double expected = static_cast<double>(kDraws) / (kN * (kN - 1));
  double chi2 = 0;
  for (const auto& [pair, c] : counts)
    chi2 += (c - expected) * (c - expected) / expected;
  // 11 dof, 99.9% critical value ~ 31.3.
  EXPECT_LT(chi2, 31.3);
}

TEST(RankTracker, DetectsPermutation) {
  RankTracker t(3);
  std::vector<int> ranks = {1, 2, 3};
  t.reset(ranks, [](int r) { return static_cast<std::uint32_t>(r); });
  EXPECT_TRUE(t.is_permutation());
}

TEST(RankTracker, DetectsDuplicatesAndZeros) {
  RankTracker t(3);
  std::vector<int> ranks = {1, 1, 3};
  t.reset(ranks, [](int r) { return static_cast<std::uint32_t>(r); });
  EXPECT_FALSE(t.is_permutation());
  ranks = {0, 2, 3};
  t.reset(ranks, [](int r) { return static_cast<std::uint32_t>(r); });
  EXPECT_FALSE(t.is_permutation());
}

TEST(RankTracker, IncrementalMatchesFullRecount) {
  constexpr std::uint32_t kN = 6;
  Rng rng(31);
  std::vector<std::uint32_t> ranks(kN, 0);
  RankTracker t(kN);
  t.reset(ranks, [](std::uint32_t r) { return r; });
  for (int step = 0; step < 5000; ++step) {
    const auto agent = static_cast<std::size_t>(rng.below(kN));
    const auto new_rank = static_cast<std::uint32_t>(rng.below(kN + 1));
    t.on_change(ranks[agent], new_rank);
    ranks[agent] = new_rank;
    // Recompute from scratch.
    std::vector<bool> seen(kN + 1, false);
    bool perm = true;
    for (auto r : ranks) {
      if (r == 0 || seen[r]) {
        perm = false;
        break;
      }
      seen[r] = true;
    }
    ASSERT_EQ(t.is_permutation(), perm) << "diverged at step " << step;
  }
}

// apply_delta updates a rank's count in one go; it must agree with
// applying the same delta one agent at a time, for +-1, +-k and moves to
// and from an empty rank, on rank 0 and on every rank 1..n.
TEST(RankTracker, ApplyDeltaMatchesLoopedForm) {
  constexpr std::uint32_t kN = 5;
  RankTracker bulk(kN);
  RankTracker looped(kN);
  auto apply = [&](std::uint32_t rank, std::int64_t delta) {
    bulk.apply_delta(rank, delta);
    for (std::int64_t k = 0; k < delta; ++k) looped.apply_delta(rank, +1);
    for (std::int64_t k = 0; k > delta; --k) looped.apply_delta(rank, -1);
    for (std::uint32_t r = 0; r <= kN; ++r)
      ASSERT_EQ(bulk.count_of(r), looped.count_of(r))
          << "rank " << r << " after delta " << delta << " on " << rank;
    ASSERT_EQ(bulk.is_permutation(), looped.is_permutation())
        << "delta " << delta << " on rank " << rank;
  };
  for (std::uint32_t rank = 0; rank <= kN; ++rank) {
    apply(rank, +1);  // 0 -> 1
    apply(rank, +3);  // 1 -> 4
    apply(rank, -2);  // 4 -> 2
    apply(rank, -1);  // 2 -> 1
    apply(rank, -1);  // 1 -> 0
    apply(rank, +4);  // 0 -> 4
    apply(rank, -4);  // 4 -> 0
    apply(rank, +2);  // 0 -> 2
    apply(rank, -1);  // 2 -> 1: rank 0 stays "unranked"
  }
  // Every rank 0..n now holds one agent; ranks 1..n form a permutation.
  EXPECT_TRUE(bulk.is_permutation());
  apply(3, +2);  // 1 -> 3 breaks it
  EXPECT_FALSE(bulk.is_permutation());
  apply(3, -2);  // 3 -> 1 restores it
  EXPECT_TRUE(bulk.is_permutation());
  apply(2, -1);  // 1 -> 0 breaks it
  EXPECT_FALSE(bulk.is_permutation());
  EXPECT_THROW(bulk.apply_delta(kN + 1, +1), std::out_of_range);
}

TEST(RankTracker, RejectsOutOfRangeRanks) {
  RankTracker t(3);
  EXPECT_THROW(t.on_change(0, 4), std::out_of_range);
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryThrowsOnEmpty) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
}

TEST(Stats, QuantileOfSingletonIsThatElement) {
  const std::vector<double> xs = {7.5};
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(quantile_sorted(xs, q), 7.5);
}

TEST(Stats, QuantileThrowsOnEmpty) {
  EXPECT_THROW(quantile_sorted({}, 0.5), std::invalid_argument);
}

TEST(Stats, LineFitRecoversExactLine) {
  const LinearFit f = fit_line({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, PowerLawFitRecoversExponent) {
  std::vector<double> ns, ts;
  for (double n : {16.0, 32.0, 64.0, 128.0}) {
    ns.push_back(n);
    ts.push_back(0.5 * n * n);  // exponent 2
  }
  const LinearFit f = fit_power_law(ns, ts);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
}

TEST(Stats, HarmonicNumber) {
  EXPECT_DOUBLE_EQ(harmonic_number(1), 1.0);
  EXPECT_NEAR(harmonic_number(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  EXPECT_NEAR(harmonic_number(1000), std::log(1000.0) + 0.5772, 1e-3);
}

TEST(Table, PrintsAlignedCells) {
  Table t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(Table, FmtFormats) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

// A toy protocol to exercise the Simulation engine end to end.
struct ToyCounterProtocol {
  struct State {
    std::uint32_t hits = 0;
  };
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  void interact(State& a, State& b, Rng&) const {
    ++a.hits;
    ++b.hits;
  }
  std::uint32_t rank_of(const State&) const { return 0; }
};

TEST(Simulation, CountsInteractionsAndParallelTime) {
  ToyCounterProtocol proto{10};
  Simulation<ToyCounterProtocol> sim(proto,
                                     std::vector<ToyCounterProtocol::State>(10),
                                     99);
  sim.run(250);
  EXPECT_EQ(sim.interactions(), 250u);
  EXPECT_DOUBLE_EQ(sim.parallel_time(), 25.0);
  std::uint64_t total_hits = 0;
  for (const auto& s : sim.states()) total_hits += s.hits;
  EXPECT_EQ(total_hits, 500u);  // two agents per interaction
}

TEST(Simulation, RunUntilStopsAtPredicate) {
  ToyCounterProtocol proto{5};
  Simulation<ToyCounterProtocol> sim(proto,
                                     std::vector<ToyCounterProtocol::State>(5),
                                     7);
  const bool fired = run_until(sim,
      [](const auto& s) { return s.interactions() >= 42; }, 1000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.interactions(), 42u);
}

TEST(Simulation, RejectsMismatchedInitialConfiguration) {
  ToyCounterProtocol proto{5};
  EXPECT_THROW(Simulation<ToyCounterProtocol>(
                   proto, std::vector<ToyCounterProtocol::State>(4), 1),
               std::invalid_argument);
}

TEST(Simulation, ReproducibleAcrossEqualSeeds) {
  ToyCounterProtocol proto{8};
  Simulation<ToyCounterProtocol> a(proto,
                                   std::vector<ToyCounterProtocol::State>(8),
                                   5);
  Simulation<ToyCounterProtocol> b(proto,
                                   std::vector<ToyCounterProtocol::State>(8),
                                   5);
  a.run(1000);
  b.run(1000);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(a.states()[i].hits, b.states()[i].hits);
}

}  // namespace
}  // namespace ppsim
