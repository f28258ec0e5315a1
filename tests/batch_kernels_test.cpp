// Unit tests for the sampling kernels of core/batch_kernels.h: the flat
// hash map, the occupied-code pool, the exact birthday-problem prefix
// sampler, the extracted pair sampler, the multinomial batch kernel's
// conservation/bookkeeping invariants (its distributional exactness is
// cross-validated against the other engines in
// tests/engine_equivalence_test.cpp), and the occupied pool's reset/reload
// path (the tau-leaping engine loads its active-unit pool through it).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/batch_kernels.h"
#include "core/batch_simulation.h"
#include "core/discrete_samplers.h"
#include "core/rng.h"
#include "processes/epidemic.h"
#include "protocols/optimal_silent.h"

namespace ppsim {
namespace {

// --- FlatMap64 --------------------------------------------------------------

TEST(FlatMap64, InsertFindAddClear) {
  FlatMap64 m;
  EXPECT_TRUE(m.empty());
  bool inserted = false;
  const std::uint32_t slot = m.find_or_insert(42, 7, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(m.value_at(slot), 7u);
  m.find_or_insert(42, 99, &inserted);
  EXPECT_FALSE(inserted);  // existing value kept
  EXPECT_EQ(*m.find(42), 7u);
  EXPECT_EQ(m.find(43), nullptr);
  m.add(42, -3);
  EXPECT_EQ(static_cast<std::int64_t>(*m.find(42)), 4);
  m.add(1000, 5);
  EXPECT_EQ(m.size(), 2u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
}

TEST(FlatMap64, GrowsAndKeepsInsertionOrder) {
  FlatMap64 m;
  const std::uint64_t n = 1000;
  for (std::uint64_t k = 0; k < n; ++k) m.find_or_insert(k * 977 + 3, k);
  ASSERT_EQ(m.size(), n);
  // Iteration follows insertion order even across growth rehashes.
  std::uint64_t expect = 0;
  for (std::uint32_t slot : m.entry_slots()) {
    EXPECT_EQ(m.key_at(slot), expect * 977 + 3);
    EXPECT_EQ(m.value_at(slot), expect);
    ++expect;
  }
  for (std::uint64_t k = 0; k < n; ++k)
    ASSERT_NE(m.find(k * 977 + 3), nullptr);
}

// --- OccupiedPool -----------------------------------------------------------

TEST(OccupiedPool, BuildDrawRestoreConserves) {
  std::vector<std::uint64_t> counts = {0, 5, 0, 3, 2, 0};
  OccupiedPool pool;
  EXPECT_FALSE(pool.built());
  pool.build(counts);
  EXPECT_TRUE(pool.built());
  EXPECT_EQ(pool.total(), 10u);
  EXPECT_EQ(pool.occupied(), 3u);

  Rng rng(3);
  std::vector<std::uint64_t> drawn(6, 0);
  for (int i = 0; i < 10; ++i) ++drawn[pool.code_at(pool.draw_remove(rng))];
  EXPECT_EQ(pool.total(), 0u);  // everything removed
  EXPECT_EQ(drawn[1], 5u);      // without replacement: exact multiset
  EXPECT_EQ(drawn[3], 3u);
  EXPECT_EQ(drawn[4], 2u);
  pool.restore_removed();
  EXPECT_EQ(pool.total(), 10u);
}

TEST(OccupiedPool, ApplyDeltaCreatesSlotsAndCompacts) {
  std::vector<std::uint64_t> counts(300, 0);
  for (std::uint32_t c = 0; c < 150; ++c) counts[c] = 1;
  OccupiedPool pool;
  pool.build(counts);
  EXPECT_EQ(pool.occupied(), 150u);
  // Move everything onto a single fresh code: lots of zero slots, then a
  // compaction.
  for (std::uint32_t c = 0; c < 150; ++c) {
    pool.apply_delta(c, -1);
    pool.apply_delta(200 + (c % 3), +1);
  }
  EXPECT_EQ(pool.total(), 150u);
  EXPECT_EQ(pool.occupied(), 3u);
  // Compaction halves the dead slots repeatedly until the 64-slot floor.
  EXPECT_LE(pool.slots(), 64u);
  std::uint32_t code = 0;
  EXPECT_FALSE(pool.single_occupied(code));
  pool.apply_delta(200, +0);  // no-op
  Rng rng(5);
  std::vector<std::uint64_t> drawn(300, 0);
  for (int i = 0; i < 150; ++i) ++drawn[pool.code_at(pool.draw_remove(rng))];
  EXPECT_EQ(drawn[200] + drawn[201] + drawn[202], 150u);
  pool.restore_removed();
}

TEST(OccupiedPool, SingleOccupied) {
  std::vector<std::uint64_t> counts = {0, 0, 8};
  OccupiedPool pool;
  pool.build(counts);
  std::uint32_t code = 0;
  ASSERT_TRUE(pool.single_occupied(code));
  EXPECT_EQ(code, 2u);
  pool.apply_delta(0, +1);
  EXPECT_FALSE(pool.single_occupied(code));
}

// --- SegmentedPool segment API (ISSUE 6) ------------------------------------

// Shared invariant: the per-segment weight subtotals partition the pool
// total exactly, every member of a segment shares code >> kSegShift, and
// members are sorted by code within their segment. Checked after every
// mutation phase below — the subtotals are what the segmented samplers
// (split_segmented) trust blindly.
void expect_segment_invariants(const OccupiedPool& pool) {
  std::uint64_t total = 0;
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg) {
    std::uint64_t subtotal = 0;
    bool first = true;
    std::uint32_t prev = 0, span = 0;
    for (std::uint32_t slot : pool.segment_slots(seg)) {
      const std::uint32_t code = pool.code_at(slot);
      if (first) {
        span = code >> OccupiedPool::kSegShift;
      } else {
        ASSERT_LT(prev, code) << "segment " << seg << " members unsorted";
        ASSERT_EQ(code >> OccupiedPool::kSegShift, span)
            << "segment " << seg << " mixes code spans";
      }
      first = false;
      prev = code;
      subtotal += pool.weight_at(slot);
    }
    ASSERT_EQ(subtotal, pool.segment_weight(seg))
        << "segment " << seg << " subtotal drifted";
    total += subtotal;
  }
  ASSERT_EQ(total, pool.total()) << "segment subtotals do not partition";
}

TEST(SegmentedPool, BuildGroupsByCodeSpan) {
  std::vector<std::uint64_t> counts(1200, 0);
  counts[3] = 7;
  counts[250] = 2;   // same 256-code span as code 3
  counts[256] = 11;  // first code of the next span
  counts[300] = 4;
  counts[1100] = 6;  // span 4
  OccupiedPool pool;
  pool.build(counts);
  EXPECT_EQ(pool.segment_count(), 3u);
  EXPECT_EQ(pool.total(), 30u);
  EXPECT_EQ(pool.occupied(), 5u);
  expect_segment_invariants(pool);
}

TEST(SegmentedPool, PickInSegmentCoversEveryMember) {
  std::vector<std::uint64_t> counts(600, 0);
  counts[10] = 3;
  counts[20] = 1;
  counts[200] = 5;
  counts[512] = 4;
  counts[599] = 2;
  OccupiedPool pool;
  pool.build(counts);
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg) {
    // Both edge targets of every member's cumulative range must land on it.
    std::uint64_t cum = 0;
    for (std::uint32_t slot : pool.segment_slots(seg)) {
      const std::uint64_t w = pool.weight_at(slot);
      if (w == 0) continue;
      EXPECT_EQ(pool.pick_in_segment(seg, cum), slot);
      EXPECT_EQ(pool.pick_in_segment(seg, cum + w - 1), slot);
      cum += w;
    }
    EXPECT_EQ(cum, pool.segment_weight(seg));
  }
}

// Split / merge / rejoin round trip through the segment API: dealing a
// pool's members into two part pools and folding them back conserves
// every per-code weight, and all three pools keep consistent subtotals
// throughout.
TEST(SegmentedPool, SplitMergeRejoinConserves) {
  std::vector<std::uint64_t> counts(2048, 0);
  Rng fill(71);
  for (int i = 0; i < 120; ++i)
    counts[fill.below(2048)] += 1 + fill.below(9);
  OccupiedPool pool, part_a, part_b, rejoined;
  pool.build(counts);
  part_a.reset();
  part_b.reset();
  rejoined.reset();
  expect_segment_invariants(pool);

  Rng rng(72);
  std::uint64_t moved_a = 0, moved_b = 0;
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg) {
    for (std::uint32_t slot : pool.segment_slots(seg)) {
      const std::uint32_t code = pool.code_at(slot);
      const std::uint64_t w = pool.weight_at(slot);
      if (w == 0) continue;
      // Random split of this member's weight between the two parts.
      const std::uint64_t to_a = rng.below(w + 1);
      if (to_a) part_a.apply_delta(code, static_cast<std::int64_t>(to_a));
      if (w - to_a)
        part_b.apply_delta(code, static_cast<std::int64_t>(w - to_a));
      moved_a += to_a;
      moved_b += w - to_a;
    }
  }
  EXPECT_EQ(part_a.total(), moved_a);
  EXPECT_EQ(part_b.total(), moved_b);
  EXPECT_EQ(moved_a + moved_b, pool.total());
  expect_segment_invariants(part_a);
  expect_segment_invariants(part_b);

  // Rejoin both parts; per-code weights must match the original exactly.
  for (const OccupiedPool* part : {&part_a, &part_b})
    for (std::uint32_t seg = 0; seg < part->segment_count(); ++seg)
      for (std::uint32_t slot : part->segment_slots(seg))
        if (part->weight_at(slot) > 0)
          rejoined.apply_delta(
              part->code_at(slot),
              static_cast<std::int64_t>(part->weight_at(slot)));
  expect_segment_invariants(rejoined);
  EXPECT_EQ(rejoined.total(), pool.total());
  for (std::uint32_t code = 0; code < 2048; ++code)
    ASSERT_EQ(rejoined.weight_of(code), counts[code]) << "code " << code;
}

// Subtotals stay consistent through the full mutation surface:
// draw_remove, remove_bulk, restore_removed, weight-moving apply_delta
// (including fresh segments and the zero-slot compaction path).
TEST(SegmentedPool, ChurnKeepsSubtotalsConsistent) {
  std::vector<std::uint64_t> counts(4096, 0);
  Rng fill(81);
  for (int i = 0; i < 200; ++i) counts[fill.below(4096)] += 1 + fill.below(5);
  OccupiedPool pool;
  pool.build(counts);
  const std::uint64_t original_total = pool.total();
  expect_segment_invariants(pool);

  // Weighted without-replacement draws.
  Rng rng(82);
  for (int i = 0; i < 64; ++i) {
    pool.draw_remove(rng);
    expect_segment_invariants(pool);
  }
  pool.restore_removed();
  expect_segment_invariants(pool);
  EXPECT_EQ(pool.total(), original_total);

  // Bulk removal of one member's remaining weight, then restore.
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg) {
    if (pool.segment_weight(seg) == 0) continue;
    const std::uint32_t slot =
        pool.pick_in_segment(seg, pool.segment_weight(seg) - 1);
    pool.remove_bulk(slot, pool.weight_at(slot));
    expect_segment_invariants(pool);
    break;
  }
  pool.restore_removed();
  expect_segment_invariants(pool);
  EXPECT_EQ(pool.total(), original_total);

  // Move everything onto a handful of fresh codes: drains all original
  // segments to zero (compaction trigger) and creates new segments.
  for (std::uint32_t code = 0; code < 4096; ++code) {
    const std::uint64_t w = pool.weight_of(code);
    if (w == 0 || code >= 4000) continue;
    pool.apply_delta(code, -static_cast<std::int64_t>(w));
    pool.apply_delta(4000 + (code % 7), static_cast<std::int64_t>(w));
  }
  expect_segment_invariants(pool);
  EXPECT_EQ(pool.total(), original_total);
  // All remaining weight sits at codes 4000..4095: exactly one live
  // segment (drained segments may linger at weight 0 until compaction).
  std::uint32_t live_segments = 0;
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg)
    if (pool.segment_weight(seg) > 0) ++live_segments;
  EXPECT_EQ(live_segments, 1u);
}

// --- Collision-free prefix --------------------------------------------------

TEST(CollisionPrefix, ExactPmfAtN4) {
  // n = 4: p_0 = 1, p_1 = (2)(1)/12 = 1/6, p_2 = 0, so
  // P[L = 1] = 5/6, P[L = 2] = 1/6.
  Rng rng(17);
  CollisionPrefixSampler prefix;
  prefix.build(4);
  EXPECT_TRUE(prefix.built_for(4));
  EXPECT_FALSE(prefix.built_for(5));
  const std::uint32_t trials = 120'000;
  std::uint32_t ones = 0, twos = 0;
  for (std::uint32_t i = 0; i < trials; ++i) {
    const std::uint64_t l = prefix.sample(rng);
    ASSERT_GE(l, 1u);
    ASSERT_LE(l, 2u);
    if (l == 1)
      ++ones;
    else
      ++twos;
  }
  const double f1 = static_cast<double>(ones) / trials;
  EXPECT_NEAR(f1, 5.0 / 6.0, 5.0 * std::sqrt((5.0 / 36.0) / trials));
  EXPECT_EQ(ones + twos, trials);
}

TEST(CollisionPrefix, MeanMatchesAnalyticAtN10000) {
  // E[L] = sum_i P[L >= i] = sum_i prod_{j<i} p_j, computed directly.
  const std::uint64_t n = 10'000;
  double expect = 0.0, g = 1.0;
  for (std::uint64_t l = 0;; ++l) {
    const double fresh = static_cast<double>(n) - 2.0 * l;
    if (fresh < 2.0) break;
    g *= fresh * (fresh - 1.0) /
         (static_cast<double>(n) * static_cast<double>(n - 1));
    if (g < 1e-16) break;
    expect += g;  // adds P[L >= l+1]
  }
  Rng rng(19);
  CollisionPrefixSampler prefix;
  prefix.build(n);
  const std::uint32_t trials = 40'000;
  double sum = 0.0, sum2 = 0.0;
  for (std::uint32_t i = 0; i < trials; ++i) {
    const double l = static_cast<double>(prefix.sample(rng));
    sum += l;
    sum2 += l * l;
  }
  const double mean = sum / trials;
  const double sd = std::sqrt(sum2 / trials - mean * mean);
  EXPECT_NEAR(mean, expect, 5.0 * sd / std::sqrt(trials));
  // Sanity: the prefix is Theta(sqrt(n)).
  EXPECT_GT(expect, 0.3 * std::sqrt(static_cast<double>(n)));
  EXPECT_LT(expect, 1.0 * std::sqrt(static_cast<double>(n)));
}

// --- sample_ordered_state_pair ----------------------------------------------

TEST(PairSampler, MatchesSchedulerPushforward) {
  // counts = {2, 3}, n = 5: P[(0,0)] = 2*1/20, P[(0,1)] = 2*3/20,
  // P[(1,0)] = 3*2/20, P[(1,1)] = 3*2/20.
  WeightedSampler s(2);
  s.add(0, 2);
  s.add(1, 3);
  Rng rng(23);
  const std::uint32_t trials = 200'000;
  std::uint32_t freq[2][2] = {{0, 0}, {0, 0}};
  for (std::uint32_t i = 0; i < trials; ++i) {
    const auto [a, b] = sample_ordered_state_pair(rng, s, 5);
    ++freq[a][b];
  }
  const double expect[2][2] = {{2.0 / 20, 6.0 / 20}, {6.0 / 20, 6.0 / 20}};
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const double f = static_cast<double>(freq[a][b]) / trials;
      const double e = expect[a][b];
      EXPECT_NEAR(f, e, 5.0 * std::sqrt(e * (1 - e) / trials))
          << "(" << a << "," << b << ")";
    }
  // The sampler is restored after each draw.
  EXPECT_EQ(s.total(), 5u);
}

// --- MultinomialKernel ------------------------------------------------------

TEST(MultinomialKernel, OneWayEpidemicConservesAndProgresses) {
  const std::uint32_t n = 64;
  OneWayEpidemic proto(n);
  std::vector<std::uint64_t> counts = one_way_epidemic_counts(n, 1);
  MultinomialKernel<OneWayEpidemic> kernel;
  Rng rng(29);
  NoCounters nc;
  std::vector<CountDelta> deltas;
  std::uint64_t interactions = 0;
  std::uint64_t prev_infected = 1;
  while (counts[1] < n && interactions < (1u << 22)) {
    deltas.clear();
    interactions += kernel.run_batch(proto, counts, rng, nc, deltas);
    ASSERT_EQ(counts[0] + counts[1], n);  // population conserved
    ASSERT_GE(counts[1], prev_infected);  // infections never undone
    prev_infected = counts[1];
    for (const CountDelta& d : deltas) ASSERT_LT(d.code, 2u);
  }
  EXPECT_EQ(counts[1], n);  // completed
  // ~n ln n interactions, not wildly off.
  const double expect = n * std::log(n);
  EXPECT_GT(static_cast<double>(interactions), 0.2 * expect);
  EXPECT_LT(static_cast<double>(interactions), 30.0 * expect);
}

TEST(MultinomialKernel, OptimalSilentBatchesPreserveInvariants) {
  const std::uint32_t n = 256;
  // Small timer constants so the countdown machinery (timeouts, resets,
  // recruits) actually fires within the test's batch budget.
  OptimalSilentParams params;
  params.n = n;
  params.emax = 64;
  params.dmax = 64;
  params.rmax = 8;
  OptimalSilentSSR proto(params);
  // All-Unsettled start: the timer-heavy regime (every pair active).
  std::vector<std::uint64_t> counts(proto.num_states(), 0);
  OptimalSilentSSR::State u;
  u.role = OsRole::Unsettled;
  u.errorcount = params.emax;
  counts[proto.encode(u)] = n;

  MultinomialKernel<OptimalSilentSSR> kernel;
  Rng rng(31);
  OptimalSilentSSR::Counters c{};
  std::vector<CountDelta> deltas;
  std::uint64_t interactions = 0;
  for (int batch = 0; batch < 2000; ++batch) {
    deltas.clear();
    const std::uint64_t consumed =
        kernel.run_batch(proto, counts, rng, c, deltas);
    ASSERT_GE(consumed, 2u);  // prefix >= 1 plus the collision
    interactions += consumed;
    std::uint64_t total = 0;
    std::int64_t delta_sum = 0;
    for (std::uint64_t m : counts) total += m;
    for (const CountDelta& d : deltas) delta_sum += d.delta;
    ASSERT_EQ(total, n);        // population conserved
    ASSERT_EQ(delta_sum, 0);    // deltas are a closed rearrangement
  }
  // Batches amortize ~sqrt(n)+ interactions each.
  EXPECT_GT(interactions, 2000ull * 5);
  // The countdown ticked: timeout triggers eventually fire at errorcount 0
  // after ~emax ticks per agent; at least *some* protocol events were
  // counted through the scaled cache path.
  EXPECT_GT(c.timeout_triggers + c.resets_executed + c.recruits, 0u);
}

static_assert(MultinomialKernel<OptimalSilentSSR>::kCacheable);
static_assert(MultinomialKernel<OneWayEpidemic>::kCacheable);

// --- Occupied pool reset / reload ------------------------------------------
// (The ShardMerge suite name is kept from the shard merge kernels these
// tests were first written against.)

// Split/rejoin round trip through reset(): partitioning a pool's occupied
// counts uniformly at random into parts, reloading each part into an empty
// pool, and folding them back conserves every count, and no phantom
// occupied codes appear on either side.
TEST(ShardMerge, OccupiedPoolSplitRejoinInvariants) {
  std::vector<std::uint64_t> counts(500, 0);
  counts[2] = 40;
  counts[77] = 1;
  counts[140] = 25;
  counts[499] = 34;  // total 100
  OccupiedPool pool;
  pool.build(counts);
  EXPECT_EQ(pool.total(), 100u);
  EXPECT_EQ(pool.weight_of(2), 40u);
  EXPECT_EQ(pool.weight_of(3), 0u);  // unoccupied code has no weight

  // Occupied snapshot.
  std::vector<std::uint32_t> occ_codes;
  std::vector<std::uint64_t> occ_counts;
  for (std::uint32_t slot = 0; slot < pool.slots(); ++slot)
    if (pool.weight_at(slot) > 0) {
      occ_codes.push_back(pool.code_at(slot));
      occ_counts.push_back(pool.weight_at(slot));
    }
  ASSERT_EQ(occ_codes.size(), 4u);

  // Uniform partition into fixed-size parts: each part draws its codes
  // from what the earlier parts left, one conditional hypergeometric per
  // code (the exact chain rule).
  Rng rng(99);
  const std::vector<std::uint64_t> sizes = {26, 25, 25, 24};
  std::vector<std::uint64_t> left = occ_counts;
  std::vector<std::vector<std::uint64_t>> parts(sizes.size());
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    std::uint64_t rest = 0;
    for (std::uint64_t c : left) rest += c;
    std::uint64_t want = sizes[t];
    parts[t].assign(left.size(), 0);
    for (std::size_t i = 0; i < left.size(); ++i) {
      rest -= left[i];
      parts[t][i] = sample_hypergeometric(rng, left[i], rest, want);
      want -= parts[t][i];
      left[i] -= parts[t][i];
    }
  }

  // Load each part into its own pool via reset(): per-part totals match
  // the part sizes and only allocated codes are occupied.
  std::vector<std::uint64_t> recombined(occ_codes.size(), 0);
  for (std::size_t t = 0; t < parts.size(); ++t) {
    OccupiedPool part_pool;
    part_pool.reset();
    std::uint64_t loaded = 0;
    for (std::size_t i = 0; i < occ_codes.size(); ++i) {
      if (parts[t][i] == 0) continue;
      part_pool.apply_delta(occ_codes[i],
                            static_cast<std::int64_t>(parts[t][i]));
      loaded += parts[t][i];
      recombined[i] += parts[t][i];
    }
    EXPECT_EQ(part_pool.total(), sizes[t]) << "part " << t;
    EXPECT_EQ(loaded, sizes[t]) << "part " << t;
    EXPECT_EQ(part_pool.weight_of(3), 0u);  // no phantom codes
    std::uint64_t occupied_weight = 0;
    for (std::uint32_t slot = 0; slot < part_pool.slots(); ++slot)
      occupied_weight += part_pool.weight_at(slot);
    EXPECT_EQ(occupied_weight, sizes[t]) << "part " << t;
  }
  // Rejoin: per-code counts conserved exactly.
  EXPECT_EQ(recombined, occ_counts);
}

TEST(ShardMerge, OccupiedPoolResetClearsEverything) {
  std::vector<std::uint64_t> counts = {0, 5, 0, 3};
  OccupiedPool pool;
  pool.build(counts);
  Rng rng(7);
  pool.draw_remove(rng);
  pool.restore_removed();
  pool.reset();
  EXPECT_TRUE(pool.built());
  EXPECT_EQ(pool.total(), 0u);
  EXPECT_EQ(pool.occupied(), 0u);
  EXPECT_EQ(pool.weight_of(1), 0u);
  pool.apply_delta(9, 4);
  EXPECT_EQ(pool.total(), 4u);
  EXPECT_EQ(pool.weight_of(9), 4u);
}

}  // namespace
}  // namespace ppsim
