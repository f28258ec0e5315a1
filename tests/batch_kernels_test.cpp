// Unit tests for the sampling kernels of core/batch_kernels.h: the
// occupied-code pool and the extracted pair sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/batch_kernels.h"
#include "core/rng.h"

namespace ppsim {
namespace {

// --- SegmentedPool (suite name OccupiedPool) --------------------------------

TEST(OccupiedPool, BuildDrawRestoreConserves) {
  std::vector<std::uint64_t> counts = {0, 5, 0, 3, 2, 0};
  SegmentedPool pool;
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

// --- SegmentedPool segment API -------------------------------------------

// Shared invariant: the per-segment weight subtotals partition the pool
// total exactly, every member of a segment shares code >> kSegShift, and
// members are sorted by code within their segment. Checked after every
// draw and restore below — the subtotals are what draw_remove trusts
// blindly.
void expect_segment_invariants(const SegmentedPool& pool) {
  std::uint64_t total = 0;
  for (std::uint32_t seg = 0; seg < pool.segment_count(); ++seg) {
    std::uint64_t subtotal = 0;
    bool first = true;
    std::uint32_t prev = 0, span = 0;
    for (std::uint32_t slot : pool.segment_slots(seg)) {
      const std::uint32_t code = pool.code_at(slot);
      if (first) {
        span = code >> SegmentedPool::kSegShift;
      } else {
        ASSERT_LT(prev, code) << "segment " << seg << " members unsorted";
        ASSERT_EQ(code >> SegmentedPool::kSegShift, span)
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
  SegmentedPool pool;
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
  SegmentedPool pool;
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

// Subtotals stay consistent through weighted without-replacement draws
// and their restore.
TEST(SegmentedPool, ChurnKeepsSubtotalsConsistent) {
  std::vector<std::uint64_t> counts(4096, 0);
  Rng fill(81);
  for (int i = 0; i < 200; ++i) counts[fill.below(4096)] += 1 + fill.below(5);
  SegmentedPool pool;
  pool.build(counts);
  const std::uint64_t original_total = pool.total();
  expect_segment_invariants(pool);

  Rng rng(82);
  for (int i = 0; i < 64; ++i) {
    pool.draw_remove(rng);
    expect_segment_invariants(pool);
  }
  pool.restore_removed();
  expect_segment_invariants(pool);
  EXPECT_EQ(pool.total(), original_total);
  for (std::uint32_t slot = 0; slot < pool.occupied(); ++slot)
    EXPECT_EQ(pool.weight_at(slot), counts[pool.code_at(slot)]);
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

}  // namespace
}  // namespace ppsim
