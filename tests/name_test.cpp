// Unit tests for packed names and rosters (Section 5.1 data structures).
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/name.h"
#include "common/roster.h"
#include "core/rng.h"

namespace ppsim {
namespace {

TEST(Name, EmptyByDefault) {
  Name n;
  EXPECT_TRUE(n.empty());
  EXPECT_EQ(n.length(), 0u);
  EXPECT_EQ(n.to_string(), "eps");
}

TEST(Name, AppendBitsBuildsString) {
  Name n;
  n.append_bit(true);
  n.append_bit(false);
  n.append_bit(true);
  EXPECT_EQ(n.length(), 3u);
  EXPECT_EQ(n.to_string(), "101");
  EXPECT_TRUE(n.bit(0));
  EXPECT_FALSE(n.bit(1));
  EXPECT_TRUE(n.bit(2));
}

TEST(Name, FromBitsMatchesAppend) {
  const Name a = Name::from_bits(0b101, 3);
  Name b;
  b.append_bit(true);
  b.append_bit(false);
  b.append_bit(true);
  EXPECT_EQ(a, b);
}

TEST(Name, BitThrowsPastLength) {
  const Name n = Name::from_bits(0b1, 1);
  EXPECT_THROW(n.bit(1), std::out_of_range);
}

TEST(Name, ClearResets) {
  Name n = Name::from_bits(0b111, 3);
  n.clear();
  EXPECT_TRUE(n.empty());
  EXPECT_EQ(n, Name());
}

TEST(Name, LexicographicOrderEqualLengths) {
  const Name a = Name::from_bits(0b001, 3);  // "001"
  const Name b = Name::from_bits(0b010, 3);  // "010"
  const Name c = Name::from_bits(0b100, 3);  // "100"
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
}

TEST(Name, PrefixSortsBeforeExtension) {
  const Name p = Name::from_bits(0b10, 2);    // "10"
  const Name e0 = Name::from_bits(0b100, 3);  // "100"
  const Name e1 = Name::from_bits(0b101, 3);  // "101"
  EXPECT_LT(p, e0);
  EXPECT_LT(p, e1);
  const Name eps;
  EXPECT_LT(eps, p);
}

TEST(Name, OrderMatchesStringOrder) {
  // Property: Name ordering equals std::string ordering of the bit strings.
  Rng rng(42);
  std::vector<Name> names;
  for (int i = 0; i < 200; ++i)
    names.push_back(
        Name::from_bits(rng(), static_cast<std::uint32_t>(rng.below(12))));
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      const std::string si = names[i].to_string() == "eps"
                                 ? ""
                                 : names[i].to_string();
      const std::string sj = names[j].to_string() == "eps"
                                 ? ""
                                 : names[j].to_string();
      EXPECT_EQ(names[i] < names[j], si < sj)
          << si << " vs " << sj;
      EXPECT_EQ(names[i] == names[j], si == sj);
    }
  }
}

// Name's order and its preorder key against a bit-by-bit reference: the
// first differing bit decides, and a proper prefix precedes its extensions.
// Random mixed-length names, zero extensions of them (same packed word,
// longer length), the empty name and both 63-bit extremes.
TEST(Name, OrderMatchesBitwiseReference) {
  Rng rng(5);
  std::vector<Name> names{Name(), Name::from_bits(0, Name::kMaxBits),
                          Name::from_bits(~0ull, Name::kMaxBits),
                          Name::from_bits(0, 1), Name::from_bits(1, 1)};
  for (int i = 0; i < 120; ++i) {
    const auto len =
        static_cast<std::uint32_t>(rng.below(Name::kMaxBits + 1));
    const Name n = Name::from_bits(rng(), len);
    names.push_back(n);
    if (len < Name::kMaxBits) {
      Name ext = n;
      for (auto k = rng.below(Name::kMaxBits - len) + 1; k > 0; --k)
        ext.append_bit(false);
      names.push_back(ext);
    }
  }
  const auto reference = [](const Name& a, const Name& b) {
    const std::uint32_t c = std::min(a.length(), b.length());
    for (std::uint32_t i = 0; i < c; ++i)
      if (a.bit(i) != b.bit(i)) return a.bit(i) ? 1 : -1;
    return a.length() == b.length() ? 0 : (a.length() < b.length() ? -1 : 1);
  };
  const auto sign = [](std::strong_ordering o) { return o < 0 ? -1 : o > 0; };
  for (const Name& a : names) {
    for (const Name& b : names) {
      const int want = reference(a, b);
      EXPECT_EQ(sign(a <=> b), want)
          << a.to_string() << " vs " << b.to_string();
      EXPECT_EQ(a == b, want == 0);
      EXPECT_EQ(sign(a.preorder_index() <=> b.preorder_index()), want)
          << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_EQ(Name().preorder_index(), 0u);
  EXPECT_EQ(Name::from_bits(~0ull, Name::kMaxBits).preorder_index(), ~0ull - 1);
}

TEST(Name, FullLengthIsThreeLogTwo) {
  EXPECT_EQ(Name::full_length(2), 3u);
  EXPECT_EQ(Name::full_length(8), 9u);
  EXPECT_EQ(Name::full_length(9), 12u);  // ceil(log2 9) = 4
  EXPECT_EQ(Name::full_length(1024), 30u);
}

TEST(Name, HashSpreadsValues) {
  std::set<std::uint64_t> hashes;
  for (std::uint64_t v = 0; v < 512; ++v)
    hashes.insert(Name::from_bits(v, 9).hash());
  EXPECT_EQ(hashes.size(), 512u);  // no collisions in a tiny set
}

TEST(Name, MaxLengthEnforced) {
  Name n;
  for (std::uint32_t i = 0; i < Name::kMaxBits; ++i) n.append_bit(true);
  EXPECT_THROW(n.append_bit(true), std::length_error);
  EXPECT_THROW(Name::from_bits(0, 64), std::invalid_argument);
}

TEST(Roster, SingletonContainsOwnName) {
  const Name n = Name::from_bits(0b101, 3);
  const Roster r = Roster::singleton(n);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.contains(n));
}

TEST(Roster, InsertKeepsSortedUnique) {
  Roster r;
  const Name a = Name::from_bits(0b01, 2);
  const Name b = Name::from_bits(0b10, 2);
  r.insert(b);
  r.insert(a);
  r.insert(b);
  EXPECT_EQ(r.size(), 2u);
  // Sorted: each entry's 1-based position is its rank.
  EXPECT_EQ(r.lexicographic_rank(a), 1u);
  EXPECT_EQ(r.lexicographic_rank(b), 2u);
}

TEST(Roster, UnionSizeWithoutMaterializing) {
  Roster a, b;
  for (std::uint64_t v : {1ull, 2ull, 3ull}) a.insert(Name::from_bits(v, 4));
  for (std::uint64_t v : {3ull, 4ull}) b.insert(Name::from_bits(v, 4));
  const Roster a0 = a, b0 = b;
  // |a U b| = 4: over a cap of 3 (a ghost) nothing is merged.
  EXPECT_FALSE(Roster::unite(a, b, 3));
  EXPECT_TRUE(a.shares_storage_with(a0));
  EXPECT_TRUE(b.shares_storage_with(b0));
  ASSERT_TRUE(Roster::unite(a, b, 4));
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.shares_storage_with(b));
  for (std::uint64_t v : {1ull, 2ull, 3ull, 4ull})
    EXPECT_TRUE(a.contains(Name::from_bits(v, 4)));
}

TEST(Roster, UnionSizeMatchesMergedSizeRandomized) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    Roster a, b;
    std::set<std::uint64_t> expected;
    const auto ka = rng.below(20);
    const auto kb = rng.below(20);
    for (auto [r, k] : {std::pair{&a, ka}, std::pair{&b, kb}})
      for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t v = rng.below(32);
        r->insert(Name::from_bits(v, 5));
        expected.insert(v);
      }
    const std::size_t u = expected.size();
    if (u > 0) {
      EXPECT_FALSE(Roster::unite(a, b, u - 1));
    }
    ASSERT_TRUE(Roster::unite(a, b, u));
    EXPECT_EQ(a.size(), u);
    EXPECT_EQ(b.size(), u);
  }
}

// `unite` against a reference union built with std::set_union and
// std::includes over the names' bit strings, on rosters drawn from a pool in
// which one name is often a prefix of another (every string of length <= 4,
// whose zero extensions share a packed word with their prefix), plus the
// 63-bit extremes and random longer names. Each pair is tried at caps
// |a U b| - 1 (a ghost: both rosters must stay as they were), |a U b| and
// |a U b| + 1 (both become the union, sharing the storage the adoption rule
// picks: the superset's, or for equal contents the first in storage order).
TEST(Roster, UniteMatchesSetUnionReference) {
  std::vector<Name> pool;
  for (std::uint32_t len = 0; len <= 4; ++len)
    for (std::uint64_t v = 0; v < (1ull << len); ++v)
      pool.push_back(Name::from_bits(v, len));
  pool.push_back(Name::from_bits(0, Name::kMaxBits));
  pool.push_back(Name::from_bits(~0ull, Name::kMaxBits));
  Rng rng(11);
  for (int i = 0; i < 16; ++i)
    pool.push_back(Name::from_bits(
        rng(), 5 + static_cast<std::uint32_t>(rng.below(Name::kMaxBits - 4))));
  const auto str = [](const Name& n) {
    return n.empty() ? std::string() : n.to_string();
  };

  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Name> na, nb;
    const auto pick = [&](std::vector<Name>& out) {
      const auto k = rng.below(pool.size() + 1);
      for (std::uint64_t i = 0; i < k; ++i)
        out.push_back(pool[rng.below(pool.size())]);
    };
    pick(na);
    if (rng.below(4) == 0) {
      nb = na;  // often one side holds the other
      if (rng.coin()) nb.resize(rng.below(nb.size() + 1));
    } else {
      pick(nb);
    }
    if (rng.coin()) std::swap(na, nb);
    std::vector<std::string> sa, sb, su;
    for (const Name& n : na) sa.push_back(str(n));
    for (const Name& n : nb) sb.push_back(str(n));
    for (auto* v : {&sa, &sb}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::back_inserter(su));
    const bool a_holds_b =
        std::includes(sa.begin(), sa.end(), sb.begin(), sb.end());
    const bool b_holds_a =
        std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
    const Roster a0 = Roster::from_names(na);
    Roster b0;
    for (const Name& n : nb) b0.insert(n);
    const bool shared = sa == sb && rng.coin();

    for (std::size_t cap = su.empty() ? 0 : su.size() - 1;
         cap <= su.size() + 1; ++cap) {
      Roster a = a0;
      Roster b = shared ? a0 : b0;
      const bool united = Roster::unite(a, b, cap);
      ASSERT_EQ(united, su.size() <= cap) << "trial " << trial;
      if (!united) {
        EXPECT_TRUE(a.shares_storage_with(a0));
        EXPECT_TRUE(b.shares_storage_with(shared ? a0 : b0));
        EXPECT_EQ(a.size(), sa.size());
        EXPECT_EQ(b.size(), sb.size());
        continue;
      }
      ASSERT_TRUE(a.shares_storage_with(b));
      ASSERT_EQ(a.size(), su.size());
      if (shared)
        EXPECT_TRUE(a.shares_storage_with(a0));
      else if (a_holds_b && b_holds_a)  // equal contents: first in order
        EXPECT_TRUE(a.shares_storage_with(
            Roster::storage_precedes(a0, b0) ? a0 : b0));
      else if (a_holds_b)
        EXPECT_TRUE(a.shares_storage_with(a0));
      else if (b_holds_a)
        EXPECT_TRUE(a.shares_storage_with(b0));
      else
        EXPECT_FALSE(a.shares_storage_with(a0) || a.shares_storage_with(b0));
      for (const Name& n : pool) {
        const auto at = std::lower_bound(su.begin(), su.end(), str(n));
        EXPECT_EQ(a.contains(n), at != su.end() && *at == str(n));
        EXPECT_EQ(a.lexicographic_rank(n),
                  static_cast<std::uint32_t>(at - su.begin()) + 1);
      }
    }
  }
}

TEST(Roster, LexicographicRankIsOneBasedPosition) {
  Roster r;
  const Name a = Name::from_bits(0b00, 2);
  const Name b = Name::from_bits(0b01, 2);
  const Name c = Name::from_bits(0b11, 2);
  r.insert(c);
  r.insert(a);
  r.insert(b);
  EXPECT_EQ(r.lexicographic_rank(a), 1u);
  EXPECT_EQ(r.lexicographic_rank(b), 2u);
  EXPECT_EQ(r.lexicographic_rank(c), 3u);
  // Defined (lower_bound position) even for absent names.
  EXPECT_EQ(r.lexicographic_rank(Name::from_bits(0b10, 2)), 3u);
}

TEST(Roster, RanksOverFullPopulationAreAPermutation) {
  Rng rng(13);
  constexpr std::uint32_t kN = 64;
  std::set<std::uint64_t> raw;
  while (raw.size() < kN) raw.insert(rng.below(1 << 18));
  Roster full;
  std::vector<Name> names;
  for (auto v : raw) {
    names.push_back(Name::from_bits(v, 18));
    full.insert(names.back());
  }
  std::set<std::uint32_t> ranks;
  for (const auto& nm : names) ranks.insert(full.lexicographic_rank(nm));
  EXPECT_EQ(ranks.size(), kN);
  EXPECT_EQ(*ranks.begin(), 1u);
  EXPECT_EQ(*ranks.rbegin(), kN);
}

}  // namespace
}  // namespace ppsim
