// The `roster` field of Sublinear-Time-SSR (Protocol 5): the set of all names
// an agent has heard of, propagated by union on every interaction (the roll
// call process). Stored as a sorted, copy-on-write vector of 64-bit keys,
// each name's `Name::preorder_index()`, whose integer order is the names'
// lexicographic order, so that
//   - an agent's rank is its key's lower_bound position + 1 (the
//     "lexicographic order of name in roster", Protocol 5 line 8),
//   - the ghost-name check |roster_a U roster_b| > n (line 2) and the union
//     itself (line 5) are one pass, `unite`: a single merge walk counts the
//     keys only in a, only in b and in both, and stops with "ghost" as soon
//     as the count passes n, leaving both rosters untouched;
//   - only a strict two-sided union allocates. When one roster already holds
//     every name of the other, the other adopts its storage (a's when the
//     contents are equal), so after the population converges all agents
//     share one immutable vector and every roster operation is O(1): pointer
//     equality spreads like an epidemic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/name.h"

namespace ppsim {

class Roster {
  using Keys = std::vector<std::uint64_t>;

 public:
  Roster() : keys_(empty_storage()) {}

  static Roster singleton(const Name& name) {
    Roster r;
    r.keys_ = std::make_shared<const Keys>(Keys{name.preorder_index()});
    return r;
  }

  // The roster holding exactly the distinct entries of `names`, built in
  // one sort instead of one copy-on-write insert per name.
  static Roster from_names(const std::vector<Name>& names) {
    Keys keys(names.size());
    std::transform(names.begin(), names.end(), keys.begin(),
                   [](const Name& n) { return n.preorder_index(); });
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    Roster r;
    r.keys_ = std::make_shared<const Keys>(std::move(keys));
    return r;
  }

  std::size_t size() const { return keys_->size(); }

  bool contains(const Name& n) const {
    return std::binary_search(keys_->begin(), keys_->end(),
                              n.preorder_index());
  }

  void insert(const Name& n) {
    if (contains(n)) return;
    Keys copy = *keys_;  // copy-on-write
    const std::uint64_t key = n.preorder_index();
    copy.insert(std::lower_bound(copy.begin(), copy.end(), key), key);
    keys_ = std::make_shared<const Keys>(std::move(copy));
  }

  // 1-based lexicographic position of `n` among the roster entries. Defined
  // even when n is absent (adversarial states); equals 1 + #entries < n.
  std::uint32_t lexicographic_rank(const Name& n) const {
    auto it = std::lower_bound(keys_->begin(), keys_->end(),
                               n.preorder_index());
    return static_cast<std::uint32_t>(it - keys_->begin()) + 1;
  }

  // Protocol 5 lines 2 and 5 together. Returns false, leaving both rosters
  // untouched, when |a U b| > cap (a ghost name); otherwise sets both to
  // a U b, sharing one storage, and returns true. O(1) when the storage is
  // already shared; otherwise one merge walk, plus one allocating merge
  // only when each roster holds a name the other lacks.
  [[gnu::always_inline]] static bool unite(Roster& a, Roster& b,
                                           std::size_t cap) {
    if (a.keys_ == b.keys_) return a.size() <= cap;
    const std::uint64_t* x = a.keys_->data();
    const std::uint64_t* y = b.keys_->data();
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    // Each step consumes the smaller head, or both heads when equal, so
    // `steps` counts the union of the walked prefixes; of those, steps - j
    // were only in a and steps - i only in b.
    std::size_t i = 0, j = 0, steps = 0;
    while (i < na && j < nb) {
      const std::uint64_t u = x[i];
      const std::uint64_t v = y[j];
      i += u <= v;
      j += v <= u;
      if (++steps > cap) return false;
    }
    const std::size_t only_a = steps - j + (na - i);
    const std::size_t only_b = steps - i + (nb - j);
    const std::size_t total = steps + (na - i) + (nb - j);
    if (total > cap) return false;
    if (only_b == 0) {
      b.keys_ = a.keys_;
    } else if (only_a == 0) {
      a.keys_ = b.keys_;
    } else {
      Keys out(total);
      std::set_union(x, x + na, y, y + nb, out.begin());
      a.keys_ = std::make_shared<const Keys>(std::move(out));
      b.keys_ = a.keys_;
    }
    return true;
  }

  // Content equality (pointer fast path).
  friend bool operator==(const Roster& a, const Roster& b) {
    return a.keys_ == b.keys_ || *a.keys_ == *b.keys_;
  }

  bool shares_storage_with(const Roster& other) const {
    return keys_ == other.keys_;
  }

 private:
  static const std::shared_ptr<const Keys>& empty_storage() {
    static const auto empty = std::make_shared<const Keys>();
    return empty;
  }

  std::shared_ptr<const Keys> keys_;  // sorted, unique preorder indices
};

}  // namespace ppsim
