// The `roster` field of Sublinear-Time-SSR (Protocol 5): the set of all names
// an agent has heard of, propagated by union on every interaction (the roll
// call process). Stored as a sorted, copy-on-write vector so that
//   - union is a linear merge,
//   - an agent's rank is its name's lower_bound position + 1 (the
//     "lexicographic order of name in roster", Protocol 5 line 8),
//   - the ghost-name trigger |roster_a U roster_b| > n can short-circuit
//     without materializing an oversized union,
//   - after the population converges, all agents share one immutable vector
//     and every roster operation is O(1) (pointer equality spreads like an
//     epidemic because equal-content merges adopt one side's storage).
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
 public:
  Roster() : names_(empty_storage()) {}

  static Roster singleton(const Name& name) {
    Roster r;
    r.names_ = std::make_shared<const std::vector<Name>>(
        std::vector<Name>{name});
    return r;
  }

  // The roster holding exactly the distinct entries of `names`, built in
  // one sort instead of one copy-on-write insert per name.
  static Roster from_names(std::vector<Name> names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    Roster r;
    r.names_ = std::make_shared<const std::vector<Name>>(std::move(names));
    return r;
  }

  std::size_t size() const { return names_->size(); }

  bool contains(const Name& n) const {
    return std::binary_search(names_->begin(), names_->end(), n);
  }

  const std::vector<Name>& names() const { return *names_; }

  void insert(const Name& n) {
    if (contains(n)) return;
    std::vector<Name> copy = *names_;  // copy-on-write
    copy.insert(std::lower_bound(copy.begin(), copy.end(), n), n);
    names_ = std::make_shared<const std::vector<Name>>(std::move(copy));
  }

  // 1-based lexicographic position of `n` among the roster entries. Defined
  // even when n is absent (adversarial states); equals 1 + #entries < n.
  std::uint32_t lexicographic_rank(const Name& n) const {
    auto it = std::lower_bound(names_->begin(), names_->end(), n);
    return static_cast<std::uint32_t>(it - names_->begin()) + 1;
  }

  // |a U b| without materializing the union. O(1) when storage is shared.
  static std::size_t union_size(const Roster& a, const Roster& b) {
    if (a.names_ == b.names_) return a.size();
    std::size_t count = 0;
    auto ia = a.names_->begin();
    auto ib = b.names_->begin();
    while (ia != a.names_->end() && ib != b.names_->end()) {
      if (*ia < *ib)
        ++ia;
      else if (*ib < *ia)
        ++ib;
      else {
        ++ia;
        ++ib;
      }
      ++count;
    }
    count += static_cast<std::size_t>(a.names_->end() - ia);
    count += static_cast<std::size_t>(b.names_->end() - ib);
    return count;
  }

  // The union. Adopts `a`'s storage when it already equals the union (in
  // particular when the rosters are equal), so repeated merges converge to
  // one shared vector and become O(1).
  static Roster merged(const Roster& a, const Roster& b) {
    if (a.names_ == b.names_) return a;
    if (a.size() >= b.size() &&
        std::includes(a.names_->begin(), a.names_->end(), b.names_->begin(),
                      b.names_->end()))
      return a;
    if (b.size() > a.size() &&
        std::includes(b.names_->begin(), b.names_->end(), a.names_->begin(),
                      a.names_->end()))
      return b;
    std::vector<Name> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.names_->begin(), a.names_->end(), b.names_->begin(),
                   b.names_->end(), std::back_inserter(out));
    Roster r;
    r.names_ = std::make_shared<const std::vector<Name>>(std::move(out));
    return r;
  }

  // Content equality (pointer fast path).
  friend bool operator==(const Roster& a, const Roster& b) {
    return a.names_ == b.names_ || *a.names_ == *b.names_;
  }

  bool shares_storage_with(const Roster& other) const {
    return names_ == other.names_;
  }

 private:
  static const std::shared_ptr<const std::vector<Name>>& empty_storage() {
    static const auto empty =
        std::make_shared<const std::vector<Name>>();
    return empty;
  }

  std::shared_ptr<const std::vector<Name>> names_;  // sorted, unique
};

}  // namespace ppsim
