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
//   - only a strict two-sided union allocates. When one roster holds every
//     name of the other (a strict superset), the other adopts its storage.
//     When the contents are equal but the storages differ, both take the
//     storage that comes first in a fixed total order: the older one, by a
//     serial number each storage gets when it is made. So after the contents
//     converge all agents come to share one immutable vector, and every
//     roster operation is O(1).
//
// Why the order: with "the responder adopts the initiator's storage" on
// equal contents, each meeting copies one side's storage onto the other at
// random, which is the voter model: a storage can also be lost, and the
// population needs Theta(n) parallel time to reach consensus on one. Under
// the order, the first storage among the holders of some contents is never
// given up in an equal-content meeting, and every holder it meets takes it,
// in either role: it spreads as a two-way epidemic and reaches every holder
// of those contents in O(log n) parallel time. Only storage identity
// depends on the order; contents, ghost verdicts and ranks do not, so a
// run's trajectory is the same whichever storage wins.
//
// Why creation order and not the storage address: addresses depend on the
// allocator's layout, which moves with address-space randomization and
// with which trials a worker thread ran before. Under the address order the
// same seed made different storages win from one process to the next, and
// with them a different number of roster walks. A trial makes all its
// storages on one thread, so their serials follow the trajectory alone;
// and the older storage has had longer to spread, so it is usually the one
// most holders already share.
#pragma once

#include <algorithm>
#include <atomic>
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
  Roster() : storage_(empty_storage()) {}

  static Roster singleton(const Name& name) {
    Roster r;
    r.storage_ = make_storage(Keys{name.preorder_index()});
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
    r.storage_ = make_storage(std::move(keys));
    return r;
  }

  std::size_t size() const { return keys().size(); }

  bool contains(const Name& n) const {
    return std::binary_search(keys().begin(), keys().end(),
                              n.preorder_index());
  }

  void insert(const Name& n) {
    if (contains(n)) return;
    Keys copy = keys();  // copy-on-write
    const std::uint64_t key = n.preorder_index();
    copy.insert(std::lower_bound(copy.begin(), copy.end(), key), key);
    storage_ = make_storage(std::move(copy));
  }

  // 1-based lexicographic position of `n` among the roster entries. Defined
  // even when n is absent (adversarial states); equals 1 + #entries < n.
  std::uint32_t lexicographic_rank(const Name& n) const {
    auto it = std::lower_bound(keys().begin(), keys().end(),
                               n.preorder_index());
    return static_cast<std::uint32_t>(it - keys().begin()) + 1;
  }

  // Protocol 5 lines 2 and 5 together. Returns false, leaving both rosters
  // untouched, when |a U b| > cap (a ghost name); otherwise sets both to
  // a U b, sharing one storage, and returns true. O(1) when the storage is
  // already shared; otherwise one merge walk, plus one allocating merge
  // only when each roster holds a name the other lacks. On equal contents
  // the surviving storage is the first in storage order (see the header).
  [[gnu::always_inline]] static bool unite(Roster& a, Roster& b,
                                           std::size_t cap) {
    if (a.storage_ == b.storage_) return a.size() <= cap;
    const std::uint64_t* x = a.keys().data();
    const std::uint64_t* y = b.keys().data();
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
    if (only_b == 0 && (only_a != 0 || storage_precedes(a, b))) {
      b.storage_ = a.storage_;
    } else if (only_a == 0) {
      a.storage_ = b.storage_;
    } else {
      Keys out(total);
      std::set_union(x, x + na, y, y + nb, out.begin());
      a.storage_ = make_storage(std::move(out));
      b.storage_ = a.storage_;
    }
    return true;
  }

  // Content equality (pointer fast path).
  friend bool operator==(const Roster& a, const Roster& b) {
    return a.storage_ == b.storage_ || a.keys() == b.keys();
  }

  bool shares_storage_with(const Roster& other) const {
    return storage_ == other.storage_;
  }

  // The fixed total order on storages by which `unite` picks the survivor
  // for equal contents: whether a's storage was made before b's.
  static bool storage_precedes(const Roster& a, const Roster& b) {
    return a.storage_->serial < b.storage_->serial;
  }

 private:
  struct Storage {
    std::uint64_t serial;  // creation order, unique in the process
    Keys keys;             // sorted, unique preorder indices
  };

  // The shared empty storage takes serial 0, so it precedes every other.
  static std::shared_ptr<const Storage> make_storage(Keys keys) {
    static std::atomic<std::uint64_t> next{1};
    return std::make_shared<const Storage>(
        Storage{next.fetch_add(1, std::memory_order_relaxed), std::move(keys)});
  }

  static const std::shared_ptr<const Storage>& empty_storage() {
    static const auto empty = std::make_shared<const Storage>(Storage{0, {}});
    return empty;
  }

  const Keys& keys() const { return storage_->keys; }

  std::shared_ptr<const Storage> storage_;
};

}  // namespace ppsim
