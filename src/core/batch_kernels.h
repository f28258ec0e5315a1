// Reusable sampling kernels for the count-based batched backend.
//
// BatchSimulation (core/batch_simulation.h) is assembled from the kernels
// in this file; each kernel is an independently testable piece of the
// count-vector machinery:
//
//   WeightedSampler       - Fenwick tree over per-state weights
//                           (O(log |Q|) point update and weighted draw)
//   FlatMap64             - open-addressing uint64 -> uint64 map used for
//                           pair grouping, touched-multiset bookkeeping and
//                           the per-(s1,s2) transition cache
//   sample_ordered_state_pair
//                         - the scheduler's exact ordered state-pair draw
//   DiagonalKernel        - geometric skip for protocols whose non-null
//                           pairs all have equal states
//   KeyedPassiveKernel    - geometric skip for "null iff both passive with
//                           distinct keys" (Optimal-Silent-SSR)
//   UnkeyedPassiveKernel  - geometric skip for "both passive => null" with
//                           no key (ResetProcess, one-way epidemics)
//   SegmentedPool         - weighted pool over the *occupied* subset of a
//                           huge code space, clustered into contiguous
//                           256-code segments with per-segment weight
//                           subtotals: the multinomial kernel's sampling
//                           substrate (weighted draws walk a Fenwick tree
//                           over O(segments) subtotals plus one short
//                           in-segment scan, instead of a deep tree over
//                           O(occupied) raw codes); also the tau-leaping
//                           engine's active-unit pool (reset() +
//                           apply_delta reloads in O(occupied))
//   ScalarActiveWeight    - the structured active weight W as scalars only
//                           (no Fenwick trees): the tau-leaping engine's
//                           silence certification and leap-size input
//   sample_collision_free_prefix
//                         - exact birthday-problem draw of how many
//                           consecutive interactions touch fresh agents
//   MultinomialKernel     - the ppsim-style batch step: simulate a whole
//                           Theta(sqrt(n))-interaction collision-free
//                           prefix at once by sampling its sender/receiver
//                           state multisets hypergeometrically, applying
//                           transitions per (s1, s2) pair in bulk through a
//                           cached delta table, then replaying the single
//                           colliding interaction exactly
//
// The three geometric-skip kernels each maintain their active weight both
// as an incremental scalar and inside Fenwick trees. The scalar is always
// current (silent() and the auto-strategy density test read it); the
// Fenwick trees may be updated lazily while the multinomial kernel is
// driving the run (it never reads them), and are brought back in sync by
// the engine before the next geometric-skip step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/discrete_samplers.h"
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"

namespace ppsim {

// Fenwick tree over per-state weights, supporting O(log |Q|) point update
// and O(log |Q|) sampling of an index with probability weight/total.
class WeightedSampler {
 public:
  WeightedSampler() : tree_(1, 0) {}
  explicit WeightedSampler(std::uint32_t size) : tree_(size + 1, 0) {}

  // O(size) bulk construction from a full weight vector (replaces any
  // existing content) — point-adds would cost O(size log size).
  void build(const std::vector<std::uint64_t>& weights) {
    tree_.assign(weights.size() + 1, 0);
    for (std::uint32_t i = 1; i < tree_.size(); ++i) {
      tree_[i] += weights[i - 1];
      const std::uint32_t parent = i + (i & (~i + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(tree_.size()) - 1;
  }

  void add(std::uint32_t index, std::int64_t delta) {
    for (std::uint32_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
      tree_[i] += static_cast<std::uint64_t>(delta);
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint32_t i = static_cast<std::uint32_t>(tree_.size()) - 1; i > 0;
         i -= i & (~i + 1))
      sum += tree_[i];
    return sum;
  }

  // Returns the smallest index such that the prefix sum through it exceeds
  // `target` (target in [0, total())): samples index ∝ weight. When
  // `remainder` is non-null it receives the offset of `target` inside the
  // found index's weight — the residual a caller needs to keep drilling
  // into a finer structure (e.g. a segment's member list).
  std::uint32_t find(std::uint64_t target,
                     std::uint64_t* remainder = nullptr) const {
    std::uint32_t pos = 0;
    std::uint32_t mask = 1;
    while ((mask << 1) < tree_.size()) mask <<= 1;
    for (; mask > 0; mask >>= 1) {
      const std::uint32_t next = pos + mask;
      if (next < tree_.size() && tree_[next] <= target) {
        target -= tree_[next];
        pos = next;
      }
    }
    if (remainder != nullptr) *remainder = target;
    return pos;  // 0-based index
  }

 private:
  std::vector<std::uint64_t> tree_;  // 1-based internal indexing
};

// One count change applied by the last effective step (or batch):
// counts()[code] moved by delta. Lets analysis code (e.g. the generic
// ranked-run harness) keep incremental trackers without rescanning O(|Q|)
// counts.
struct CountDelta {
  std::uint32_t code;
  std::int32_t delta;
};

// Open-addressing hash map uint64 -> uint64 (linear probing, power-of-two
// capacity, insertion-ordered iteration). The batched engine's hot maps —
// pair grouping, touched multisets, net deltas, the transition cache — all
// live on this: no per-node allocation, O(1) clear, deterministic
// iteration order (so every consumer of the map is reproducible from the
// seed).
class FlatMap64 {
 public:
  struct Entry {
    std::uint64_t key;
    std::uint64_t value;
  };

  FlatMap64() { rehash(16); }

  void clear() {
    entries_.clear();
    ++epoch_;
    if (epoch_ == 0) {  // epoch counter wrapped: hard reset the stamps
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Insertion-ordered live entries. Values are indices into the slot
  // table's value storage; use value_at / entry iteration below.
  const std::vector<std::uint32_t>& entry_slots() const { return entries_; }
  std::uint64_t key_at(std::uint32_t slot) const { return keys_[slot]; }
  std::uint64_t value_at(std::uint32_t slot) const { return values_[slot]; }
  std::uint64_t& value_ref(std::uint32_t slot) { return values_[slot]; }

  // Returns the value slot for `key`, inserting value `init` if absent;
  // sets `inserted` accordingly.
  std::uint32_t find_or_insert(std::uint64_t key, std::uint64_t init,
                               bool* inserted = nullptr) {
    if (entries_.size() * 2 >= capacity()) grow();
    std::uint32_t slot = probe(key);
    if (stamps_[slot] != epoch_) {
      stamps_[slot] = epoch_;
      keys_[slot] = key;
      values_[slot] = init;
      entries_.push_back(slot);
      if (inserted != nullptr) *inserted = true;
    } else if (inserted != nullptr) {
      *inserted = false;
    }
    return slot;
  }

  // Returns a pointer to the value for `key`, or nullptr when absent.
  std::uint64_t* find(std::uint64_t key) {
    const std::uint32_t slot = probe(key);
    return stamps_[slot] == epoch_ ? &values_[slot] : nullptr;
  }
  const std::uint64_t* find(std::uint64_t key) const {
    const std::uint32_t slot = probe(key);
    return stamps_[slot] == epoch_ ? &values_[slot] : nullptr;
  }

  void add(std::uint64_t key, std::int64_t delta) {
    const std::uint32_t slot = find_or_insert(key, 0);
    values_[slot] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(values_[slot]) + delta);
  }

 private:
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(keys_.size());
  }

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  std::uint32_t probe(std::uint64_t key) const {
    std::uint32_t slot = static_cast<std::uint32_t>(mix(key)) & mask_;
    while (stamps_[slot] == epoch_ && keys_[slot] != key)
      slot = (slot + 1) & mask_;
    return slot;
  }

  void rehash(std::uint32_t cap) {
    keys_.assign(cap, 0);
    values_.assign(cap, 0);
    stamps_.assign(cap, 0);
    mask_ = cap - 1;
    epoch_ = 1;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys;
    std::vector<std::uint64_t> old_values;
    old_keys.reserve(entries_.size());
    old_values.reserve(entries_.size());
    for (std::uint32_t slot : entries_) {
      old_keys.push_back(keys_[slot]);
      old_values.push_back(values_[slot]);
    }
    entries_.clear();
    rehash(capacity() * 2);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      const std::uint32_t slot = find_or_insert(old_keys[i], old_values[i]);
      values_[slot] = old_values[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint32_t> stamps_;  // slot live iff stamp == epoch_
  std::vector<std::uint32_t> entries_;
  std::uint32_t mask_ = 0;
  std::uint32_t epoch_ = 1;
};

inline std::uint64_t pair_code_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// The scheduler's exact ordered state-pair draw from a count Fenwick:
// initiator ∝ counts, responder uniform over the other n-1 agents (the
// same count vector with one agent in the initiator's state removed).
inline std::pair<std::uint32_t, std::uint32_t> sample_ordered_state_pair(
    Rng& rng, WeightedSampler& count_sampler, std::uint64_t n) {
  const std::uint32_t a = count_sampler.find(rng.below(n));
  count_sampler.add(a, -1);
  const std::uint32_t b = count_sampler.find(rng.below(n - 1));
  count_sampler.add(a, +1);
  return {a, b};
}

inline std::uint64_t pair_weight(std::uint64_t m) {
  return m * (m > 0 ? m - 1 : 0);
}

// --- Geometric-skip kernels -------------------------------------------------

// Diagonal fast path: every non-null pair has equal states, so the active
// weight is W = sum over active q of m_q (m_q - 1) and the colliding state
// is drawn ∝ m_q (m_q - 1).
template <EnumerableProtocol P>
class DiagonalKernel {
 public:
  void build(const P& protocol, const std::vector<std::uint64_t>& counts) {
    const std::uint32_t q = protocol.num_states();
    active_.resize(q);
    std::vector<std::uint64_t> weights(q, 0);
    total_ = 0;
    for (std::uint32_t s = 0; s < q; ++s) {
      const typename P::State st = protocol.decode(s);
      active_[s] = !protocol.is_null_pair(st, st);
      if (active_[s]) {
        weights[s] = pair_weight(counts[s]);
        total_ += weights[s];
      }
    }
    sampler_.build(weights);
  }

  std::uint64_t total() const { return total_; }

  // counts[s] moved old_count -> new_count. When `lazy`, only the scalar is
  // maintained; resync_code() repairs the Fenwick tree later.
  void on_count_change(std::uint32_t s, std::uint64_t old_count,
                       std::uint64_t new_count, bool lazy) {
    if (!active_[s]) return;
    const std::int64_t dw = static_cast<std::int64_t>(pair_weight(new_count)) -
                            static_cast<std::int64_t>(pair_weight(old_count));
    total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) + dw);
    if (!lazy && dw != 0) sampler_.add(s, dw);
  }

  void resync_code(std::uint32_t s, std::uint64_t old_count,
                   std::uint64_t new_count) {
    if (!active_[s]) return;
    const std::int64_t dw = static_cast<std::int64_t>(pair_weight(new_count)) -
                            static_cast<std::int64_t>(pair_weight(old_count));
    if (dw != 0) sampler_.add(s, dw);
  }

  std::uint32_t sample(Rng& rng) const {
    return sampler_.find(rng.below(total_));
  }

 private:
  WeightedSampler sampler_;
  std::vector<char> active_;
  std::uint64_t total_ = 0;
};

// Keyed-passive fast path. Ordered active pairs partition exactly into
//   (1) restless initiator, any responder:        A (n - 1)
//   (2) passive initiator, restless responder:    S A
//   (3) both passive with the same key:           D = sum_k s_k (s_k - 1)
// (check: n(n-1) - [passive pairs with distinct keys] = A(n-1) + SA + D).
// The active pair is drawn by case-splitting on the three weights; each
// case samples its conditional distribution exactly.
template <EnumerableProtocol P>
class KeyedPassiveKernel {
 public:
  // The three-term active-weight partition, computed in one place so that
  // silent(), the auto-strategy density test and the step can never drift.
  struct Weights {
    std::uint64_t restless = 0;  // A
    std::uint64_t diag = 0;      // D = sum_k s_k (s_k - 1)
    std::uint64_t w1 = 0;        // A (n - 1)
    std::uint64_t w2 = 0;        // S A
    std::uint64_t total = 0;     // W = w1 + w2 + D
  };

  void build(const P& protocol, const std::vector<std::uint64_t>& counts) {
    const std::uint32_t q = protocol.num_states();
    restless_ = WeightedSampler(q);
    key_counts_.assign(protocol.num_passive_keys(), 0);
    restless_count_ = 0;
    diag_total_ = 0;
    // Point-adds over occupied states only: at most n of the |Q| codes are
    // occupied, so this beats a dense O(|Q|) weight-vector build.
    for (std::uint32_t s = 0; s < q; ++s) {
      if (counts[s] == 0) continue;
      const typename P::State st = protocol.decode(s);
      if (protocol.is_passive(st)) {
        key_counts_[protocol.passive_key(st)] += counts[s];
      } else {
        restless_.add(s, static_cast<std::int64_t>(counts[s]));
        restless_count_ += counts[s];
      }
    }
    std::vector<std::uint64_t> key_w(key_counts_.size(), 0);
    for (std::uint32_t k = 0; k < key_counts_.size(); ++k) {
      key_w[k] = pair_weight(key_counts_[k]);
      diag_total_ += key_w[k];
    }
    key_sampler_.build(key_w);
    dirty_keys_.clear();
  }

  Weights weights(std::uint64_t n) const {
    Weights w;
    w.restless = restless_count_;
    w.diag = diag_total_;
    w.w1 = w.restless * (n - 1);
    w.w2 = (n - w.restless) * w.restless;
    w.total = w.w1 + w.w2 + w.diag;
    return w;
  }

  void on_count_change(const P& protocol, std::uint32_t code,
                       std::int64_t delta, bool lazy) {
    const typename P::State st = protocol.decode(code);
    if (protocol.is_passive(st)) {
      const std::uint32_t k = protocol.passive_key(st);
      const std::uint64_t old_kc = key_counts_[k];
      if (lazy) dirty_keys_.find_or_insert(k, old_kc);  // first old value wins
      key_counts_[k] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(old_kc) + delta);
      diag_total_ = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(diag_total_) +
          static_cast<std::int64_t>(pair_weight(key_counts_[k])) -
          static_cast<std::int64_t>(pair_weight(old_kc)));
      if (!lazy) {
        key_sampler_.add(k,
                         static_cast<std::int64_t>(pair_weight(key_counts_[k])) -
                             static_cast<std::int64_t>(pair_weight(old_kc)));
      }
    } else {
      restless_count_ = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(restless_count_) + delta);
      if (!lazy) restless_.add(code, delta);
    }
  }

  // Repairs the restless Fenwick for one dirtied code (the engine tracks
  // old counts); key Fenwick repairs happen in resync_keys().
  void resync_code(const P& protocol, std::uint32_t code,
                   std::uint64_t old_count, std::uint64_t new_count) {
    if (protocol.is_passive(protocol.decode(code))) return;
    const std::int64_t d = static_cast<std::int64_t>(new_count) -
                           static_cast<std::int64_t>(old_count);
    if (d != 0) restless_.add(code, d);
  }

  void resync_keys() {
    for (std::uint32_t slot : dirty_keys_.entry_slots()) {
      const auto k = static_cast<std::uint32_t>(dirty_keys_.key_at(slot));
      const std::uint64_t old_kc = dirty_keys_.value_at(slot);
      const std::int64_t dw =
          static_cast<std::int64_t>(pair_weight(key_counts_[k])) -
          static_cast<std::int64_t>(pair_weight(old_kc));
      if (dw != 0) key_sampler_.add(k, dw);
    }
    dirty_keys_.clear();
  }

  // Samples the active ordered pair given precomputed weights (total > 0).
  // Consumes randomness in the exact order of the pre-refactor engine.
  std::pair<std::uint32_t, std::uint32_t> sample_pair(
      Rng& rng, const P& protocol, WeightedSampler& count_sampler,
      const std::vector<std::uint64_t>& counts, std::uint64_t n,
      const Weights& kw) const {
    const std::uint64_t x = rng.below(kw.total);
    std::uint32_t a_code, b_code;
    if (x < kw.w1) {
      // (1) restless initiator; responder uniform over the other n-1 agents
      // (same count vector with one agent in the initiator's state removed).
      a_code = restless_.find(rng.below(kw.restless));
      count_sampler.add(a_code, -1);
      b_code = count_sampler.find(rng.below(n - 1));
      count_sampler.add(a_code, +1);
    } else if (x < kw.w1 + kw.w2) {
      // (2) passive initiator by rejection against the full count vector
      // (P[passive] = S/n per try; this branch is drawn with probability
      // ∝ S, so the expected rejection work per step is O(1)); restless
      // responder directly.
      for (;;) {
        a_code = count_sampler.find(rng.below(n));
        if (protocol.is_passive(protocol.decode(a_code))) break;
      }
      b_code = restless_.find(rng.below(kw.restless));
    } else {
      // (3) a same-key passive pair: key ∝ s_k (s_k - 1), then the ordered
      // pair inside the key's fiber ∝ m_q (m_q' - [q = q']).
      const std::uint32_t k = key_sampler_.find(rng.below(kw.diag));
      const std::vector<std::uint32_t> fiber = protocol.passive_fiber(k);
      a_code = pick_in_fiber(counts, fiber, rng.below(key_counts_[k]),
                             /*exclude_pos=*/fiber.size(), 0);
      b_code = pick_in_fiber(counts, fiber, rng.below(key_counts_[k] - 1),
                             /*exclude_pos=*/find_pos(fiber, a_code), 1);
    }
    return {a_code, b_code};
  }

 private:
  static std::size_t find_pos(const std::vector<std::uint32_t>& fiber,
                              std::uint32_t code) {
    for (std::size_t i = 0; i < fiber.size(); ++i)
      if (fiber[i] == code) return i;
    return fiber.size();
  }

  // Samples a code from `fiber` with weight counts[code], minus `discount`
  // on the entry at `exclude_pos` (used to remove the already-chosen
  // initiator agent from the responder draw).
  static std::uint32_t pick_in_fiber(const std::vector<std::uint64_t>& counts,
                                     const std::vector<std::uint32_t>& fiber,
                                     std::uint64_t target,
                                     std::size_t exclude_pos,
                                     std::uint64_t discount) {
    for (std::size_t i = 0; i < fiber.size(); ++i) {
      std::uint64_t weight = counts[fiber[i]];
      if (i == exclude_pos) weight -= discount;
      if (target < weight) return fiber[i];
      target -= weight;
    }
    throw std::logic_error(
        "passive_fiber inconsistent with counts: fiber weight exhausted");
  }

  WeightedSampler restless_;                // weight m_q on non-passive states
  WeightedSampler key_sampler_;             // weight s_k (s_k - 1) per key
  std::vector<std::uint64_t> key_counts_;   // s_k: passive agents per key
  std::uint64_t restless_count_ = 0;        // A (scalar mirror, always live)
  std::uint64_t diag_total_ = 0;            // D (scalar mirror, always live)
  FlatMap64 dirty_keys_;                    // key -> key_count at dirtying
};

// Unkeyed passive fast path: the protocol guarantees that a pair of two
// passive agents is null (kPassivePairsAreNull); pairs involving at least
// one non-passive agent may or may not be null and are simulated
// individually. Ordered candidate pairs partition into
//   (1) restless initiator, any responder:      A (n - 1)
//   (2) passive initiator, restless responder:  S A
// with W = A (n - 1) + S A = A (2n - 1 - A); W = 0 iff every agent is
// passive, which is silent by the structure guarantee.
template <EnumerableProtocol P>
class UnkeyedPassiveKernel {
 public:
  struct Weights {
    std::uint64_t restless = 0;  // A
    std::uint64_t w1 = 0;        // A (n - 1)
    std::uint64_t w2 = 0;        // S A
    std::uint64_t total = 0;
  };

  void build(const P& protocol, const std::vector<std::uint64_t>& counts) {
    const std::uint32_t q = protocol.num_states();
    restless_ = WeightedSampler(q);
    restless_count_ = 0;
    for (std::uint32_t s = 0; s < q; ++s) {
      if (counts[s] == 0) continue;
      if (!protocol.is_passive(protocol.decode(s))) {
        restless_.add(s, static_cast<std::int64_t>(counts[s]));
        restless_count_ += counts[s];
      }
    }
  }

  Weights weights(std::uint64_t n) const {
    Weights w;
    w.restless = restless_count_;
    w.w1 = w.restless * (n - 1);
    w.w2 = (n - w.restless) * w.restless;
    w.total = w.w1 + w.w2;
    return w;
  }

  void on_count_change(const P& protocol, std::uint32_t code,
                       std::int64_t delta, bool lazy) {
    if (protocol.is_passive(protocol.decode(code))) return;
    restless_count_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(restless_count_) + delta);
    if (!lazy) restless_.add(code, delta);
  }

  void resync_code(const P& protocol, std::uint32_t code,
                   std::uint64_t old_count, std::uint64_t new_count) {
    if (protocol.is_passive(protocol.decode(code))) return;
    const std::int64_t d = static_cast<std::int64_t>(new_count) -
                           static_cast<std::int64_t>(old_count);
    if (d != 0) restless_.add(code, d);
  }

  std::pair<std::uint32_t, std::uint32_t> sample_pair(
      Rng& rng, const P& protocol, WeightedSampler& count_sampler,
      std::uint64_t n, const Weights& kw) const {
    const std::uint64_t x = rng.below(kw.total);
    std::uint32_t a_code, b_code;
    if (x < kw.w1) {
      a_code = restless_.find(rng.below(kw.restless));
      count_sampler.add(a_code, -1);
      b_code = count_sampler.find(rng.below(n - 1));
      count_sampler.add(a_code, +1);
    } else {
      for (;;) {
        a_code = count_sampler.find(rng.below(n));
        if (protocol.is_passive(protocol.decode(a_code))) break;
      }
      b_code = restless_.find(rng.below(kw.restless));
    }
    return {a_code, b_code};
  }

 private:
  WeightedSampler restless_;
  std::uint64_t restless_count_ = 0;
};

// --- Scalar active-weight tracker -------------------------------------------

// Maintains the declared-structure active weight W as scalars only — no
// Fenwick trees, no O(|Q|) arrays — in O(1) per count change and O(occupied)
// to rebuild. The full geometric-skip kernels above also need to *sample*
// the active pair, which costs them Fenwick trees over the whole code
// space; the tau-leaping engine (core/tau_leap_simulation.h) only needs W
// (and its restless / key-diagonal parts) for silence certification and
// the leap-size bound, and samples active units from its own occupied
// pools instead. Keyed key counts live in a FlatMap64 keyed by the
// occupied passive keys.
template <EnumerableProtocol P>
class ScalarActiveWeight {
 public:
  static constexpr bool kStructured = DiagonalActiveProtocol<P> ||
                                      KeyedPassiveProtocol<P> ||
                                      UnkeyedPassiveProtocol<P>;

  // counts[code] moved old_count -> new_count.
  void on_count_change(const P& protocol, std::uint32_t code,
                       std::uint64_t old_count, std::uint64_t new_count) {
    const std::int64_t d = static_cast<std::int64_t>(new_count) -
                           static_cast<std::int64_t>(old_count);
    if (d == 0) return;
    if constexpr (DiagonalActiveProtocol<P>) {
      const typename P::State st = protocol.decode(code);
      if (protocol.is_null_pair(st, st)) return;
      diag_total_ = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(diag_total_) +
          static_cast<std::int64_t>(pair_weight(new_count)) -
          static_cast<std::int64_t>(pair_weight(old_count)));
    } else if constexpr (KeyedPassiveProtocol<P>) {
      const typename P::State st = protocol.decode(code);
      if (protocol.is_passive(st)) {
        const std::uint32_t slot =
            key_counts_.find_or_insert(protocol.passive_key(st), 0);
        const std::uint64_t old_kc = key_counts_.value_at(slot);
        const std::uint64_t new_kc = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(old_kc) + d);
        key_counts_.value_ref(slot) = new_kc;
        key_diag_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(key_diag_) +
            static_cast<std::int64_t>(pair_weight(new_kc)) -
            static_cast<std::int64_t>(pair_weight(old_kc)));
      } else {
        restless_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(restless_) + d);
      }
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      if (!protocol.is_passive(protocol.decode(code)))
        restless_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(restless_) + d);
    }
  }

  // W for a population of m agents holding the tracked counts:
  //   diagonal: sum over active q of m_q (m_q - 1)
  //   keyed:    A (m - 1) + S A + sum_k s_k (s_k - 1)
  //   unkeyed:  A (m - 1) + S A
  std::uint64_t total(std::uint64_t m) const {
    if constexpr (DiagonalActiveProtocol<P>) {
      (void)m;
      return diag_total_;
    } else if constexpr (KeyedPassiveProtocol<P>) {
      return restless_ * (m - 1) + (m - restless_) * restless_ + key_diag_;
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      return restless_ * (m - 1) + (m - restless_) * restless_;
    } else {
      (void)m;
      return 0;
    }
  }

  std::uint64_t restless() const { return restless_; }
  std::uint64_t key_diag() const { return key_diag_; }
  // Keyed only: passive key -> passive-agent count (insertion-ordered).
  const FlatMap64& key_counts() const { return key_counts_; }

 private:
  std::uint64_t diag_total_ = 0;  // diagonal W
  std::uint64_t restless_ = 0;    // A (keyed / unkeyed)
  std::uint64_t key_diag_ = 0;    // sum_k s_k (s_k - 1) (keyed)
  FlatMap64 key_counts_;          // keyed: s_k per occupied key
};

// --- Multinomial batch kernel -----------------------------------------------

// Weighted pool over the occupied subset of a huge code space. Where the
// full-|Q| Fenwick tree of the geometric-skip paths is O(|Q|) memory (280 MB
// for Optimal-Silent-SSR at n = 10^6, so every draw is ~25 DRAM misses),
// this pool indexes only the occupied codes — O(min(n, |Q|)) slots, usually
// cache-resident — and supports weighted without-replacement draws with a
// restore step, which is exactly the access pattern of a multinomial batch.
//
// The occupied codes are clustered into *segments*: all codes sharing
// code >> kSegShift (a contiguous 256-code span of the state space; state
// encodings place related states in nearby codes, so occupied codes arrive
// clustered). Each segment carries a weight subtotal and its member slots
// sorted by code, and the sampling Fenwick tree runs over the O(segments)
// subtotals rather than the O(occupied) raw codes. A weighted draw is one
// shallow Fenwick walk plus a short in-segment scan; bulk multiset splits
// (multinomial categories) chain hypergeometrics over the subtotals first
// and touch member weights only inside segments that actually received
// mass. Dense regimes — uniform-random starts with ~n distinct occupied
// states, the paper's adversarial worst case — are where the two-level
// layout pays: the per-draw structure shrinks by the mean segment fill,
// and splits skip empty segments wholesale.
//
// Slot handles remain stable between structural mutations (apply_delta /
// build / reset); draw/remove/restore never move slots.
class SegmentedPool {
 public:
  // log2 of the code span per segment. 256 codes keeps a segment's member
  // list inside a cache line or two while collapsing the Fenwick tree by
  // the mean segment fill.
  static constexpr std::uint32_t kSegShift = 8;

  bool built() const { return built_; }

  // Resets to a built-but-empty pool. The tau-leaping engine loads its
  // active-unit pool this way: O(occupied) apply_delta calls instead of an
  // O(|Q|) dense scan.
  void reset() {
    codes_.clear();
    weights_.clear();
    slot_of_.clear();
    slot_seg_.clear();
    segments_.clear();
    seg_of_.clear();
    total_ = 0;
    zero_slots_ = 0;
    removed_.clear();
    rebuild_seg_fenwick();
    built_ = true;
  }

  // Current weight of `code` (0 when the code has no slot).
  std::uint64_t weight_of(std::uint32_t code) const {
    const std::uint64_t* slot = slot_of_.find(code);
    return slot == nullptr ? 0 : weights_[static_cast<std::size_t>(*slot)];
  }

  // Slot of `code`, when it has one (weight may still be 0 until the next
  // compaction). Lets callers remove_bulk() at a known code — the
  // tau-leaping engine conditions its responder draw on the initiator unit
  // this way.
  bool find_slot(std::uint32_t code, std::uint32_t& slot) const {
    const std::uint64_t* s = slot_of_.find(code);
    if (s == nullptr) return false;
    slot = static_cast<std::uint32_t>(*s);
    return true;
  }

  void build(const std::vector<std::uint64_t>& counts) {
    reset();
    // Pre-size pass: count the occupied codes and their distinct segments
    // up front so the slot arrays are allocated once and the segment
    // Fenwick never doubles mid-build. Wide code spaces with scattered
    // occupancy — the count-form sublinear quotients put thousands of
    // occupied codes across thousands of segments — otherwise pay a
    // geometric ladder of O(cap) rebuild_seg_fenwick calls inside
    // ensure_slot.
    std::uint32_t occ = 0;
    std::uint32_t segs = 0;
    std::uint64_t last_seg = ~std::uint64_t{0};
    for (std::uint32_t code = 0; code < counts.size(); ++code) {
      if (counts[code] == 0) continue;
      ++occ;
      const std::uint64_t seg_id = code >> kSegShift;
      if (seg_id != last_seg) {
        ++segs;
        last_seg = seg_id;
      }
    }
    codes_.reserve(occ);
    weights_.reserve(occ);
    slot_seg_.reserve(occ);
    segments_.reserve(segs);
    std::uint32_t cap = 16;
    while (cap < segs) cap *= 2;
    seg_fenwick_ = WeightedSampler(cap);
    for (std::uint32_t code = 0; code < counts.size(); ++code) {
      if (counts[code] == 0) continue;
      bool fresh = false;
      const std::uint32_t slot = ensure_slot(code, &fresh);
      weights_[slot] = counts[code];
      const std::uint32_t seg = slot_seg_[slot];
      segments_[seg].weight += counts[code];
      total_ += counts[code];
    }
    rebuild_seg_fenwick();
  }

  std::uint64_t total() const { return total_; }
  std::uint32_t slots() const {
    return static_cast<std::uint32_t>(codes_.size());
  }
  std::uint32_t occupied() const {
    return static_cast<std::uint32_t>(codes_.size()) - zero_slots_;
  }
  std::uint32_t code_at(std::uint32_t slot) const { return codes_[slot]; }
  std::uint64_t weight_at(std::uint32_t slot) const { return weights_[slot]; }

  // --- Segment directory ---------------------------------------------------
  std::uint32_t segment_count() const {
    return static_cast<std::uint32_t>(segments_.size());
  }
  std::uint64_t segment_weight(std::uint32_t seg) const {
    return segments_[seg].weight;
  }
  // Member slots of a segment, sorted by code. Zero-weight members stay
  // listed until the next compaction (weighted scans skip them naturally).
  const std::vector<std::uint32_t>& segment_slots(std::uint32_t seg) const {
    return segments_[seg].slots;
  }
  // The member slot holding offset `target` of the segment's weight
  // (target in [0, segment_weight(seg))).
  std::uint32_t pick_in_segment(std::uint32_t seg, std::uint64_t target) const {
    for (std::uint32_t slot : segments_[seg].slots) {
      const std::uint64_t w = weights_[slot];
      if (target < w) return slot;
      target -= w;
    }
    throw std::logic_error("segment weight subtotal inconsistent");
  }

  // When exactly one code holds the whole population, writes it to `code`.
  // Only meaningful with no outstanding removals.
  bool single_occupied(std::uint32_t& code) const {
    if (occupied() != 1) return false;
    for (std::size_t i = 0; i < weights_.size(); ++i)
      if (weights_[i] != 0) {
        code = codes_[i];
        return true;
      }
    return false;
  }

  // Draws a slot ∝ weight and removes one unit from it (recorded for
  // restore_removed()): segment via the subtotal Fenwick, member by the
  // in-segment scan on the residual.
  std::uint32_t draw_remove(Rng& rng) {
    std::uint64_t rem = 0;
    const std::uint32_t seg = seg_fenwick_.find(rng.below(total_), &rem);
    const std::uint32_t slot = pick_in_segment(seg, rem);
    seg_fenwick_.add(seg, -1);
    --segments_[seg].weight;
    --weights_[slot];
    --total_;
    removed_.push_back(Removed{slot, 1});
    return slot;
  }

  // Removes `k` units at `slot` (recorded for restore_removed()).
  void remove_bulk(std::uint32_t slot, std::uint64_t k) {
    if (k == 0) return;
    const std::uint32_t seg = slot_seg_[slot];
    seg_fenwick_.add(seg, -static_cast<std::int64_t>(k));
    segments_[seg].weight -= k;
    weights_[slot] -= k;
    total_ -= k;
    removed_.push_back(Removed{slot, k});
  }

  // Restores every unit removed since the last restore, returning the pool
  // to "weights == counts" state.
  void restore_removed() {
    for (const Removed& r : removed_) {
      const std::uint32_t seg = slot_seg_[r.slot];
      seg_fenwick_.add(seg, static_cast<std::int64_t>(r.k));
      segments_[seg].weight += r.k;
      weights_[r.slot] += r.k;
      total_ += r.k;
    }
    removed_.clear();
  }

  // Permanent count change (counts[code] += delta), creating the slot (and
  // its segment) on demand. Must not be called while removals are
  // outstanding.
  void apply_delta(std::uint32_t code, std::int64_t delta) {
    if (delta == 0) return;
    bool fresh = false;
    const std::uint32_t slot = ensure_slot(code, &fresh);
    const std::uint64_t old = weights_[slot];
    weights_[slot] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(old) + delta);
    total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) +
                                        delta);
    const std::uint32_t seg = slot_seg_[slot];
    segments_[seg].weight = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(segments_[seg].weight) + delta);
    seg_fenwick_.add(seg, delta);
    if (old == 0 && weights_[slot] != 0 && !fresh) --zero_slots_;
    if (old != 0 && weights_[slot] == 0) ++zero_slots_;
    maybe_compact();
  }

 private:
  struct Removed {
    std::uint32_t slot;
    std::uint64_t k;
  };

  struct Segment {
    std::uint64_t weight = 0;          // sum of member weights
    std::vector<std::uint32_t> slots;  // member slots, sorted by code
  };

  // Slot for `code`, creating it (weight 0) and its segment on demand.
  std::uint32_t ensure_slot(std::uint32_t code, bool* fresh) {
    bool inserted = false;
    const std::uint32_t map_slot =
        slot_of_.find_or_insert(code, codes_.size(), &inserted);
    *fresh = inserted;
    if (!inserted)
      return static_cast<std::uint32_t>(slot_of_.value_at(map_slot));
    const auto slot = static_cast<std::uint32_t>(codes_.size());
    codes_.push_back(code);
    weights_.push_back(0);
    const std::uint64_t seg_id = code >> kSegShift;
    bool seg_inserted = false;
    const std::uint32_t seg_map =
        seg_of_.find_or_insert(seg_id, segments_.size(), &seg_inserted);
    std::uint32_t seg;
    if (seg_inserted) {
      seg = static_cast<std::uint32_t>(segments_.size());
      segments_.push_back(Segment{});
      if (segments_.size() > seg_fenwick_.size()) rebuild_seg_fenwick();
    } else {
      seg = static_cast<std::uint32_t>(seg_of_.value_at(seg_map));
    }
    auto& members = segments_[seg].slots;
    const auto it = std::lower_bound(
        members.begin(), members.end(), code,
        [this](std::uint32_t s, std::uint32_t c) { return codes_[s] < c; });
    members.insert(it, slot);
    slot_seg_.push_back(seg);
    return slot;
  }

  void rebuild_seg_fenwick() {
    std::uint32_t cap = 16;
    while (cap < segments_.size()) cap *= 2;
    std::vector<std::uint64_t> w(cap, 0);
    for (std::size_t i = 0; i < segments_.size(); ++i) w[i] = segments_[i].weight;
    seg_fenwick_ = WeightedSampler(cap);
    seg_fenwick_.build(w);
  }

  void maybe_compact() {
    if (codes_.size() < 64 || zero_slots_ * 2 < codes_.size()) return;
    std::vector<std::uint32_t> codes;
    std::vector<std::uint64_t> weights;
    codes.reserve(codes_.size() - zero_slots_);
    weights.reserve(codes_.size() - zero_slots_);
    for (std::size_t i = 0; i < codes_.size(); ++i) {
      if (weights_[i] == 0) continue;
      codes.push_back(codes_[i]);
      weights.push_back(weights_[i]);
    }
    const std::uint64_t saved_total = total_;
    codes_.clear();
    weights_.clear();
    slot_of_.clear();
    slot_seg_.clear();
    segments_.clear();
    seg_of_.clear();
    zero_slots_ = 0;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      bool fresh = false;
      const std::uint32_t slot = ensure_slot(codes[i], &fresh);
      weights_[slot] = weights[i];
      segments_[slot_seg_[slot]].weight += weights[i];
    }
    total_ = saved_total;
    rebuild_seg_fenwick();
  }

  std::vector<std::uint32_t> codes_;    // slot -> code
  std::vector<std::uint64_t> weights_;  // slot -> current weight
  FlatMap64 slot_of_;                   // code -> slot
  std::vector<std::uint32_t> slot_seg_; // slot -> segment index
  std::vector<Segment> segments_;       // insertion-ordered
  FlatMap64 seg_of_;                    // code >> kSegShift -> segment index
  WeightedSampler seg_fenwick_;         // over segment subtotals (pow-2 cap)
  std::uint64_t total_ = 0;
  std::uint32_t zero_slots_ = 0;
  std::vector<Removed> removed_;
  bool built_ = false;
};

// The pre-segmentation name; every consumer-facing contract (slots, draws,
// deltas, restore) is unchanged, so the alias keeps the engines readable.
using OccupiedPool = SegmentedPool;

// The distribution of the number L >= 1 of consecutive interactions whose
// 2L participants are all distinct (the birthday-problem prefix): with
// p_j = (n - 2j)(n - 2j - 1) / (n (n - 1)) the probability that interaction
// j+1 avoids the 2j agents already touched,
//   P[L >= i] = prod_{j < i} p_j,
// inverted against one uniform. p_0 = 1, so L >= 1; the product reaches 0
// at 2L >= n - 1, so L < n/2 + 1 and the interaction after the prefix
// provably touches an already-touched agent. E[L] ~ sqrt(pi n / 8) ~
// 0.63 sqrt(n).
//
// The tail products depend only on n, so they are computed once (down to
// underflow, ~sqrt(710 n) entries) and each draw is a binary search —
// O(log n) instead of O(sqrt(n)) multiplications per batch.
class CollisionPrefixSampler {
 public:
  void build(std::uint64_t n) {
    n_ = n;
    tail_.clear();
    tail_.push_back(1.0);  // P[L >= 0]
    const double inv_pairs =
        1.0 / (static_cast<double>(n) * static_cast<double>(n - 1));
    double g = 1.0;
    for (std::uint64_t l = 0;; ++l) {
      const double fresh =
          static_cast<double>(n) - 2.0 * static_cast<double>(l);
      if (fresh < 2.0) break;
      g *= fresh * (fresh - 1.0) * inv_pairs;
      if (g <= 0.0) break;  // underflow: P[L > l] is exactly 0 in doubles
      tail_.push_back(g);   // P[L >= l + 1]
    }
  }

  bool built_for(std::uint64_t n) const { return n_ == n && !tail_.empty(); }

  // L = max{i : P[L >= i] > u} for one uniform u; identical in value to the
  // sequential product inversion.
  std::uint64_t sample(Rng& rng) const {
    const double u = rng.unit();
    // First index with tail_[i] <= u over the descending table — the same
    // "stop at the first product <= u" rule as the sequential inversion.
    const auto it = std::lower_bound(tail_.begin(), tail_.end(), u,
                                     [](double a, double b) { return a > b; });
    const auto l = static_cast<std::uint64_t>(it - tail_.begin()) - 1;
    return l == 0 ? 1 : l;  // p_0 = 1: unreachable guard for rounding
  }

 private:
  std::uint64_t n_ = 0;
  std::vector<double> tail_;  // tail_[i] = P[L >= i], strictly descending
};

// Memoized transition table for deterministic protocols, keyed by the
// ordered state-code pair: one decode/interact/encode per distinct (s1, s2)
// ever seen, then every repetition is a table hit whose counter deltas are
// applied in bulk via add_scaled. Extracted from MultinomialKernel so the
// tau-leaping engine (core/tau_leap_simulation.h) applies its macro-leap
// category counts through the very same cache.
//
// Only meaningful for DeterministicProtocol protocols (and, if observable,
// ScalableCounters); callers gate on that — the template itself is left
// unconstrained so engines can declare a member for any protocol and simply
// never touch it outside a `if constexpr (cacheable)` branch.
template <class P>
class TransitionCache {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  struct Entry {
    std::uint32_t na = 0;
    std::uint32_t nb = 0;
    [[no_unique_address]] Counters counters_delta{};
  };

  // The memoized result of the ordered pair (a, b), computing it on first
  // use. The rng is threaded through for signature uniformity only — a
  // deterministic protocol never reads it.
  const Entry& lookup(const P& protocol, std::uint32_t a, std::uint32_t b,
                      Rng& rng) {
    bool inserted = false;
    std::uint32_t slot =
        map_.find_or_insert(pair_code_key(a, b), 0, &inserted);
    if (inserted) {
      if (entries_.size() >= kMaxEntries) {
        // Huge state spaces could make the cache grow without limit;
        // dropping it is always safe (it is a pure memoization).
        map_.clear();
        entries_.clear();
        slot = map_.find_or_insert(pair_code_key(a, b), 0);
      }
      Entry e;
      State sa = protocol.decode(a);
      State sb = protocol.decode(b);
      if constexpr (ObservableProtocol<P>) {
        Counters delta{};
        protocol.interact(sa, sb, rng, delta);
        e.counters_delta = delta;
      } else {
        protocol.interact(sa, sb, rng);
      }
      e.na = protocol.encode(sa);
      e.nb = protocol.encode(sb);
      map_.value_ref(slot) = entries_.size();
      entries_.push_back(e);
    }
    return entries_[map_.value_at(slot)];
  }

 private:
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 22;

  FlatMap64 map_;  // (a << 32 | b) -> index into entries_
  std::vector<Entry> entries_;
};

// The ppsim-style multinomial batch step. One call simulates, exactly:
//   * a collision-free prefix of L interactions, by drawing the 2L
//     participants' state multiset from the counts (sequential
//     without-replacement draws from the occupied pool, or bulk
//     multivariate-hypergeometric splits when few states are occupied —
//     both are the same distribution by exchangeability), pairing sender
//     and receiver multisets uniformly, and applying transitions per
//     distinct ordered (s1, s2) pair in bulk through a cached delta table;
//   * the single interaction that ends the batch by touching an
//     already-touched agent, replayed individually against the touched
//     agents' post-batch states (ppsim's collision handling).
//
// Transitions are cached only for DeterministicProtocol protocols (and, if
// observable, only when the Counters support add_scaled); otherwise every
// repetition invokes interact() — still correct, just without the bulk
// application savings.
template <EnumerableProtocol P>
class MultinomialKernel {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  static constexpr bool kCacheable =
      DeterministicProtocol<P> &&
      (!ObservableProtocol<P> || ScalableCounters<ProtocolCounters<P>>);

  bool built() const { return pool_.built(); }

  void ensure_built(const std::vector<std::uint64_t>& counts) {
    if (!pool_.built()) pool_.build(counts);
  }

  // Fault injection (core/faults.h), compiled into the batch exactly: the
  // prefix draw and participant sampling are untouched (faults change what
  // an interaction *does*, never who interacts), and each (s1, s2)
  // category's k repetitions are thinned by one Binomial(k, 1 - drop)
  // draw — a dropped pair leaves both agents unchanged, exactly like a
  // null pair. Of the survivors, Binomial(., oneway) are delivered
  // one-way: the cached transition applies, but the responder keeps its
  // old state. The colliding interaction replays its own per-interaction
  // fault draws. nullptr (the default) is the zero-overhead fault-free
  // path, bit-identical to the pre-fault kernel.
  void set_faults(const FaultSpec* faults) {
    faults_ = (faults != nullptr && faults->active()) ? faults : nullptr;
  }

  // Keeps the occupied pool current while another strategy drives the run.
  void on_external_change(std::uint32_t code, std::int64_t delta) {
    if (pool_.built()) pool_.apply_delta(code, delta);
  }

  // True iff every agent sits in one state code (written to `code`); the
  // engine uses this with is_null_pair to certify stuck configurations.
  bool single_occupied_code(std::uint32_t& code) const {
    return pool_.built() && pool_.single_occupied(code);
  }

  // Occupied segments of the pool (0 before the first batch builds it) —
  // the strategy controller's batch-amortization signal.
  std::uint32_t segment_count() const { return pool_.segment_count(); }

  // Runs one batch: mutates `counts`, accumulates protocol counters,
  // appends the net per-code deltas to `out_deltas`, and returns the number
  // of interactions consumed (L + 1). Requires n >= 2.
  //
  // `cap` > 0 truncates the batch exactly: when the drawn collision-free
  // prefix would overshoot (l + 1 > cap), the event "the first cap
  // interactions touch only fresh agents" has occurred — it is exactly
  // {L >= cap} — so the kernel simulates precisely cap collision-free
  // interactions, skips the collision replay, and returns cap. The engine
  // uses this to land a batch on the churn crash countdown with zero
  // overshoot.
  std::uint64_t run_batch(const P& protocol, std::vector<std::uint64_t>& counts,
                          Rng& rng, Counters& counters,
                          std::vector<CountDelta>& out_deltas,
                          std::uint64_t cap = 0) {
    ensure_built(counts);
    const std::uint64_t n = protocol.population_size();
    if (!prefix_.built_for(n)) prefix_.build(n);
    const std::uint64_t l = prefix_.sample(rng);
    // Exact truncation: l >= cap is the event that the first cap
    // interactions are collision-free, so conditioned on the drawn l the
    // truncated batch is cap collision-free interactions and no collision
    // replay.
    const bool truncated = cap > 0 && l + 1 > cap;
    const std::uint64_t use_l = truncated ? cap : l;

    net_.clear();
    touched_.clear();
    pair_list_.clear();

    // --- Prefix participants: 2l states drawn without replacement. The
    // ordered tuple of distinct agents is exchangeable, so drawing the l
    // initiators first and the l responders second, then pairing by index,
    // has exactly the scheduler's distribution. Bulk splitting costs
    // O(segments) hypergeometrics per side; per-draw costs O(l) pool draws
    // — cross over where the split is cheaper per interaction.
    if (2 * static_cast<std::uint64_t>(pool_.segment_count()) <= use_l) {
      sample_prefix_bulk(rng, use_l);
    } else {
      sample_prefix_per_draw(rng, use_l);
    }

    // --- Apply the prefix per distinct ordered pair.
    for (const PairCount& pc : pair_list_)
      apply_pair(protocol, pc.a, pc.b, pc.k, rng, counters);

    if (!truncated) {
      // --- The colliding interaction. Conditioned on the prefix ending at
      // length l, the first colliding pick is either the initiator (weight
      // r/n, r = 2l touched agents) or the responder after a fresh
      // initiator (weight (n-r)/n * r/(n-1)); scaled by n(n-1):
      const std::uint64_t r = 2 * l;
      const std::uint64_t w_init = r * (n - 1);
      const std::uint64_t w_resp = (n - r) * r;
      const std::uint64_t x = rng.below(w_init + w_resp);
      std::uint32_t ca, cb;
      if (x < w_init) {
        // Initiator is uniform among the touched agents (their *current*,
        // post-batch states); responder uniform over the other n - 1 agents.
        ca = pick_touched(rng.below(r), /*exclude=*/0, 0);
        const std::uint64_t y = rng.below(n - 1);
        if (y < r - 1) {
          cb = pick_touched(y, ca, 1);
        } else {
          cb = pool_.code_at(pool_.draw_remove(rng));  // untouched agent
        }
      } else {
        ca = pool_.code_at(pool_.draw_remove(rng));  // fresh initiator
        cb = pick_touched(rng.below(r), /*exclude=*/0, 0);
      }
      // The colliding interaction draws its own fault Bernoullis: dropped
      // means both agents return unchanged (their pool removals are undone
      // by restore_removed below); one-way means the responder keeps cb.
      const bool f_dropped = faults_ != nullptr && faults_->drop > 0.0 &&
                             rng.unit() < faults_->drop;
      if (!f_dropped) {
        const bool f_oneway = faults_ != nullptr && faults_->oneway > 0.0 &&
                              rng.unit() < faults_->oneway;
        State sa = protocol.decode(ca);
        State sb = protocol.decode(cb);
        invoke_interact(protocol, sa, sb, rng, counters);
        const std::uint32_t na = protocol.encode(sa);
        const std::uint32_t nb = f_oneway ? cb : protocol.encode(sb);
        net_.add(ca, -1);
        net_.add(na, +1);
        net_.add(cb, -1);
        net_.add(nb, +1);
      }
    }

    // --- Fold the batch back into the counts and the pool.
    pool_.restore_removed();
    for (std::uint32_t slot : net_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(net_.key_at(slot));
      const auto d = static_cast<std::int64_t>(net_.value_at(slot));
      if (d == 0) continue;
      counts[code] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(counts[code]) + d);
      pool_.apply_delta(code, d);
      out_deltas.push_back(CountDelta{code, static_cast<std::int32_t>(d)});
    }
    return truncated ? cap : l + 1;
  }

 private:
  struct PairCount {
    std::uint32_t a;
    std::uint32_t b;
    std::uint64_t k;
  };

  // One category run of a bulk split: `k` draws landed on `slot`.
  struct SlotRun {
    std::uint32_t slot;
    std::uint64_t k;
  };

  // Sequential without-replacement draws from the occupied pool: initiators
  // draws_[0..l), responders draws_[l..2l), paired by index and grouped.
  void sample_prefix_per_draw(Rng& rng, std::uint64_t l) {
    draws_.clear();
    draws_.reserve(2 * l);
    for (std::uint64_t i = 0; i < 2 * l; ++i)
      draws_.push_back(pool_.code_at(pool_.draw_remove(rng)));
    pairs_.clear();
    for (std::uint64_t i = 0; i < l; ++i)
      pairs_.add(pair_code_key(draws_[i], draws_[l + i]), 1);
    for (std::uint32_t slot : pairs_.entry_slots()) {
      const std::uint64_t key = pairs_.key_at(slot);
      pair_list_.push_back(PairCount{static_cast<std::uint32_t>(key >> 32),
                                     static_cast<std::uint32_t>(key),
                                     pairs_.value_at(slot)});
    }
  }

  // Below this allocation a segment's multiset is realized by sequential
  // weighted member draws (each one rng.below + short scan); above it by a
  // chained hypergeometric walk over the members.
  static constexpr std::uint64_t kSmallSegmentAlloc = 4;

  // Splits a `want`-sized multiset off the pool (without replacement) into
  // per-slot runs: chained hypergeometrics over the per-segment subtotals
  // first — O(segments) univariate draws with early exit, segments that
  // receive nothing are never opened — then each allocated segment's share
  // over its members. Removes the drawn units from the pool (restored by
  // the caller's restore_removed()).
  void split_segmented(Rng& rng, std::uint64_t want,
                       std::vector<SlotRun>& out) {
    out.clear();
    std::uint64_t remaining = pool_.total();
    std::uint64_t left = want;
    const std::uint32_t segs = pool_.segment_count();
    for (std::uint32_t seg = 0; seg < segs && left > 0; ++seg) {
      const std::uint64_t sw = pool_.segment_weight(seg);
      const std::uint64_t k =
          sw == 0 ? 0 : sample_hypergeometric(rng, sw, remaining - sw, left);
      remaining -= sw;
      left -= k;
      if (k == 0) continue;
      const auto& members = pool_.segment_slots(seg);
      if (members.size() == 1) {
        out.push_back(SlotRun{members[0], k});
        pool_.remove_bulk(members[0], k);
      } else if (k <= kSmallSegmentAlloc) {
        std::uint64_t seg_w = sw;
        for (std::uint64_t i = 0; i < k; ++i) {
          const std::uint32_t slot =
              pool_.pick_in_segment(seg, rng.below(seg_w--));
          out.push_back(SlotRun{slot, 1});
          pool_.remove_bulk(slot, 1);
        }
      } else {
        std::uint64_t seg_remaining = sw;
        std::uint64_t seg_left = k;
        for (std::uint32_t slot : members) {
          if (seg_left == 0) break;
          const std::uint64_t w = pool_.weight_at(slot);
          const std::uint64_t x =
              w == 0 ? 0
                     : sample_hypergeometric(rng, w, seg_remaining - w,
                                             seg_left);
          seg_remaining -= w;
          seg_left -= x;
          if (x != 0) {
            out.push_back(SlotRun{slot, x});
            pool_.remove_bulk(slot, x);
          }
        }
      }
    }
  }

  // Bulk path: split the initiator and responder multisets off the counts
  // with the two-level segmented split, then realize the uniform
  // initiator-responder bijection by Fisher-Yates-shuffling the expanded
  // responder sequence against the initiators in fixed category order —
  // O(l) cheap operations — and group the ordered pairs through the pairs_
  // map (no dense category matrix, so bulk has no occupied-count cap).
  void sample_prefix_bulk(Rng& rng, std::uint64_t l) {
    split_segmented(rng, l, sender_runs_);
    split_segmented(rng, l, recv_runs_);

    recv_expand_.clear();
    recv_expand_.reserve(l);
    for (const SlotRun& run : recv_runs_)
      for (std::uint64_t rep = 0; rep < run.k; ++rep)
        recv_expand_.push_back(pool_.code_at(run.slot));
    for (std::uint64_t i = l - 1; i > 0; --i) {
      const std::uint64_t j = rng.below(i + 1);
      std::swap(recv_expand_[i], recv_expand_[j]);
    }

    pairs_.clear();
    std::size_t idx = 0;
    for (const SlotRun& run : sender_runs_) {
      const std::uint32_t code_a = pool_.code_at(run.slot);
      for (std::uint64_t rep = 0; rep < run.k; ++rep)
        pairs_.add(pair_code_key(code_a, recv_expand_[idx++]), 1);
    }
    for (std::uint32_t slot : pairs_.entry_slots()) {
      const std::uint64_t key = pairs_.key_at(slot);
      pair_list_.push_back(PairCount{static_cast<std::uint32_t>(key >> 32),
                                     static_cast<std::uint32_t>(key),
                                     pairs_.value_at(slot)});
    }
  }

  // Applies k repetitions of the ordered pair (a, b): net count deltas,
  // touched-multiset bookkeeping, counters. Under faults the k repetitions
  // are thinned exactly: drops are i.i.d. per interaction, so the survivor
  // count is Binomial(k, 1 - drop) and the one-way count Binomial(.,
  // oneway); dropped pairs contribute no state change and no counters but
  // their agents are still touched (they participated in the prefix, with
  // unchanged states), so the collision replay sees the right multiset.
  void apply_pair(const P& protocol, std::uint32_t a, std::uint32_t b,
                  std::uint64_t k, Rng& rng, Counters& counters) {
    std::uint64_t survivors = k;
    std::uint64_t oneway = 0;
    if (faults_ != nullptr) {
      if (faults_->drop > 0.0)
        survivors = sample_binomial(rng, k, 1.0 - faults_->drop);
      if (faults_->oneway > 0.0 && survivors > 0)
        oneway = sample_binomial(rng, survivors, faults_->oneway);
      if (k > survivors) record_transition(a, b, a, b, k - survivors);
      if (survivors == 0) return;
    }
    const std::uint64_t full = survivors - oneway;
    if constexpr (kCacheable) {
      const typename TransitionCache<P>::Entry& e =
          cache_.lookup(protocol, a, b, rng);
      if constexpr (ObservableProtocol<P>) {
        counters.add_scaled(e.counters_delta, survivors);
      }
      if (full > 0) record_transition(a, b, e.na, e.nb, full);
      if (oneway > 0) record_transition(a, b, e.na, b, oneway);
    } else {
      // Randomized (or unscalable-counters) protocol: every repetition must
      // consume its own randomness / report its own events.
      const State base_a = protocol.decode(a);
      const State base_b = protocol.decode(b);
      for (std::uint64_t rep = 0; rep < survivors; ++rep) {
        State sa = base_a;
        State sb = base_b;
        invoke_interact(protocol, sa, sb, rng, counters);
        record_transition(a, b, protocol.encode(sa),
                          rep < full ? protocol.encode(sb) : b, 1);
      }
    }
  }

  void record_transition(std::uint32_t a, std::uint32_t b, std::uint32_t na,
                         std::uint32_t nb, std::uint64_t k) {
    const auto dk = static_cast<std::int64_t>(k);
    net_.add(a, -dk);
    net_.add(b, -dk);
    net_.add(na, +dk);
    net_.add(nb, +dk);
    touched_.add(na, dk);
    touched_.add(nb, dk);
  }

  // Uniform draw over the touched agents' current states (weight = multiset
  // count, `discount` subtracted at `exclude` — used to remove the chosen
  // collision initiator from the responder draw). Deterministic iteration
  // order (FlatMap64 preserves insertion order).
  std::uint32_t pick_touched(std::uint64_t target, std::uint32_t exclude,
                             std::uint64_t discount) const {
    for (std::uint32_t slot : touched_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(touched_.key_at(slot));
      std::uint64_t w = touched_.value_at(slot);
      if (discount > 0 && code == exclude) w -= discount;
      if (target < w) return code;
      target -= w;
    }
    throw std::logic_error("touched multiset exhausted in collision draw");
  }

  OccupiedPool pool_;
  CollisionPrefixSampler prefix_;
  const FaultSpec* faults_ = nullptr;  // non-null iff fault injection is on
  FlatMap64 pairs_;    // (a << 32 | b) -> repetitions (per-draw grouping)
  FlatMap64 net_;      // code -> net count delta (int64 bits)
  FlatMap64 touched_;  // code -> touched agents currently in that state
  TransitionCache<P> cache_;
  std::vector<PairCount> pair_list_;    // this batch's (s1, s2, k) groups
  std::vector<std::uint32_t> draws_;
  std::vector<SlotRun> sender_runs_;
  std::vector<SlotRun> recv_runs_;
  std::vector<std::uint32_t> recv_expand_;  // shuffled receiver codes
};

}  // namespace ppsim
