// Reusable sampling kernels for the count-based batched backend.
//
// BatchSimulation (core/batch_simulation.h) is assembled from the kernels
// in this file; each kernel is an independently testable piece of the
// count-vector machinery:
//
//   WeightedSampler       - Fenwick tree over per-state weights
//                           (O(log |Q|) point update and weighted draw)
//   FlatMap64             - open-addressing uint64 -> uint64 map used for
//                           dirty-code and dirty-key bookkeeping and the
//                           segmented pool's slot index
//   sample_ordered_state_pair
//                         - the scheduler's exact ordered state-pair draw
//   active_weights        - the structured active weight
//                           W = A(n-1) + (n-A)A + D and its parts, written
//                           once for every caller below
//   StructureKernel<P>    - the geometric-skip kernel of P's declared null
//                           structure, picked once by protocol type; all
//                           three share one member set (build, weights,
//                           on_count_change, resync, sample_pair, audit):
//       DiagonalKernel       non-null pairs have equal states
//                            (Silent-n-state-SSR)
//       KeyedPassiveKernel   null iff both passive with distinct keys
//                            (Optimal-Silent-SSR)
//       UnkeyedPassiveKernel both passive => null, no key (ResetProcess,
//                            one-way epidemics, the count-form quotients)
//   occupancy_profile     - a count vector's occupied codes and W in one
//                           pass, to classify a start before any engine
//                           is built
//   SegmentedPool         - weighted pool over the *occupied* subset of a
//                           huge code space, clustered into contiguous
//                           256-code segments with per-segment weight
//                           subtotals (weighted draws walk a Fenwick tree
//                           over O(segments) subtotals plus one short
//                           in-segment scan); no engine caller, kept only
//                           for perfbench's kernel timing
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

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

  // Equal trees hold equal weights: a Fenwick tree is a linear function of
  // its weight vector, so incremental updates and a fresh build() agree.
  bool operator==(const WeightedSampler&) const = default;

 private:
  std::vector<std::uint64_t> tree_;  // 1-based internal indexing
};

// One count change applied by the last effective step:
// counts()[code] moved by delta. Lets analysis code (e.g. the generic
// ranked-run harness) keep incremental trackers without rescanning O(|Q|)
// counts.
struct CountDelta {
  std::uint32_t code;
  std::int32_t delta;
};

// Open-addressing hash map uint64 -> uint64 (linear probing, power-of-two
// capacity, insertion-ordered iteration). The count engine's hot maps —
// dirty codes and dirty keys — live on this: no per-node allocation, O(1)
// clear, deterministic iteration order (so every consumer of the map is
// reproducible from the seed).
class FlatMap64 {
 public:
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

// pair_weight(new_m) - pair_weight(old_m).
inline std::int64_t pair_weight_change(std::uint64_t old_m,
                                       std::uint64_t new_m) {
  return static_cast<std::int64_t>(pair_weight(new_m)) -
         static_cast<std::int64_t>(pair_weight(old_m));
}

// x + d for a count or weight that d may lower.
inline std::uint64_t add_signed(std::uint64_t x, std::int64_t d) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(x) + d);
}

// --- Active weight ----------------------------------------------------------

// The active weight W of a structured protocol (core/protocol.h): the
// number of ordered agent pairs that may change the configuration, among m
// agents of which A are restless (not passive). Ordered candidate pairs
// partition exactly into
//   (1) restless initiator, any responder:        w1 = A (m - 1)
//   (2) passive initiator, restless responder:    w2 = (m - A) A
//   (3) both passive with the same key:           D = sum_k s_k (s_k - 1)
// so W = A (m - 1) + (m - A) A + D. A diagonal protocol is the case A = 0
// with D = sum over active q of m_q (m_q - 1); an unkeyed one has D = 0.
// The kernels and occupancy_profile both compute W here.
struct ActiveWeights {
  std::uint64_t restless = 0;  // A
  std::uint64_t diag = 0;      // D
  std::uint64_t w1 = 0;        // A (m - 1)
  std::uint64_t w2 = 0;        // (m - A) A
  std::uint64_t total = 0;     // W = w1 + w2 + D
};

inline ActiveWeights active_weights(std::uint64_t m, std::uint64_t restless,
                                    std::uint64_t diag) {
  ActiveWeights w;
  w.restless = restless;
  w.diag = diag;
  w.w1 = restless * (m - 1);
  w.w2 = (m - restless) * restless;
  w.total = w.w1 + w.w2 + diag;
  return w;
}

// --- Geometric-skip kernels -------------------------------------------------
//
// One kernel per null structure, all with one member set, so the engine
// holds a single StructureKernel<P> and never asks which structure it has:
//   build(protocol, counts)    O(|Q|) from a count vector;
//   weights(n)                 W and its parts, from the scalars;
//   on_count_change(protocol, code, state, old, new, lazy)
//                              counts[code] moved old -> new (state encodes
//                              to code); when `lazy`, only the scalars move
//                              and the Fenwick trees wait for the resync;
//   resync_code(protocol, code, old, new), then finish_resync()
//                              repair the trees for each code a lazy
//                              stretch moved, then once at the end;
//   sample_pair(rng, protocol, count_sampler, counts, n, weights)
//                              the next active ordered state pair (W > 0);
//   same_weights(other)        equal scalars and trees (engine audits).
// The scalars are always current (silent() and the auto-strategy density
// test read them); the Fenwick trees may go stale while the array arm
// drives the run, and are resynced by the engine before the next
// geometric-skip step.

// Diagonal: every non-null pair has equal states, so D = sum over active q
// of m_q (m_q - 1) and the colliding state is drawn ∝ m_q (m_q - 1).
template <EnumerableProtocol P>
class DiagonalKernel {
 public:
  using State = typename P::State;

  void build(const P& protocol, const std::vector<std::uint64_t>& counts) {
    const std::uint32_t q = protocol.num_states();
    active_.resize(q);
    std::vector<std::uint64_t> weights(q, 0);
    total_ = 0;
    for (std::uint32_t s = 0; s < q; ++s) {
      const State st = protocol.decode(s);
      active_[s] = !protocol.is_null_pair(st, st);
      if (active_[s]) {
        weights[s] = pair_weight(counts[s]);
        total_ += weights[s];
      }
    }
    sampler_.build(weights);
  }

  ActiveWeights weights(std::uint64_t n) const {
    return active_weights(n, 0, total_);
  }

  void on_count_change(const P&, std::uint32_t code, const State&,
                       std::uint64_t old_count, std::uint64_t new_count,
                       bool lazy) {
    if (!active_[code]) return;
    const std::int64_t dw = pair_weight_change(old_count, new_count);
    total_ = add_signed(total_, dw);
    if (!lazy && dw != 0) sampler_.add(code, dw);
  }

  void resync_code(const P&, std::uint32_t code, std::uint64_t old_count,
                   std::uint64_t new_count) {
    if (!active_[code]) return;
    const std::int64_t dw = pair_weight_change(old_count, new_count);
    if (dw != 0) sampler_.add(code, dw);
  }

  void finish_resync() {}

  std::pair<std::uint32_t, std::uint32_t> sample_pair(
      Rng& rng, const P&, WeightedSampler&, const std::vector<std::uint64_t>&,
      std::uint64_t, const ActiveWeights&) const {
    const std::uint32_t q = sampler_.find(rng.below(total_));
    return {q, q};
  }

  bool same_weights(const DiagonalKernel& o) const {
    return total_ == o.total_ && sampler_ == o.sampler_;
  }

 private:
  WeightedSampler sampler_;  // weight m_q (m_q - 1) on active states
  std::vector<char> active_;
  std::uint64_t total_ = 0;  // D (scalar mirror, always live)
};

// Keyed passive: null iff both passive with distinct keys (Optimal-Silent-
// SSR: passive = Settled, key = rank). The active pair is drawn by
// case-splitting on the three parts of W; each case samples its
// conditional distribution exactly.
template <EnumerableProtocol P>
class KeyedPassiveKernel {
 public:
  using State = typename P::State;

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
      const State st = protocol.decode(s);
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

  ActiveWeights weights(std::uint64_t n) const {
    return active_weights(n, restless_count_, diag_total_);
  }

  void on_count_change(const P& protocol, std::uint32_t code,
                       const State& st, std::uint64_t old_count,
                       std::uint64_t new_count, bool lazy) {
    const std::int64_t delta = static_cast<std::int64_t>(new_count) -
                               static_cast<std::int64_t>(old_count);
    if (protocol.is_passive(st)) {
      const std::uint32_t k = protocol.passive_key(st);
      const std::uint64_t old_kc = key_counts_[k];
      key_counts_[k] = add_signed(old_kc, delta);
      const std::int64_t dw = pair_weight_change(old_kc, key_counts_[k]);
      diag_total_ = add_signed(diag_total_, dw);
      if (!lazy) key_sampler_.add(k, dw);
    } else {
      restless_count_ = add_signed(restless_count_, delta);
      if (!lazy) restless_.add(code, delta);
    }
  }

  // Repairs the restless Fenwick for one dirtied code; a passive code's
  // change is summed per key here and the key Fenwick is repaired once per
  // key in finish_resync().
  void resync_code(const P& protocol, std::uint32_t code,
                   std::uint64_t old_count, std::uint64_t new_count) {
    const std::int64_t d = static_cast<std::int64_t>(new_count) -
                           static_cast<std::int64_t>(old_count);
    const State st = protocol.decode(code);
    if (protocol.is_passive(st)) {
      if (d != 0) dirty_keys_.add(protocol.passive_key(st), d);
      return;
    }
    if (d != 0) restless_.add(code, d);
  }

  void finish_resync() {
    for (std::uint32_t slot : dirty_keys_.entry_slots()) {
      const auto k = static_cast<std::uint32_t>(dirty_keys_.key_at(slot));
      const auto net = static_cast<std::int64_t>(dirty_keys_.value_at(slot));
      const std::uint64_t old_kc = add_signed(key_counts_[k], -net);
      const std::int64_t dw = pair_weight_change(old_kc, key_counts_[k]);
      if (dw != 0) key_sampler_.add(k, dw);
    }
    dirty_keys_.clear();
  }

  std::pair<std::uint32_t, std::uint32_t> sample_pair(
      Rng& rng, const P& protocol, WeightedSampler& count_sampler,
      const std::vector<std::uint64_t>& counts, std::uint64_t n,
      const ActiveWeights& kw) const {
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

  bool same_weights(const KeyedPassiveKernel& o) const {
    return restless_count_ == o.restless_count_ &&
           diag_total_ == o.diag_total_ && key_counts_ == o.key_counts_ &&
           restless_ == o.restless_ && key_sampler_ == o.key_sampler_;
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
  FlatMap64 dirty_keys_;                    // key -> net change at resync
};

// Unkeyed passive: a pair of two passive agents is null
// (kPassivePairsAreNull); pairs involving a restless agent may or may not
// be null and are simulated individually. D = 0, so W = 0 iff every agent
// is passive, which is silent by the structure guarantee.
template <EnumerableProtocol P>
class UnkeyedPassiveKernel {
 public:
  using State = typename P::State;

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

  ActiveWeights weights(std::uint64_t n) const {
    return active_weights(n, restless_count_, 0);
  }

  void on_count_change(const P& protocol, std::uint32_t code,
                       const State& st, std::uint64_t old_count,
                       std::uint64_t new_count, bool lazy) {
    if (protocol.is_passive(st)) return;
    const std::int64_t delta = static_cast<std::int64_t>(new_count) -
                               static_cast<std::int64_t>(old_count);
    restless_count_ = add_signed(restless_count_, delta);
    if (!lazy) restless_.add(code, delta);
  }

  void resync_code(const P& protocol, std::uint32_t code,
                   std::uint64_t old_count, std::uint64_t new_count) {
    if (protocol.is_passive(protocol.decode(code))) return;
    const std::int64_t d = static_cast<std::int64_t>(new_count) -
                           static_cast<std::int64_t>(old_count);
    if (d != 0) restless_.add(code, d);
  }

  void finish_resync() {}

  std::pair<std::uint32_t, std::uint32_t> sample_pair(
      Rng& rng, const P& protocol, WeightedSampler& count_sampler,
      const std::vector<std::uint64_t>&, std::uint64_t n,
      const ActiveWeights& kw) const {
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

  bool same_weights(const UnkeyedPassiveKernel& o) const {
    return restless_count_ == o.restless_count_ && restless_ == o.restless_;
  }

 private:
  WeightedSampler restless_;
  std::uint64_t restless_count_ = 0;
};

// Placeholder for protocols without a declared null structure; the engine
// never calls it.
struct NoStructureKernel {};

// The kernel of P's null structure, picked once by protocol type (diagonal
// before keyed before unkeyed).
template <EnumerableProtocol P>
using StructureKernel = std::conditional_t<
    DiagonalActiveProtocol<P>, DiagonalKernel<P>,
    std::conditional_t<
        KeyedPassiveProtocol<P>, KeyedPassiveKernel<P>,
        std::conditional_t<UnkeyedPassiveProtocol<P>, UnkeyedPassiveKernel<P>,
                           NoStructureKernel>>>;

// A count vector's occupied-code count and, for a structured protocol, its
// active weight W (0 otherwise), in one pass over the vector: scalars plus,
// for keyed protocols, a dense per-key count array (no Fenwick tree, no
// hash map). Used to classify a start before any engine is built.
struct OccupancyProfile {
  std::uint64_t occupied = 0;
  std::uint64_t active_weight = 0;
};

template <EnumerableProtocol P>
OccupancyProfile occupancy_profile(const P& protocol,
                                   const std::vector<std::uint64_t>& counts) {
  OccupancyProfile out;
  std::uint64_t restless = 0;
  std::uint64_t diag = 0;
  std::vector<std::uint64_t> key_counts;
  if constexpr (KeyedPassiveProtocol<P>)
    key_counts.assign(protocol.num_passive_keys(), 0);
  for (std::uint32_t code = 0; code < counts.size(); ++code) {
    const std::uint64_t c = counts[code];
    if (c == 0) continue;
    ++out.occupied;
    if constexpr (StructuredProtocol<P>) {
      const typename P::State st = protocol.decode(code);
      if constexpr (DiagonalActiveProtocol<P>) {
        if (!protocol.is_null_pair(st, st)) diag += pair_weight(c);
      } else if (!protocol.is_passive(st)) {
        restless += c;
      } else if constexpr (KeyedPassiveProtocol<P>) {
        std::uint64_t& kc = key_counts[protocol.passive_key(st)];
        diag += pair_weight(kc + c) - pair_weight(kc);
        kc += c;
      }
    }
  }
  out.active_weight =
      active_weights(protocol.population_size(), restless, diag).total;
  return out;
}

// --- Segmented occupied pool -----------------------------------------------

// Weighted pool over the occupied subset of a huge code space. Where the
// full-|Q| Fenwick tree of the geometric-skip paths is O(|Q|) memory (280 MB
// for Optimal-Silent-SSR at n = 10^6, so every draw is ~25 DRAM misses),
// this pool indexes only the occupied codes — O(min(n, |Q|)) slots, usually
// cache-resident — and supports weighted without-replacement draws with a
// restore step.
//
// The occupied codes are clustered into *segments*: all codes sharing
// code >> kSegShift (a contiguous 256-code span of the state space; state
// encodings place related states in nearby codes, so occupied codes arrive
// clustered). Each segment carries a weight subtotal and its member slots
// sorted by code, and the sampling Fenwick tree runs over the O(segments)
// subtotals rather than the O(occupied) raw codes. A weighted draw is one
// shallow Fenwick walk plus a short in-segment scan.
//
// Slot handles remain stable between structural mutations (apply_delta /
// build / reset); draw/remove/restore never move slots.
//
// SegmentedPool has no engine caller; it is kept only for perfbench's
// kernel timing (kernel.segmented_pool_draw_ns) and goes when that
// benchmark drops the column.
class SegmentedPool {
 public:
  // log2 of the code span per segment. 256 codes keeps a segment's member
  // list inside a cache line or two while collapsing the Fenwick tree by
  // the mean segment fill.
  static constexpr std::uint32_t kSegShift = 8;

  bool built() const { return built_; }

  // Resets to a built-but-empty pool, to be loaded by O(occupied)
  // apply_delta calls instead of an O(|Q|) dense scan.
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

}  // namespace ppsim
