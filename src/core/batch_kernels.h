// Reusable sampling kernels for the count-based batched backend.
//
// BatchSimulation (core/batch_simulation.h) is assembled from the kernels
// in this file; each kernel is an independently testable piece of the
// count-vector machinery:
//
//   WeightedSampler       - Fenwick tree over per-state weights
//                           (O(log |Q|) point update and weighted draw)
//   sample_ordered_state_pair
//                         - the scheduler's exact ordered state-pair draw
//   active_weights        - the structured active weight
//                           W = A(n-1) + (n-A)A + D and its parts, written
//                           once for every caller below
//   StructureKernel<P>    - the geometric-skip kernel of P's declared null
//                           structure, picked once by protocol type; all
//                           three share one member set (build, weights,
//                           on_count_change, sample_pair, same_weights):
//       DiagonalKernel       non-null pairs have equal states
//                            (Silent-n-state-SSR)
//       KeyedPassiveKernel   null iff both passive with distinct keys
//                            (Optimal-Silent-SSR)
//       UnkeyedPassiveKernel both passive => null, no key (ResetProcess,
//                            one-way epidemics, the count-form quotients)
//   occupancy_profile     - a count vector's occupied codes and W in one
//                           pass, to classify a start before any engine
//                           is built
//   SegmentedPool         - weighted without-replacement draws over the
//                           *occupied* codes of a huge code space, built
//                           once into contiguous 256-code segments with
//                           weight subtotals (a draw walks a Fenwick tree
//                           over the O(segments) subtotals plus one short
//                           in-segment scan); no engine caller, kept only
//                           for perfbench's kernel timing
#pragma once

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

  // All `size` weights zero, reusing the tree's storage: a rebuild never
  // holds two trees at once.
  void reset(std::uint32_t size) { tree_.assign(size + 1, 0); }

  // O(size) bulk construction from a full weight vector (replaces any
  // existing content) — point-adds would cost O(size log size).
  void build(const std::vector<std::uint64_t>& weights) {
    reset(static_cast<std::uint32_t>(weights.size()));
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

  bool operator==(const ActiveWeights&) const = default;
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
//                              and the Fenwick trees go stale;
//   sample_pair(rng, protocol, count_sampler, counts, n, weights)
//                              the next active ordered state pair (W > 0);
//   same_weights(other)        equal scalars and trees (engine audits).
// The scalars are always current (silent() and the auto-strategy density
// test read them); the Fenwick trees go stale while the array arm drives
// the run, and the engine rebuilds the kernel from the counts when it
// leaves the arm.

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
    restless_.reset(q);
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
    restless_.reset(q);
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

// Weighted without-replacement draws over the occupied subset of a huge
// code space. Where the full-|Q| Fenwick tree of the geometric-skip paths is
// O(|Q|) memory (280 MB for Optimal-Silent-SSR at n = 10^6, so every draw is
// ~25 DRAM misses), this pool indexes only the occupied codes —
// O(min(n, |Q|)) slots, usually cache-resident.
//
// build() scans the codes in ascending order, so slots and segments come
// out in code order. A *segment* holds the occupied codes sharing
// code >> kSegShift (a contiguous 256-code span of the state space; state
// encodings place related states in nearby codes, so occupied codes
// cluster) with its weight subtotal, and the sampling Fenwick tree runs
// over the O(segments) subtotals rather than the O(occupied) raw codes. A
// weighted draw is one shallow Fenwick walk plus a short in-segment scan.
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

  void build(const std::vector<std::uint64_t>& counts) {
    codes_.clear();
    weights_.clear();
    slot_seg_.clear();
    segments_.clear();
    removed_.clear();
    total_ = 0;
    std::uint32_t span = 0;  // code >> kSegShift of the last segment
    for (std::uint32_t code = 0; code < counts.size(); ++code) {
      if (counts[code] == 0) continue;
      if (segments_.empty() || code >> kSegShift != span) {
        span = code >> kSegShift;
        segments_.emplace_back();
      }
      const auto slot = static_cast<std::uint32_t>(codes_.size());
      codes_.push_back(code);
      weights_.push_back(counts[code]);
      slot_seg_.push_back(static_cast<std::uint32_t>(segments_.size()) - 1);
      segments_.back().slots.push_back(slot);
      segments_.back().weight += counts[code];
      total_ += counts[code];
    }
    std::vector<std::uint64_t> subtotals;
    subtotals.reserve(segments_.size());
    for (const Segment& seg : segments_) subtotals.push_back(seg.weight);
    seg_fenwick_.build(subtotals);
    built_ = true;
  }

  std::uint64_t total() const { return total_; }
  std::uint32_t occupied() const {
    return static_cast<std::uint32_t>(codes_.size());
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
  // Member slots of a segment, sorted by code.
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
    removed_.push_back(slot);
    return slot;
  }

  // Restores every unit removed since the last restore, returning the pool
  // to "weights == counts" state.
  void restore_removed() {
    for (std::uint32_t slot : removed_) {
      const std::uint32_t seg = slot_seg_[slot];
      seg_fenwick_.add(seg, 1);
      ++segments_[seg].weight;
      ++weights_[slot];
      ++total_;
    }
    removed_.clear();
  }

 private:
  struct Segment {
    std::uint64_t weight = 0;          // sum of member weights
    std::vector<std::uint32_t> slots;  // member slots, sorted by code
  };

  std::vector<std::uint32_t> codes_;     // slot -> code, ascending
  std::vector<std::uint64_t> weights_;   // slot -> current weight
  std::vector<std::uint32_t> slot_seg_;  // slot -> segment index
  std::vector<Segment> segments_;        // in code order
  WeightedSampler seg_fenwick_;          // over segment subtotals
  std::uint64_t total_ = 0;
  std::vector<std::uint32_t> removed_;   // one entry per removed unit
  bool built_ = false;
};

}  // namespace ppsim
