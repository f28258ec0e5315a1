// Run-length-compressed count engine for the directed ring.
//
// On the clique the batched engine compresses the *configuration* (state
// counts) because agent identity is irrelevant. On a ring identity is
// position, so the compressible structure is different: runs of adjacent
// agents in the same state. RingSimulation keeps the configuration as a
// circular sequence of arcs (code, start, len) — maximal runs of equal
// states along the cycle — and plays the geometric-skip trick on the
// ring's n directed edges:
//
//   * an edge interior to an arc is (c, c); the boundary edge of an arc is
//     (c, next-arc's c). Nullity of either is a deterministic O(1) probe
//     (DeterministicProtocol), so each arc's count of active outgoing
//     edges is w(A) = (len-1)·[active(c,c)] + [active(c, next.c)], and the
//     total active weight W = sum w(A) over a Fenwick tree.
//   * each slot schedules a uniform edge, so the wait until the next
//     changeful slot is Geometric(W/n) exactly — one draw skips the whole
//     null stretch, then one Fenwick walk picks the active edge with the
//     exact conditional law (uniform among active edges).
//
// A converged ring-ssle population is a single coherent arc structure with
// O(1) active edges, so W/n = O(1/n) and the engine advances ~n slots per
// effective interaction; a one-way epidemic on the ring has exactly one
// active edge (the frontier) for the whole run. That is the ring analogue
// of the clique engine's silent-heavy regimes and the source of the
// bench_topology speedup at n = 10^6.
//
// Position surgery (an agent at position p changes state) is local: split
// the containing arc, re-merge with equal-coded neighbours, refresh the
// touched arcs' weights. A second Fenwick over positions (one mark per arc
// start) gives O(log n) position -> arc lookup, used for the responder of
// a boundary edge and for churn victims.
//
// Fault model (core/faults.h), compiled exactly:
//   drop   - thins the changeful-slot rate multiplicatively (a dropped
//            active slot is indistinguishable from a null slot), exactly
//            as in BatchSimulation::geometric_step;
//   oneway - drawn per effective interaction; the full transition is
//            computed (counters recorded in full, the documented
//            convention), only the initiator's new state is applied;
//   churn  - the same geometric slot-countdown as the other engines; the
//            victim position is uniform and the reset is one surgery.
//
// Satisfies the CountEngine concept: run_until's census loop (every stop
// condition), RankTracker delta-following and the stat harness all work
// unchanged on the ring path.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"  // CountDelta
#include "core/engine.h"         // StrategyTrace
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"

namespace ppsim {

// What the ring compression needs from a protocol: enumerable codes (the
// arc labels) and a deterministic transition (exact nullity probing and
// responder-independent replay). Protocols that draw randomness inside
// interact() stay on the agent array.
template <class P>
concept RingCompressibleProtocol =
    EnumerableProtocol<P> && DeterministicProtocol<P>;

// Fenwick tree over fixed [0, size): point add, prefix sums and select
// (smallest index whose inclusive prefix reaches k) in O(log size). Used
// twice per engine: u64 edge weights over arc slots, 0/1 start marks over
// ring positions.
class RingFenwick {
 public:
  void init(std::uint32_t size) {
    size_ = size;
    top_ = 1;
    while ((top_ << 1) <= size_) top_ <<= 1;
    tree_.assign(static_cast<std::size_t>(size_) + 1, 0);
    total_ = 0;
  }

  void add(std::uint32_t i, std::int64_t delta) {
    total_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(total_) +
                                        delta);
    for (std::uint32_t x = i + 1; x <= size_; x += x & (~x + 1))
      tree_[x] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(tree_[x]) + delta);
  }

  std::uint64_t total() const { return total_; }

  // Sum over [0, i).
  std::uint64_t prefix(std::uint32_t i) const {
    std::uint64_t s = 0;
    for (std::uint32_t x = i; x > 0; x -= x & (~x + 1)) s += tree_[x];
    return s;
  }

  // Smallest index i with prefix(i + 1) >= k, plus the remainder
  // k - prefix(i) in [1, weight(i)]. Requires 1 <= k <= total().
  std::pair<std::uint32_t, std::uint64_t> select(std::uint64_t k) const {
    std::uint32_t idx = 0;
    for (std::uint32_t step = top_; step > 0; step >>= 1) {
      const std::uint32_t nxt = idx + step;
      if (nxt <= size_ && tree_[nxt] < k) {
        idx = nxt;
        k -= tree_[nxt];
      }
    }
    return {idx, k};  // idx is 0-based; tree_ walk left it just before i
  }

 private:
  std::uint32_t size_ = 0;
  std::uint32_t top_ = 1;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> tree_;
};

template <RingCompressibleProtocol P>
class RingSimulation {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  // `initial` is position-ordered: initial[i] is the agent at ring
  // position i, with directed edges i -> (i+1) mod n. The same catalog
  // vector the agent-array engine consumes, so both engines start from
  // identical configurations per seed.
  RingSimulation(P protocol, std::vector<State> initial, std::uint64_t seed)
      : RingSimulation(std::move(protocol), std::move(initial), seed,
                       FaultSpec{}) {}

  RingSimulation(P protocol, std::vector<State> initial, std::uint64_t seed,
                 const FaultSpec& faults)
      : protocol_(std::move(protocol)), rng_(seed), faults_(faults) {
    n_ = protocol_.population_size();
    if (n_ < 2)
      throw std::invalid_argument("ring needs a population of >= 2 agents");
    if (initial.size() != n_)
      throw std::invalid_argument(
          "initial configuration size != population size");
    faults_.validate();
    faults_active_ = faults_.active();
    if (faults_.churn > 0.0) {
      if constexpr (!ChurnableProtocol<P>) {
        throw std::invalid_argument(
            "fault.churn needs a protocol with a churn_state()");
      } else {
        crash_q_ = faults_.crash_probability(n_);
        churn_code_ = protocol_.encode(protocol_.churn_state());
        crash_countdown_ = sample_geometric(rng_, crash_q_);
      }
    }
    build(initial);
  }

  std::uint32_t population_size() const { return n_; }
  P& protocol() { return protocol_; }
  const P& protocol() const { return protocol_; }
  const Counters& counters() const { return counters_; }
  const FaultSpec& faults() const { return faults_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }

  const std::vector<std::uint64_t>& state_counts() const {
    return state_counts_;
  }
  const std::vector<CountDelta>& last_deltas() const { return last_deltas_; }
  const StrategyTrace& strategy_trace() const { return trace_; }

  // Number of active directed edges in the current configuration (the
  // compression's whole-ring summary; 0 iff provably silent).
  std::uint64_t active_weight() const { return weights_.total(); }
  bool silent() const { return weights_.total() == 0; }

  // Number of maximal equal-state arcs (the compressed representation
  // size; 1 when the whole ring agrees).
  std::uint32_t arc_count() const { return arc_count_; }

  // The state at a ring position (O(log n); for tests and spot checks).
  State state_at(std::uint32_t pos) const {
    return protocol_.decode(arcs_[find_arc(pos)].code);
  }

  // Advances past the next changeful slot (the skipped null stretch counts
  // as real interactions). Returns slots consumed, 0 iff provably stuck:
  // zero active edges and no churn to revive them.
  std::uint64_t step() {
    last_deltas_.clear();
    const bool churn_on = crash_q_ > 0.0;
    const std::uint64_t w = weights_.total();
    double p = static_cast<double>(w) / static_cast<double>(n_);
    if (faults_active_) p *= 1.0 - faults_.drop;
    if (w == 0 || p <= 0.0) {  // silent (or drop == 1): only churn can act
      if (!churn_on) return 0;
      const std::uint64_t consumed = crash_fast_forward();
      trace_.note(StrategyArm::kGeometricSkip, consumed);
      return consumed;
    }
    const std::uint64_t wait = sample_geometric(rng_, p);
    if (churn_on && wait > crash_countdown_) {
      const std::uint64_t consumed = crash_fast_forward();
      trace_.note(StrategyArm::kGeometricSkip, consumed);
      return consumed;
    }
    interactions_ += wait;
    if (churn_on) crash_countdown_ -= wait;
    apply_active_edge();
    maybe_crash_after_slot();
    trace_.note(StrategyArm::kGeometricSkip, wait);
    return wait;
  }

  // Runs until at least `count` interactions have elapsed (a final skip
  // may overshoot; the overshoot is real simulated time, not error).
  void run(std::uint64_t count) {
    const std::uint64_t target = interactions_ + count;
    while (interactions_ < target)
      if (step() == 0) break;  // silent: nothing will ever change again
  }

 private:
  struct Arc {
    std::uint32_t code = 0;
    std::uint32_t start = 0;  // first ring position of the run
    std::uint32_t len = 0;    // 0 marks a free slot
    std::uint32_t prev = 0;   // circular order around the ring
    std::uint32_t next = 0;
  };

  std::uint32_t pos_add(std::uint32_t pos, std::uint32_t d) const {
    const std::uint64_t s = static_cast<std::uint64_t>(pos) + d;
    return static_cast<std::uint32_t>(s >= n_ ? s - n_ : s);
  }

  // Exact deterministic nullity of the directed edge (ca -> cb). Uses the
  // protocol's own predicate when it has one; otherwise a trial
  // application (kDeterministicInteract: the rng is never read, and probe
  // counters are discarded).
  bool edge_active(std::uint32_t ca, std::uint32_t cb) {
    if constexpr (NullPairProtocol<P>) {
      return !protocol_.is_null_pair(protocol_.decode(ca),
                                     protocol_.decode(cb));
    } else {
      State a = protocol_.decode(ca);
      State b = protocol_.decode(cb);
      Counters scratch{};
      invoke_interact(protocol_, a, b, probe_rng_, scratch);
      return protocol_.encode(a) != ca || protocol_.encode(b) != cb;
    }
  }

  std::uint64_t internal_weight(const Arc& a) {
    if (a.len < 2) return 0;
    return edge_active(a.code, a.code) ? a.len - 1u : 0u;
  }

  std::uint64_t arc_weight(const Arc& a) {
    std::uint64_t w = internal_weight(a);
    if (edge_active(a.code, arcs_[a.next].code)) w += 1;
    return w;
  }

  // Always inlined: it sits on every surgery's path, and GCC's unit-wide
  // inlining budget otherwise decides it from the size of the whole
  // translation unit (out of line it costs the ring workloads a few %).
  [[gnu::always_inline]] void refresh_weight(std::uint32_t slot) {
    if (arcs_[slot].len == 0) return;  // freed during the same surgery
    const std::uint64_t w = arc_weight(arcs_[slot]);
    const std::uint64_t old = weights_.prefix(slot + 1) - weights_.prefix(slot);
    if (w != old)
      weights_.add(slot, static_cast<std::int64_t>(w) -
                             static_cast<std::int64_t>(old));
  }

  // --- construction ---------------------------------------------------

  void build(const std::vector<State>& initial) {
    state_counts_.assign(protocol_.num_states(), 0);
    std::vector<std::uint32_t> codes(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      codes[i] = protocol_.encode(initial[i]);
      ++state_counts_[codes[i]];
    }
    // Linear runs, then circular merge of the first and last.
    struct Run {
      std::uint32_t code, start, len;
    };
    std::vector<Run> runs;
    for (std::uint32_t i = 0; i < n_;) {
      std::uint32_t j = i + 1;
      while (j < n_ && codes[j] == codes[i]) ++j;
      runs.push_back({codes[i], i, j - i});
      i = j;
    }
    if (runs.size() > 1 && runs.front().code == runs.back().code) {
      runs.front().start = runs.back().start;
      runs.front().len += runs.back().len;
      runs.pop_back();
    }
    arcs_.assign(n_, Arc{});
    free_.clear();
    for (std::uint32_t s = n_; s > static_cast<std::uint32_t>(runs.size());
         --s)
      free_.push_back(s - 1);
    arc_count_ = static_cast<std::uint32_t>(runs.size());
    weights_.init(n_);
    marks_.init(n_);
    start_slot_.assign(n_, 0);
    for (std::uint32_t s = 0; s < arc_count_; ++s) {
      arcs_[s] = Arc{runs[s].code, runs[s].start, runs[s].len,
                     s == 0 ? arc_count_ - 1 : s - 1,
                     s + 1 == arc_count_ ? 0 : s + 1};
      marks_.add(runs[s].start, +1);
      start_slot_[runs[s].start] = s;
    }
    for (std::uint32_t s = 0; s < arc_count_; ++s) refresh_weight(s);
  }

  // --- position -> arc lookup ------------------------------------------

  std::uint32_t find_arc(std::uint32_t pos) const {
    // Starts in [0, pos]; none means pos sits in the arc wrapping past 0,
    // i.e. the one with the numerically last start.
    std::uint64_t k = marks_.prefix(pos + 1);
    if (k == 0) k = marks_.total();
    return start_slot_[marks_.select(k).first];
  }

  // --- RLE surgery ------------------------------------------------------

  std::uint32_t alloc_arc(std::uint32_t code, std::uint32_t start,
                          std::uint32_t len) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    arcs_[slot].code = code;
    arcs_[slot].start = start;
    arcs_[slot].len = len;
    marks_.add(start, +1);
    start_slot_[start] = slot;
    ++arc_count_;
    return slot;
  }

  void link_after(std::uint32_t slot, std::uint32_t after) {
    const std::uint32_t nxt = arcs_[after].next;
    arcs_[slot].prev = after;
    arcs_[slot].next = nxt;
    arcs_[after].next = slot;
    arcs_[nxt].prev = slot;
  }

  void free_arc(std::uint32_t slot) {
    const std::uint64_t w = weights_.prefix(slot + 1) - weights_.prefix(slot);
    if (w != 0) weights_.add(slot, -static_cast<std::int64_t>(w));
    marks_.add(arcs_[slot].start, -1);
    arcs_[slot].len = 0;
    free_.push_back(slot);
    --arc_count_;
  }

  // Absorbs arc `b` (the ring successor of `a`) into `a`.
  void merge_into(std::uint32_t a, std::uint32_t b) {
    arcs_[a].len += arcs_[b].len;
    const std::uint32_t nxt = arcs_[b].next;
    free_arc(b);
    arcs_[a].next = nxt;
    arcs_[nxt].prev = a;
  }

  void move_start(std::uint32_t slot, std::uint32_t new_start) {
    marks_.add(arcs_[slot].start, -1);
    arcs_[slot].start = new_start;
    marks_.add(new_start, +1);
    start_slot_[new_start] = slot;
  }

  // Rewrites the state at ring position `pos` to `code` (which must differ
  // from the current one), restoring arc maximality and refreshing the
  // touched weights. O(log n).
  void set_position(std::uint32_t pos, std::uint32_t code) {
    const std::uint32_t slot = find_arc(pos);
    Arc& a = arcs_[slot];
    const std::uint32_t old = a.code;
    --state_counts_[old];
    ++state_counts_[code];
    last_deltas_.push_back({old, -1});
    last_deltas_.push_back({code, +1});
    const std::uint32_t k = pos >= a.start
                                ? pos - a.start
                                : pos + n_ - a.start;  // offset inside the arc
    std::uint32_t touched[3];
    std::uint32_t n_touched = 0;
    if (a.len == 1) {
      a.code = code;
      std::uint32_t self = slot;
      // Re-merge with equal-coded neighbours (guarding the single-arc and
      // two-arc rings where prev/next alias self).
      if (arcs_[self].next != self && arcs_[arcs_[self].next].code == code)
        merge_into(self, arcs_[self].next);
      const std::uint32_t prv = arcs_[self].prev;
      if (prv != self && arcs_[prv].code == code) {
        merge_into(prv, self);
        self = prv;
      }
      touched[n_touched++] = self;
    } else if (k == 0) {
      move_start(slot, pos_add(a.start, 1));
      a.len -= 1;
      const std::uint32_t m = alloc_arc(code, pos, 1);
      // Insert immediately before `slot` in ring order; when the arc was
      // the whole ring (prev == slot) this degenerates to the 2-cycle.
      link_after(m, a.prev);
      std::uint32_t self = m;
      const std::uint32_t prv = arcs_[m].prev;
      if (prv != m && prv != slot && arcs_[prv].code == code) {
        merge_into(prv, m);
        self = prv;
      }
      touched[n_touched++] = self;
      touched[n_touched++] = slot;
    } else if (k == a.len - 1) {
      a.len -= 1;
      const std::uint32_t m = alloc_arc(code, pos, 1);
      link_after(m, slot);
      std::uint32_t self = m;
      const std::uint32_t nxt = arcs_[m].next;
      if (nxt != m && nxt != slot && arcs_[nxt].code == code)
        merge_into(self, nxt);
      touched[n_touched++] = self;
      touched[n_touched++] = slot;
    } else {
      // Interior split: A[0..k-1] | M | B[k+1..]; no merges are possible
      // (M differs from the old code on both sides by maximality).
      const std::uint32_t tail_len = a.len - k - 1;
      a.len = k;
      const std::uint32_t m = alloc_arc(code, pos, 1);
      link_after(m, slot);
      const std::uint32_t b = alloc_arc(old, pos_add(pos, 1), tail_len);
      link_after(b, m);
      touched[n_touched++] = slot;
      touched[n_touched++] = m;
      touched[n_touched++] = b;
    }
    for (std::uint32_t i = 0; i < n_touched; ++i) {
      refresh_weight(touched[i]);
      refresh_weight(arcs_[touched[i]].prev);
    }
  }

  // --- the effective interaction ---------------------------------------

  void apply_active_edge() {
    const std::uint64_t w = weights_.total();
    const std::uint64_t x = rng_.below(w);
    const auto [slot, rem] = weights_.select(x + 1);
    const Arc& a = arcs_[slot];
    const std::uint64_t internal = internal_weight(arcs_[slot]);
    std::uint32_t p;
    std::uint32_t cb;
    if (rem <= internal) {
      p = pos_add(a.start, static_cast<std::uint32_t>(rem - 1));
      cb = a.code;
    } else {
      p = pos_add(a.start, a.len - 1);
      cb = arcs_[a.next].code;
    }
    const std::uint32_t q = pos_add(p, 1);
    const std::uint32_t ca = a.code;
    bool one_way = false;
    if (faults_active_ && faults_.oneway > 0.0)
      one_way = rng_.unit() < faults_.oneway;
    State sa = protocol_.decode(ca);
    State sb = protocol_.decode(cb);
    invoke_interact(protocol_, sa, sb, rng_, counters_);
    const std::uint32_t na = protocol_.encode(sa);
    const std::uint32_t nb = one_way ? cb : protocol_.encode(sb);
    if (na != ca) set_position(p, na);
    if (nb != cb) set_position(q, nb);
  }

  // --- churn ------------------------------------------------------------

  void crash_uniform_agent() {
    if constexpr (ChurnableProtocol<P>) {
      const auto victim = static_cast<std::uint32_t>(rng_.below(n_));
      const std::uint32_t old = arcs_[find_arc(victim)].code;
      if (old != churn_code_) set_position(victim, churn_code_);
    }
  }

  void maybe_crash_after_slot() {
    if (crash_q_ > 0.0 && crash_countdown_ == 0) {
      crash_uniform_agent();
      crash_countdown_ = sample_geometric(rng_, crash_q_);
    }
  }

  // No changeful interaction can precede the next crash: consume the
  // countdown's null slots, crash at the countdown's own slot, redraw.
  // Always consumes >= 1 slot, so a churning engine never reports stuck.
  std::uint64_t crash_fast_forward() {
    const std::uint64_t consumed = crash_countdown_;
    interactions_ += consumed;
    crash_countdown_ = 0;
    maybe_crash_after_slot();
    return consumed;
  }

  P protocol_;
  std::uint32_t n_ = 0;
  Rng rng_;
  Rng probe_rng_{0};  // never advanced: deterministic probes don't read it
  FaultSpec faults_{};
  bool faults_active_ = false;
  double crash_q_ = 0.0;
  std::uint32_t churn_code_ = 0;
  std::uint64_t crash_countdown_ = 0;
  std::uint64_t interactions_ = 0;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> free_;
  std::uint32_t arc_count_ = 0;
  RingFenwick weights_;  // active outgoing edges per arc slot
  RingFenwick marks_;    // one mark per arc start position
  std::vector<std::uint32_t> start_slot_;  // valid where a mark is set
  std::vector<std::uint64_t> state_counts_;
  std::vector<CountDelta> last_deltas_;
  StrategyTrace trace_;
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
