// Active-edge count engine for the directed ring.
//
// The configuration is a position -> code array (codes_[i] is the agent at
// ring position i, with the directed edge i -> (i+1) mod n) plus the set A
// of active edges: those whose ordered code pair is not null. Nullity is a
// deterministic O(1) probe (DeterministicProtocol). A is a swap-remove
// vector with an edge -> slot index, so membership changes are O(1).
//
// Sampling law. Each slot schedules a uniform one of the n edges, so the
// wait until the next changeful slot is Geometric(|A|/n) exactly, and the
// edge it lands on is uniform in A. One geometric draw skips the whole
// null stretch (the skipped slots count as real interactions), then
// A[rng.below(|A|)] picks the edge.
//
// O(1) update. Only edges that touch a changed position can change
// activity: for position p, (p-1 -> p) and (p -> p+1). An effective
// interaction changes at most its two endpoints, so a step re-probes at
// most four edges.
//
// A converged ring-ssle population has O(1) active edges, so the engine
// advances ~n slots per effective interaction; a one-way epidemic on the
// ring has exactly one active edge (the frontier) for the whole run.
//
// Fault model (core/faults.h), compiled exactly:
//   drop   - thins the changeful-slot rate multiplicatively (a dropped
//            active slot is indistinguishable from a null slot), exactly
//            as in BatchSimulation::geometric_step;
//   oneway - drawn per effective interaction; the full transition is
//            computed (counters recorded in full, the documented
//            convention), only the initiator's new state is applied;
//   churn  - the same geometric slot-countdown as the other engines; the
//            victim position is uniform and its reset is one position
//            write.
//
// state_counts_ stays a dense per-code histogram, although the position
// array already determines it: the CountEngine census (run_until's stop
// loop, RankTracker delta-following, the stat harness) and perfbench's
// layer driver (driver.check_counts) read it, updated through
// last_deltas().
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"  // CountDelta
#include "core/engine.h"         // StrategyTrace
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"

namespace ppsim {

// What the ring engine needs from a protocol: enumerable codes (the
// position array) and a deterministic transition (exact nullity probing
// and responder-independent replay). Protocols that draw randomness inside
// interact() stay on the agent array.
template <class P>
concept RingCompressibleProtocol =
    EnumerableProtocol<P> && DeterministicProtocol<P>;

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
    state_counts_.assign(protocol_.num_states(), 0);
    codes_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) {
      codes_[i] = protocol_.encode(initial[i]);
      ++state_counts_[codes_[i]];
    }
    slot_.assign(n_, kInactive);
    for (std::uint32_t e = 0; e < n_; ++e) refresh_edge(e);
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

  // Number of active directed edges |A|; 0 iff provably silent.
  std::uint64_t active_weight() const { return active_.size(); }
  bool silent() const { return active_.empty(); }

  // The state at a ring position.
  State state_at(std::uint32_t pos) const {
    return protocol_.decode(codes_[pos]);
  }

  // Advances past the next changeful slot (the skipped null stretch counts
  // as real interactions). Returns slots consumed, 0 iff provably stuck:
  // zero active edges and no churn to revive them. Flattened, like the
  // batch engine's steps (see BatchSimulation::step_array).
  [[gnu::flatten]] std::uint64_t step() {
    last_deltas_.clear();
    const bool churn_on = crash_q_ > 0.0;
    double p = static_cast<double>(active_.size()) / static_cast<double>(n_);
    if (faults_active_) p *= 1.0 - faults_.drop;
    if (p <= 0.0) {  // silent (or drop == 1): only churn can act
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

  // Recomputes the incremental bookkeeping from the position array and
  // throws std::logic_error naming the first mismatch. Consumes no
  // randomness and changes nothing. O(n), for tests.
  void audit() const {
    auto fail = [](const char* what) {
      throw std::logic_error(std::string("RingSimulation audit: ") + what);
    };
    std::vector<std::uint64_t> histogram(state_counts_.size(), 0);
    for (std::uint32_t code : codes_) ++histogram[code];
    if (histogram != state_counts_) fail("code histogram != state_counts()");
    std::vector<std::uint32_t> where(n_, kInactive);
    for (std::uint32_t s = 0; s < active_.size(); ++s) {
      const std::uint32_t e = active_[s];
      if (e >= n_ || where[e] != kInactive)
        fail("active set holds an out-of-range or repeated edge");
      where[e] = s;
    }
    for (std::uint32_t e = 0; e < n_; ++e)
      if ((where[e] != kInactive) != edge_active(e))
        fail("active set != the non-null edges of a brute-force scan");
    if (where != slot_) fail("slot index is not the active set's inverse");
  }

 private:
  static constexpr std::uint32_t kInactive =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t next_pos(std::uint32_t pos) const {
    return pos + 1 == n_ ? 0 : pos + 1;
  }
  std::uint32_t prev_pos(std::uint32_t pos) const {
    return pos == 0 ? n_ - 1 : pos - 1;
  }

  // Exact deterministic nullity of edge e -> e+1. Uses the protocol's own
  // predicate when it has one; otherwise a trial application
  // (kDeterministicInteract: the rng is never read, and probe counters
  // are discarded).
  bool edge_active(std::uint32_t e) const {
    const std::uint32_t ca = codes_[e];
    const std::uint32_t cb = codes_[next_pos(e)];
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

  // Re-probes edge e and moves it into or out of A.
  void refresh_edge(std::uint32_t e) {
    const bool on = edge_active(e);
    const std::uint32_t s = slot_[e];
    if (on == (s != kInactive)) return;
    if (on) {
      slot_[e] = static_cast<std::uint32_t>(active_.size());
      active_.push_back(e);
    } else {
      const std::uint32_t last = active_.back();
      active_[s] = last;
      slot_[last] = s;
      active_.pop_back();
      slot_[e] = kInactive;
    }
  }

  // Rewrites the state at ring position `pos` to `code` (which must differ
  // from the current one) and re-probes the two edges at `pos`.
  void set_position(std::uint32_t pos, std::uint32_t code) {
    const std::uint32_t old = codes_[pos];
    codes_[pos] = code;
    --state_counts_[old];
    ++state_counts_[code];
    last_deltas_.push_back({old, -1});
    last_deltas_.push_back({code, +1});
    refresh_edge(prev_pos(pos));
    refresh_edge(pos);
  }

  void apply_active_edge() {
    const std::uint32_t p = active_[rng_.below(active_.size())];
    const std::uint32_t q = next_pos(p);
    const std::uint32_t ca = codes_[p];
    const std::uint32_t cb = codes_[q];
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
  //
  // The crash and the crash fast-forward are cold (once per crash) and kept
  // out of line: flattened into every step instantiation they only grew
  // the binary.

  [[gnu::noinline]] void crash_uniform_agent() {
    if constexpr (ChurnableProtocol<P>) {
      const auto victim = static_cast<std::uint32_t>(rng_.below(n_));
      if (codes_[victim] != churn_code_) set_position(victim, churn_code_);
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
  [[gnu::noinline]] std::uint64_t crash_fast_forward() {
    const std::uint64_t consumed = crash_countdown_;
    interactions_ += consumed;
    crash_countdown_ = 0;
    maybe_crash_after_slot();
    return consumed;
  }

  P protocol_;
  std::uint32_t n_ = 0;
  Rng rng_;
  mutable Rng probe_rng_{0};  // never advanced: deterministic probes
                              // don't read it
  FaultSpec faults_{};
  bool faults_active_ = false;
  double crash_q_ = 0.0;
  std::uint32_t churn_code_ = 0;
  std::uint64_t crash_countdown_ = 0;
  std::uint64_t interactions_ = 0;
  std::vector<std::uint32_t> codes_;   // position -> code
  std::vector<std::uint32_t> active_;  // A: the active edges, any order
  std::vector<std::uint32_t> slot_;    // edge -> index in A, or kInactive
  std::vector<std::uint64_t> state_counts_;
  std::vector<CountDelta> last_deltas_;
  StrategyTrace trace_;
  [[no_unique_address]] Counters counters_{};
};

// True exactly for the ring engine: ring silence (no active ring edge) is
// read only off it.
template <class E>
inline constexpr bool is_ring_simulation_v = false;
template <class P>
inline constexpr bool is_ring_simulation_v<RingSimulation<P>> = true;

}  // namespace ppsim
