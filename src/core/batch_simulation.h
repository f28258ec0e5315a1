// Count-based batched simulation backend.
//
// For a protocol whose state space Q is finite and enumerable, a population
// configuration is fully described by the vector of state counts
// (m_q)_{q in Q} — the scheduler of Section 2 is anonymous, so agent
// identities carry no information. This backend keeps exactly that vector:
// O(|Q|) memory instead of the O(n) agent array, and every step simulates
// draws of the ordered (initiator, responder) *state pair* from the count
// distribution,
//   P[(a, b)] = m_a (m_b - [a = b]) / (n (n - 1)),
// which is precisely the pushforward of the uniform ordered-agent-pair
// scheduler. The simulated interaction-count process therefore has the same
// distribution as Simulation<P>'s, projected onto counts (validated in
// tests/batch_simulation_test.cpp and tests/engine_equivalence_test.cpp).
//
// The engine is assembled from the sampling kernels in
// core/batch_kernels.h and advances with a runtime-selectable strategy
// (core/engine.h's BatchStrategy):
//
//  * kGeometricSkip — skip runs of provably-null draws in one geometric
//    jump, then simulate the next candidate interaction individually.
//    A StructuredProtocol (core/protocol.h) declares one of three exact
//    null structures, and the engine holds that structure's kernel
//    (StructureKernel<P>, core/batch_kernels.h), which keeps the active
//    weight W = A(n-1) + (n-A)A + D current and samples the next active
//    pair exactly:
//      - diagonal (non-null pairs have equal states, Silent-n-state-SSR):
//        A = 0, D = sum_q active(q) m_q (m_q - 1), so whole
//        Theta(n^2)-step null stretches cost O(1);
//      - keyed passive (null iff both passive with distinct keys,
//        Optimal-Silent-SSR with passive = Settled, key = rank):
//        D = sum_k s_k (s_k - 1), with 3-case pair sampling;
//      - unkeyed passive (both passive => null, no key: ResetProcess with
//        passive = computing, one-way epidemics with passive = infected):
//        D = 0, with 2-case sampling.
//    Otherwise (NullPairProtocol) runs of one identical null pair are
//    geometric in that pair's own probability.
//  * kAuto — delegate per step to core/engine.h's StrategyController: the
//    exact active-weight density W / n(n-1) decides. Sparse rounds take
//    the geometric skip; dense rounds run on the *array arm*: an
//    agent-code array held inside this engine, filled from the counts in
//    code order on entry (no randomness: the scheduler is anonymous), that
//    draws uniform ordered agent pairs — one draw per interaction slot,
//    faults drawn per slot as on the agent array (Simulation::set_faults).
//    A step there is a *burst* of slots that runs across changes until the
//    step's observer asks it to stop, the controller's verdict leaves the
//    array arm, or n slots pass without a change; plain step() stops at
//    the first change. Protocols without a declared null structure stay on
//    the geometric path. Every step's resolved arm is recorded in
//    strategy_trace().
//
// The array arm does not touch the geometric path's Fenwick trees (the
// full-|Q| count tree is hundreds of MB for Optimal-Silent-SSR at
// n >= 10^6, so per-delta updates there would dominate). It keeps counts_
// and the active-weight *scalars* current, diffs its entry histogram
// against the counts once when it is left, and the diverged codes are
// replayed into the trees before the next geometric-skip step.
//
// BatchSimulation<P> satisfies the Engine, CountEngine and StrategyEngine
// concepts of core/engine.h; protocol event counters live engine-side
// (counters()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"  // sample_geometric

namespace ppsim {

// Observer for BatchSimulation::step(obs) that ends every burst at its
// first change: plain step() is step(StopAtFirstChange{}).
struct StopAtFirstChange {
  template <class State>
  bool operator()(const State&, const State&) const {
    return true;
  }
};

struct BatchStepStats {
  std::uint64_t effective = 0;  // interactions simulated individually
  std::uint64_t batched = 0;    // interactions accounted in bulk
  std::uint64_t multinomial_batches = 0;  // always 0; perfbench still reads it
};

template <EnumerableProtocol P>
class BatchSimulation {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  // Member-initialization order (declaration order) makes counts_of safe
  // here: protocol_ is fully constructed before counts_ is initialized.
  BatchSimulation(P protocol, const std::vector<State>& initial,
                  std::uint64_t seed,
                  BatchStrategy strategy = BatchStrategy::kGeometricSkip)
      : protocol_(std::move(protocol)),
        counts_(counts_of(protocol_, initial)),
        rng_(seed),
        strategy_(strategy) {
    init_samplers();
  }

  BatchSimulation(P protocol, std::vector<std::uint64_t> counts,
                  std::uint64_t seed,
                  BatchStrategy strategy = BatchStrategy::kGeometricSkip)
      : protocol_(std::move(protocol)),
        counts_(std::move(counts)),
        rng_(seed),
        strategy_(strategy) {
    init_samplers();
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  // Engine-contract name for the same snapshot.
  const std::vector<std::uint64_t>& state_counts() const { return counts_; }
  const P& protocol() const { return protocol_; }
  P& protocol() { return protocol_; }
  Rng& rng() { return rng_; }

  // Engine-side observer: per-interaction events reported by observable
  // protocols (empty for plain protocols).
  const Counters& counters() const { return counters_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }
  const BatchStepStats& stats() const { return stats_; }

  // Count changes applied by the most recent effective step (empty right
  // after construction and after a step() that returned 0). An array-arm
  // burst (step(obs)) reports its final changed slot only, having shown
  // every change to the observer.
  const std::vector<CountDelta>& last_deltas() const { return last_deltas_; }

  BatchStrategy strategy() const { return strategy_; }
  void set_strategy(BatchStrategy s) { strategy_ = s; }

  // Fault injection (core/faults.h), compiled exactly into every count
  // path. Call before the first step. drop thins the changeful-slot
  // probability multiplicatively (a dropped pair is a null), oneway is
  // drawn per delivered interaction, and churn is materialized as a
  // geometric crash countdown over interaction slots: geometric waits are
  // truncated at the countdown, which is exact by memorylessness. An
  // all-zero spec is a no-op: the engine consumes exactly the fault-free
  // randomness stream, bit for bit.
  void set_faults(const FaultSpec& faults) {
    faults.validate();
    if (faults.active() && !StructuredProtocol<P>)
      throw std::invalid_argument(
          "count-engine fault injection requires a protocol with declared "
          "null structure (diagonal / keyed / unkeyed passive); use "
          "engine=array");
    faults_ = faults;
    faults_active_ = faults.active();
    crash_q_ = 0.0;
    crash_countdown_ = 0;
    if (faults.churn > 0.0) {
      if constexpr (!ChurnableProtocol<P>) {
        throw std::invalid_argument(
            "fault.churn needs a protocol with a churn_state()");
      } else {
        crash_q_ = faults.crash_probability(population_size());
        churn_code_ = protocol_.encode(protocol_.churn_state());
        crash_countdown_ = sample_geometric(rng_, crash_q_);
      }
    }
  }
  const FaultSpec& faults() const { return faults_; }

  // The arm the next step will actually run: kGeometricSkip runs its own
  // arm; kAuto on a protocol with declared null structure delegates to the
  // StrategyController with the live exact active weight. Every other
  // protocol stays on the geometric path, and so does auto with every
  // interaction dropped (fault.drop = 1): the geometric path certifies the
  // freeze.
  StrategyArm resolved_arm() const {
    if constexpr (StructuredProtocol<P>) {
      if (strategy_ == BatchStrategy::kAuto &&
          !(faults_active_ && faults_.drop >= 1.0))
        return StrategyController::step_strategy(dense_weight_,
                                                 active_weight());
    }
    return StrategyArm::kGeometricSkip;
  }

  // The controller's decision trace: per-arm step and interaction totals
  // for every step this engine has taken (single-arm runs under a pinned
  // strategy; mixed under kAuto).
  const StrategyTrace& strategy_trace() const { return trace_; }

  // For structured protocols: true iff no future
  // interaction can change the configuration (the configuration is silent).
  bool silent() const
    requires StructuredProtocol<P>
  {
    return active_weight() == 0;
  }

  // Advances the simulation by at least one interaction (a whole batched
  // stretch counts as its true number of interactions) and up to the first
  // configuration change. Returns the number of interactions consumed, 0
  // iff the configuration is provably stuck: zero active weight
  // (structured protocols), or every agent in one null self-pairing state
  // (null-aware general protocols).
  std::uint64_t step() { return step(StopAtFirstChange{}); }

  // The same step, except that an array-arm round runs as a burst: it
  // calls obs(from_state, to_state) once per agent change (churn crashes
  // included), with interactions() already counting the changing slot,
  // and keeps drawing slots until obs returns true (the burst then ends
  // with the current slot), the controller's verdict leaves the array arm,
  // or n slots pass without a change. Every other arm runs exactly as in
  // step(), reports through last_deltas() and never calls obs. The draw
  // order does not depend on obs, so a burst replays the same sequence of
  // step() calls, bit for bit.
  template <class Observer>
  std::uint64_t step(Observer&& obs) {
    if constexpr (StructuredProtocol<P>) {
      if (resolved_arm() == StrategyArm::kArray) {
        const std::uint64_t consumed = step_array(obs);
        trace_.note(StrategyArm::kArray, consumed);
        return consumed;
      }
    } else {
      (void)obs;
    }
    leave_array_arm();
    resync_fenwicks();
    std::uint64_t consumed;
    if constexpr (StructuredProtocol<P>) {
      consumed = step_structured();
    } else {
      consumed = step_general();
    }
    if (consumed != 0) trace_.note(StrategyArm::kGeometricSkip, consumed);
    return consumed;
  }

  // Runs until at least `count` interactions have elapsed (a final batch
  // may overshoot; the overshoot is real simulated time, not error). An
  // array-arm burst runs on until its first change at or past the target,
  // where a plain step() loop's last step ends too.
  void run(std::uint64_t count) {
    const std::uint64_t target = interactions_ + count;
    auto reached = [&](const State&, const State&) {
      return interactions_ >= target;
    };
    while (interactions_ < target)
      if (step(reached) == 0) break;  // silent: nothing will ever change
  }

  // Recomputes the engine's invariants from scratch and throws
  // std::logic_error naming the first that fails: the counts sum to n;
  // inside the array arm, the agent array's histogram equals the counts
  // and every cached agent state encodes to its agent's code; the
  // active-weight scalars and the Fenwick trees (once the pending lazy
  // repairs are applied, on a copy) equal a fresh build from the counts.
  // O(|Q| + n) per call, for tests; it consumes no randomness and changes
  // nothing.
  void audit() const {
    auto fail = [](const char* what) {
      throw std::logic_error(std::string("BatchSimulation audit: ") + what);
    };
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    if (total != population_size()) fail("counts do not sum to n");
    if (in_array_) {
      std::vector<std::uint64_t> histogram(counts_.size(), 0);
      for (const Agent& a : agents_) ++histogram[a.code];
      if (histogram != counts_) fail("agent array histogram != counts");
      for (const Agent& a : agents_)
        if (protocol_.encode(a.state) != a.code)
          fail("agent state cache does not encode to the agent array");
    }
    BatchSimulation synced = *this;
    synced.leave_array_arm();
    synced.resync_fenwicks();
    WeightedSampler fresh_counts;
    fresh_counts.build(counts_);
    if (!(synced.count_sampler_ == fresh_counts))
      fail("count Fenwick != counts");
    if constexpr (StructuredProtocol<P>) {
      StructureKernel<P> fresh;
      fresh.build(protocol_, counts_);
      if (!synced.kernel_.same_weights(fresh))
        fail("structure kernel != fresh build");
    }
  }

 private:
  void init_samplers() {
    dense_weight_ = StrategyController::dense_weight(population_size());
    const std::uint32_t q = protocol_.num_states();
    if (counts_.size() != q)
      throw std::invalid_argument("counts size != num_states");
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < q; ++s) total += counts_[s];
    if (total != protocol_.population_size())
      throw std::invalid_argument("counts must sum to population size");
    count_sampler_.build(counts_);
    if constexpr (StructuredProtocol<P>) kernel_.build(protocol_, counts_);
  }

  static std::vector<std::uint64_t> counts_of(const P& protocol,
                                              const std::vector<State>& states) {
    if (states.size() != protocol.population_size())
      throw std::invalid_argument(
          "initial configuration size != population size");
    std::vector<std::uint64_t> counts(protocol.num_states(), 0);
    for (const State& s : states) {
      const std::uint32_t code = protocol.encode(s);
      if (code >= counts.size())
        throw std::invalid_argument("encode() out of range");
      ++counts[code];
    }
    return counts;
  }

  double ordered_pairs() const {
    const double n = static_cast<double>(population_size());
    return n * (n - 1.0);
  }

  std::uint64_t active_weight() const
    requires StructuredProtocol<P>
  {
    return kernel_.weights(population_size()).total;
  }

  // Eager count change: counts, the full-|Q| count tree, the structure
  // kernel's trees and scalars all move together.
  // Used by every individually-simulated interaction.
  void apply_count_delta(std::uint32_t s, std::int64_t delta) {
    const std::uint64_t old_count = counts_[s];
    counts_[s] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(old_count) + delta);
    count_sampler_.add(s, delta);
    if constexpr (StructuredProtocol<P>)
      kernel_.on_count_change(protocol_, s, protocol_.decode(s), old_count,
                              counts_[s], /*lazy=*/false);
    last_deltas_.push_back(CountDelta{s, static_cast<std::int32_t>(delta)});
  }

  void resync_fenwicks() {
    if (!fenwicks_dirty_) return;
    for (std::uint32_t slot : dirty_codes_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(dirty_codes_.key_at(slot));
      const std::uint64_t old_count = dirty_codes_.value_at(slot);
      const std::uint64_t now = counts_[code];
      const std::int64_t d = static_cast<std::int64_t>(now) -
                             static_cast<std::int64_t>(old_count);
      if (d != 0) count_sampler_.add(code, d);
      if constexpr (StructuredProtocol<P>)
        kernel_.resync_code(protocol_, code, old_count, now);
    }
    if constexpr (StructuredProtocol<P>) kernel_.finish_resync();
    dirty_codes_.clear();
    fenwicks_dirty_ = false;
  }

  // Applies interact() to one (a, b) state pair drawn by the scheduler and
  // folds the result back into the counts. Under fault injection the
  // one-way draw happens here (drop is folded into the wait upstream): the
  // transition runs in full — counters included, per the FaultSpec
  // convention — but the responder keeps its old state.
  void apply_interaction(std::uint32_t a, std::uint32_t b) {
    last_deltas_.clear();
    const bool one_way = faults_active_ && faults_.oneway > 0.0 &&
                         rng_.unit() < faults_.oneway;
    State sa = protocol_.decode(a);
    State sb = protocol_.decode(b);
    invoke_interact(protocol_, sa, sb, rng_, counters_);
    const std::uint32_t na = protocol_.encode(sa);
    const std::uint32_t nb = one_way ? b : protocol_.encode(sb);
    if (na != a) {
      apply_count_delta(a, -1);
      apply_count_delta(na, +1);
    }
    if (nb != b) {
      apply_count_delta(b, -1);
      apply_count_delta(nb, +1);
    }
  }

  // --- Array arm -----------------------------------------------------------

  // One burst on the agent-code array: uniform ordered agent pairs, drawn
  // as UniformScheduler draws them, one interaction slot at a time. Each
  // slot runs the agent array's per-slot fault law (drop, then one-way,
  // then the end-of-slot crash). Pairs the protocol certifies null skip
  // interact(), exactly as the geometric paths skip them. After a slot
  // that changed some agent the burst ends if obs asked it to or if the
  // controller's verdict (re-checked from the live active weight) is no
  // longer the array arm. It also ends after n slots without a change
  // (positive active weight does not promise one: an unkeyed protocol's
  // candidate pairs may all be null), so run() horizons are always
  // reached; stopping at a fixed slot count is exact. Returns the
  // slots consumed; last_deltas() reports the final slot's changes. The
  // stats count the burst as the one-change steps it replays: one
  // effective slot per change (or per changeless n-slot run).
  //
  // The per-step functions of both count engines (this one,
  // step_structured, step_general, RingSimulation::step) are flattened:
  // GCC inlines their whole call tree (interact, encode, Rng::below,
  // sample_geometric, the kernel, obs) whatever the translation unit's
  // inlining budget, which in ppsle_run's one large unit otherwise
  // outlines those callees. codegen.HotHelpersInline checks the built
  // binary for out-of-line calls from them.
  template <class Observer>
  [[gnu::flatten]] std::uint64_t step_array(Observer& obs)
    requires StructuredProtocol<P>
  {
    if (!in_array_) enter_array_arm();
    const std::uint32_t n = population_size();
    const bool drop_on = faults_active_ && faults_.drop > 0.0;
    const bool oneway_on = faults_active_ && faults_.oneway > 0.0;
    const bool churn_on = crash_q_ > 0.0;
    const std::uint64_t start = interactions_;
    std::uint64_t slots = 0;
    std::uint64_t quiet = 0;     // slots since the last change
    std::uint64_t replayed = 0;  // one-change steps this burst replays
    bool stop = false;
    while (!stop && quiet < n) {
      ++slots;
      ++quiet;
      slot_moves_ = 0;
      const auto i = static_cast<std::uint32_t>(rng_.below(n));
      auto j = static_cast<std::uint32_t>(rng_.below(n - 1));
      if (j >= i) ++j;
      const bool dropped = drop_on && rng_.unit() < faults_.drop;
      if (!dropped) {
        const bool one_way = oneway_on && rng_.unit() < faults_.oneway;
        if (!protocol_.is_null_pair(agents_[i].state, agents_[j].state)) {
          State ta = agents_[i].state;
          State tb = agents_[j].state;
          invoke_interact(protocol_, ta, tb, rng_, counters_);
          const std::uint32_t na = protocol_.encode(ta);
          if (na != agents_[i].code &&
              move_agent(i, na, ta, start + slots, obs))
            stop = true;
          if (!one_way) {
            const std::uint32_t nb = protocol_.encode(tb);
            if (nb != agents_[j].code &&
                move_agent(j, nb, tb, start + slots, obs))
              stop = true;
          }
        }
      }
      if (churn_on && --crash_countdown_ == 0) {
        if constexpr (ChurnableProtocol<P>) {
          const auto victim = static_cast<std::uint32_t>(rng_.below(n));
          if (agents_[victim].code != churn_code_ &&
              move_agent(victim, churn_code_, protocol_.churn_state(),
                         start + slots, obs))
            stop = true;
        }
        crash_countdown_ = sample_geometric(rng_, crash_q_);
      }
      if (slot_moves_ != 0) {
        quiet = 0;
        ++replayed;
        if (!stop && StrategyController::step_strategy(
                         dense_weight_, active_weight()) !=
                         StrategyArm::kArray)
          stop = true;
      }
    }
    if (quiet == n) ++replayed;  // a changeless n-slot run ended the burst
    interactions_ = start + slots;
    stats_.batched += slots - replayed;
    stats_.effective += replayed;
    last_deltas_.clear();
    for (std::uint32_t k = 0; k < slot_moves_; ++k) {
      last_deltas_.push_back(CountDelta{slot_move_[k].from, -1});
      last_deltas_.push_back(CountDelta{slot_move_[k].to, +1});
    }
    return slots;
  }

  // Moves agent i to `code` (state `to`, as interact() left it: a code
  // drops only fields its state never reads before rewriting them, so the
  // cache behaves as decode(code)), keeping counts_, the active-weight
  // scalars and the agent state cache current,
  // records the move for last_deltas(), and shows the change to obs with
  // interactions() at `now`. Returns obs's stop request. The Fenwick trees
  // are left stale until leave_array_arm().
  template <class Observer>
  bool move_agent(std::uint32_t i, std::uint32_t code, const State& to,
                  std::uint64_t now, Observer& obs) {
    Agent& agent = agents_[i];
    slot_move_[slot_moves_++] = CodeMove{agent.code, code};
    array_count_delta(agent.code, agent.state, -1);
    array_count_delta(code, to, +1);
    agent.code = code;
    interactions_ = now;
    const bool stop = obs(std::as_const(agent.state), to);
    agent.state = to;
    return stop;
  }

  // One agent's count change on the array arm: counts_ and the kernel's
  // active-weight scalars, lazily (the Fenwick trees stay stale).
  void array_count_delta(std::uint32_t code, const State& st,
                         std::int32_t delta) {
    const std::uint64_t old_count = counts_[code];
    counts_[code] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(old_count) + delta);
    kernel_.on_count_change(protocol_, code, st, old_count, counts_[code],
                            /*lazy=*/true);
  }

  // Lays the agents out from the counts in code order, each with its
  // decoded state (one decode per occupied code). The scheduler is
  // anonymous, so any fixed layout is exact, and this one consumes no
  // randomness. Occupied codes come from one O(|Q|) scan of counts_, the
  // order of the count engine's own set-up; the entry histogram is kept for
  // leave_array_arm()'s repair. Kept out of line (cold: once per entry), so
  // step_array's flatten does not copy it into every instantiation.
  [[gnu::noinline]] void enter_array_arm() {
    array_entry_.clear();
    for (std::uint32_t code = 0; code < counts_.size(); ++code)
      if (counts_[code] != 0)
        array_entry_.push_back(CodeCount{code, counts_[code]});
    agents_.clear();
    agents_.reserve(population_size());
    for (const CodeCount& e : array_entry_)
      agents_.insert(agents_.end(), e.count,
                     Agent{protocol_.decode(e.code), e.code});
    in_array_ = true;
  }

  // Repairs what the array arm left stale, once: every code whose count
  // moved since entry (the entry histogram plus the codes the agents hold
  // now) is handed to the dirty-code resync, which repairs the Fenwick
  // trees before the next geometric step. O(n + occupied at entry) hash
  // operations.
  void leave_array_arm() {
    if (!in_array_) return;
    array_diff_.clear();
    for (const CodeCount& e : array_entry_)
      array_diff_.find_or_insert(e.code, e.count);
    for (const Agent& a : agents_) array_diff_.find_or_insert(a.code, 0);
    for (std::uint32_t slot : array_diff_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(array_diff_.key_at(slot));
      const std::uint64_t entry = array_diff_.value_at(slot);
      if (counts_[code] == entry) continue;
      dirty_codes_.find_or_insert(code, entry);  // first old value wins
      fenwicks_dirty_ = true;
    }
    in_array_ = false;
  }

  // --- Churn ---------------------------------------------------------------

  // End-of-slot crash: reset one uniformly random agent to the protocol's
  // boot state. The eager count update requires clean Fenwick trees (an
  // eager delta on a lazily-dirty code would be double-counted at the next
  // resync), and it appends to last_deltas_ so rank trackers observing the
  // count stream see churn like any other transition. Kept out of line
  // (cold: once per crash), so the flattened geometric steps do not copy
  // the resync into every instantiation.
  [[gnu::noinline]] void crash_uniform_agent() {
    if constexpr (ChurnableProtocol<P>) {
      resync_fenwicks();
      const std::uint32_t victim =
          count_sampler_.find(rng_.below(population_size()));
      if (victim != churn_code_) {
        apply_count_delta(victim, -1);
        apply_count_delta(churn_code_, +1);
      }
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
    last_deltas_.clear();
    const std::uint64_t consumed = crash_countdown_;
    interactions_ += consumed;
    stats_.batched += consumed;
    crash_countdown_ = 0;
    maybe_crash_after_slot();
    return consumed;
  }

  // --- Geometric-skip steps ------------------------------------------------

  // Shared geometric-skip core: wait Geometric(p_eff) until the next
  // changeful slot, where p_eff = (w / n(n-1)) * (1 - drop). Dropping is
  // uniform thinning, so it scales the changeful-slot rate without
  // disturbing the conditional active-pair distribution — the sampler
  // callback is fault-agnostic. With churn on, a wait overshooting the
  // crash countdown is cut at the crash (exact by memorylessness: the
  // crash changes the active weight, and the residual wait is recomputed
  // from the fresh counts on the next step).
  //
  // Fault-free bit-identity: sample_geometric returns 1 without touching
  // the rng when p >= 1, so calling it unconditionally reproduces the old
  // `wait = 1` saturated-weight shortcut of the keyed/unkeyed paths
  // exactly.
  template <class SampleApply>
  std::uint64_t geometric_step(std::uint64_t w, SampleApply&& sample_apply) {
    const bool churn_on = crash_q_ > 0.0;
    double p = static_cast<double>(w) / ordered_pairs();
    if (faults_active_) p *= 1.0 - faults_.drop;
    if (w == 0 || p <= 0.0) {  // silent (or drop == 1): only churn can act
      last_deltas_.clear();
      if (!churn_on) return 0;  // silent forever
      return crash_fast_forward();
    }
    const std::uint64_t wait = sample_geometric(rng_, p);
    if (churn_on && wait > crash_countdown_) return crash_fast_forward();
    interactions_ += wait;
    stats_.batched += wait - 1;
    ++stats_.effective;
    if (churn_on) crash_countdown_ -= wait;
    sample_apply();
    maybe_crash_after_slot();
    return wait;
  }

  // Structured fast path: the wait until the next candidate interaction is
  // Geometric(W / n(n-1)) and the candidate pair is drawn by the structure
  // kernel. A candidate may still turn out null (an unkeyed protocol's
  // restless pairs need not all change); that costs one simulated
  // interaction, not a missed skip.
  [[gnu::flatten]] std::uint64_t step_structured() {
    const std::uint64_t n = population_size();
    const ActiveWeights w = kernel_.weights(n);
    return geometric_step(w.total, [&] {
      const auto [a, b] =
          kernel_.sample_pair(rng_, protocol_, count_sampler_, counts_, n, w);
      apply_interaction(a, b);
    });
  }

  // General path: draw the ordered state pair exactly; when the protocol
  // can certify the pair null, batch the whole run of consecutive
  // identical draws (Geometric in the pair's own probability) and then
  // redraw conditioned on "not that pair again" by rejection.
  [[gnu::flatten]] std::uint64_t step_general() {
    const std::uint64_t n = population_size();
    const auto [a, b] = sample_ordered_state_pair(rng_, count_sampler_, n);

    if constexpr (NullPairProtocol<P>) {
      const State sa = protocol_.decode(a);
      const State sb = protocol_.decode(b);
      if (protocol_.is_null_pair(sa, sb)) {
        // Probability of drawing this exact ordered pair again.
        const double pq = static_cast<double>(counts_[a]) *
                          static_cast<double>(counts_[b] - (a == b ? 1 : 0)) /
                          ordered_pairs();
        if (pq >= 1.0) {
          // (a, b) is the only drawable pair (all agents share one state)
          // and it is null: the configuration can never change again.
          // Signal silence exactly like the diagonal path does.
          last_deltas_.clear();
          return 0;
        }
        // Run of consecutive (a, b) draws, first included: Geometric in
        // the probability of breaking the run.
        std::uint64_t run = 1;
        if (pq > 0.0)
          run = sample_geometric(rng_, 1.0 - pq);
        interactions_ += run;
        stats_.batched += run;
        // The next draw is conditioned != (a, b); rejection is exact and
        // terminates fast because P[reject] = pq < 1.
        for (;;) {
          const auto [a2, b2] =
              sample_ordered_state_pair(rng_, count_sampler_, n);
          if (a2 == a && b2 == b) continue;
          ++interactions_;
          ++stats_.effective;
          apply_interaction(a2, b2);
          return run + 1;
        }
      }
    }
    ++interactions_;
    ++stats_.effective;
    apply_interaction(a, b);
    return 1;
  }

  P protocol_;
  std::vector<std::uint64_t> counts_;
  WeightedSampler count_sampler_;      // weight m_q: scheduler draws
  [[no_unique_address]] StructureKernel<P> kernel_;  // structured P only
  Rng rng_;
  BatchStrategy strategy_ = BatchStrategy::kGeometricSkip;
  std::uint64_t interactions_ = 0;
  BatchStepStats stats_;
  StrategyTrace trace_;
  std::vector<CountDelta> last_deltas_;
  FlatMap64 dirty_codes_;  // code -> count the Fenwick trees still reflect
  bool fenwicks_dirty_ = false;
  std::uint64_t dense_weight_ = 0;  // the auto verdict's bound
  // Array arm (kAuto only): each agent's state and code while in_array_,
  // the counts at entry, and leave_array_arm()'s scratch map. State and
  // code share one element, so a slot's two agents cost two cache lines,
  // as on the agent array.
  struct Agent {
    State state;
    std::uint32_t code;
  };
  struct CodeCount {
    std::uint32_t code;
    std::uint64_t count;
  };
  // The current slot's agent moves (a pair and a crash at most), kept in
  // place of per-change last_deltas_ pushes (measured ~1.5x slower end to
  // end on dormant-mix n = 4096): last_deltas() is built from them once,
  // when the burst ends.
  struct CodeMove {
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<Agent> agents_;
  CodeMove slot_move_[3] = {};
  std::uint32_t slot_moves_ = 0;
  std::vector<CodeCount> array_entry_;
  FlatMap64 array_diff_;
  bool in_array_ = false;
  FaultSpec faults_{};  // all-zero (and bit-transparent) unless set_faults()
  bool faults_active_ = false;
  double crash_q_ = 0.0;  // per-slot crash probability churn / n
  std::uint64_t crash_countdown_ = 0;  // slots until the next crash
  std::uint32_t churn_code_ = 0;       // encode(churn_state()), churn only
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
